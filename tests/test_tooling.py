"""Source checks that hold for the whole package."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import matchdens

SOURCES = sorted(Path(matchdens.__file__).parent.glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONTAINER_CALLS = {"dict", "list", "set"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unbounded_caches(tree: ast.Module, path: Path) -> list[str]:
    """Cache decorators without a finite integer maxsize."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if _name(call.func if call else deco) not in CACHE_DECORATORS:
                continue
            size = None
            if call is not None and _name(call.func) == "lru_cache":
                args = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                size = args[0] if args else None
            bounded = (
                isinstance(size, ast.Constant)
                and type(size.value) is int
                and size.value > 0
            )
            if not bounded:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def _assignments(nodes):
    """(line, targets, value) of every plain or annotated assignment among nodes."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            yield node.lineno, node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield node.lineno, [node.target], node.value


def _is_empty_container(value) -> bool:
    return (
        (isinstance(value, ast.Dict) and not value.keys)
        or (isinstance(value, (ast.List, ast.Set)) and not value.elts)
        or (
            isinstance(value, ast.Call)
            and _name(value.func) in EMPTY_CONTAINER_CALLS
            and not value.args
            and not value.keywords
        )
    )


def _module_level_empty_containers(tree: ast.Module, path: Path) -> list[str]:
    """Module-level names bound to an empty {}, [], dict(), list() or set()."""
    return [
        f"{path.name}:{line} " + ", ".join(ast.unparse(t) for t in targets)
        for line, targets, value in _assignments(tree.body)
        if _is_empty_container(value)
    ]


def _instance_empty_containers(tree: ast.Module, path: Path) -> list[str]:
    """`self.x` attributes bound to an empty container in a method, as Class.x."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for line, targets, value in _assignments(ast.walk(method)):
                if not _is_empty_container(value):
                    continue
                for t in targets:
                    if isinstance(t, ast.Attribute) and _name(t.value) == "self":
                        found.append(f"{path.name}:{line} {cls.name}.{t.attr}")
    return found


def test_no_cache_grows_without_limit():
    assert SOURCES
    found, attributes = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _unbounded_caches(tree, path) + _module_level_empty_containers(tree, path)
        attributes += _instance_empty_containers(tree, path)
    assert not found, "caches without a bound: " + "; ".join(found)
    # the planner state's two per-start-prime dicts are the only unbounded
    # attributes left; ROADMAP item 2 replaces them and deletes them here
    assert {a.split(" ", 1)[1] for a in attributes} == {
        "_PlannerState.checkpoints",
        "_PlannerState.full",
    }, "attributes without a bound: " + "; ".join(attributes)


def test_the_scan_sees_each_kind_of_unbounded_cache():
    source = "\n".join(
        [
            "from functools import cache, lru_cache",
            "import functools",
            "_a = {}",
            "_b: list = []",
            "_c = dict()",
            "_d = set()",
            "_ok = {1: 2}",
            "@lru_cache(maxsize=None)",
            "def f(): pass",
            "@functools.cache",
            "def g(): pass",
            "@lru_cache",
            "def h(): pass",
            "@lru_cache(maxsize=8)",
            "def bounded(): pass",
            "@functools.lru_cache(16)",
            "def bounded_too(): pass",
            "class C:",
            "    def __init__(self):",
            "        self.a = {}",
            "        self.b: dict = dict()",
            "        self.ok = [1]",
            "        other.c = []",
            "    def reset(self):",
            "        if self:",
            "            self.d = set()",
            "        local = list()",
        ]
    )
    tree = ast.parse(source)
    path = Path("example.py")
    assert _module_level_empty_containers(tree, path) == [
        "example.py:3 _a",
        "example.py:4 _b",
        "example.py:5 _c",
        "example.py:6 _d",
    ]
    assert _unbounded_caches(tree, path) == ["example.py:9 f", "example.py:11 g", "example.py:13 h"]
    assert _instance_empty_containers(tree, path) == [
        "example.py:20 C.a",
        "example.py:21 C.b",
        "example.py:26 C.d",
    ]


LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _instrumented(tree: ast.Module) -> list[tuple[str, str]]:
    """(owner, attribute) of every instrument(owner, attribute, ...) call,
    with loops over module-level tuples unrolled."""
    constants = {}
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and len(names) == len(node.targets) == 1:
            try:
                constants[names[0]] = ast.literal_eval(node.value)
            except ValueError:
                pass
    found = []

    def visit(node, env):
        loop = isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
        if loop and node.iter.id in constants:
            for value in constants[node.iter.id]:
                for child in node.body:
                    visit(child, {**env, node.target.id: value})
            return
        if isinstance(node, ast.Call) and _name(node.func) == "instrument":
            owner, attr = node.args[:2]
            code = compile(ast.Expression(attr), str(LAYERS), "eval")
            found.append((ast.unparse(owner), eval(code, {"__builtins__": {}}, env)))
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(tree, {})
    return found


def test_benchmark_wraps_only_names_that_exist():
    # a renamed or deleted function would leave its layer metric reading zero
    found = _instrumented(ast.parse(LAYERS.read_text(), filename=str(LAYERS)))
    assert ("groupcore.FiniteGroup", "__init__") in found
    assert ("dirichletden", "matching_prime_series") in found
    missing = []
    for owner, attr in found:
        module, *rest = owner.split(".")
        obj = importlib.import_module(f"matchdens.{module}")
        for part in rest:
            obj = getattr(obj, part, None)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, "perfbench/layers.py wraps missing names: " + ", ".join(missing)


def _package_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) of every `name.attr` read where name is a module
    imported from matchdens, under its alias if it has one."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "matchdens"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_benchmark_reads_only_names_that_exist():
    # a renamed or deleted name would fail the benchmark on one commit only
    reads = {}
    for path in (LAYERS.parent / "workloads.py", LAYERS):
        reads[path.name] = _package_reads(ast.parse(path.read_text(), filename=str(path)))
    assert ("ellstat", "count_points_naive") in reads["workloads.py"]
    assert ("primes", "is_prime") in reads["workloads.py"]  # read as mprimes.is_prime
    missing = [
        f"{name}: {module}.{attr}"
        for name, found in reads.items()
        for module, attr in sorted(found)
        if not hasattr(importlib.import_module(f"matchdens.{module}"), attr)
    ]
    assert not missing, "perfbench reads missing names: " + ", ".join(missing)


README = Path(__file__).resolve().parents[1] / "README.md"
# `module.NAME` = value, the value written as 2^k, 10^k or an integer
STATED_BOUND = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)` = (\d+)(?:\^(\d+))?")


def test_readme_bounds_match_the_code():
    text = " ".join(README.read_text().split())
    stated = {(module, name): int(base) ** int(exp or 1) for module, name, base, exp in STATED_BOUND.findall(text)}
    assert {
        ("ellstat", "MAX_Q"),
        ("density", "MAX_PLANNER_PRIME_BOUND"),
        ("sieveshift", "MAX_TRIAL_BOUND"),
        ("primes", "SIEVE_LIMIT"),
        ("sieveshift", "MAX_SCAN_N"),
        ("ellstat", "NAIVE_MAX_Q"),
    } <= stated.keys()
    wrong = [
        f"{module}.{name} = {value} in README.md, {actual} in the code"
        for (module, name), value in stated.items()
        if value != (actual := getattr(importlib.import_module(f"matchdens.{module}"), name))
    ]
    assert not wrong, "; ".join(wrong)


def _public_definitions(tree: ast.Module):
    """Every public top-level function and class of a module."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _names_read(node) -> Counter:
    """How often each name is read below node, as `name` or as `x.name`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreferenced(trees: dict[str, ast.Module], outside: set[tuple[str, str]]) -> list[str]:
    """module.name of each public definition in trees that no code reads
    outside its own definition, and that is not in outside; an import alone
    (such as a re-export in __init__) is no reference."""
    total = sum((_names_read(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in _public_definitions(tree)
        if total[node.name] == _names_read(node)[node.name] and (module, node.name) not in outside
    )


def test_public_code_in_src_has_a_caller():
    # tests alone may not keep a public function or class alive; these five
    # are public entry points that nothing in the package or benchmark calls
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    bench = set(_instrumented(ast.parse(LAYERS.read_text(), filename=str(LAYERS))))
    for path in (LAYERS.parent / "workloads.py", LAYERS):
        bench |= _package_reads(ast.parse(path.read_text(), filename=str(path)))
    assert ("primes", "sqrt_mod") in bench and ("ellstat", "count_points_naive") in bench
    assert _unreferenced(trees, bench) == [
        "density.zero_density",
        "ellstat.frobenius_class",
        "ellstat.trace_of_frobenius",
        "primes.next_prime",
        "sieveshift.pairwise_coprime",
    ]


def test_the_caller_scan_sees_each_kind_of_reference():
    source = "\n".join(
        [
            "from .other import used_by_import_only",
            "def recursive(n):",
            "    return recursive(n - 1)",
            "def called(): pass",
            "def attribute(): pass",
            "class Annotated: pass",
            "class Raised(ValueError): pass",
            "def benchmarked(): pass",
            "def used_by_import_only(): pass",
            "def _private(): pass",
            "def caller(x: Annotated) -> None:",
            "    called()",
            "    module.attribute",
            "    raise Raised",
        ]
    )
    trees = {"example": ast.parse(source)}
    assert _unreferenced(trees, {("example", "benchmarked")}) == [
        "example.caller",
        "example.recursive",
        "example.used_by_import_only",
    ]
