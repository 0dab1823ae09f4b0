"""Source checks that hold for the whole package."""

import ast
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


def _module_level_empty_containers(tree: ast.Module, path: Path) -> list[str]:
    """Module-level names bound to an empty {}, [], dict(), list() or set()."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, (ast.List, ast.Set)) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and _name(value.func) in EMPTY_CONTAINER_CALLS
                and not value.args
                and not value.keywords
            )
        )
        if empty:
            names = ", ".join(ast.unparse(t) for t in targets)
            found.append(f"{path.name}:{node.lineno} {names}")
    return found


def test_no_cache_grows_without_limit():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _unbounded_caches(tree, path) + _module_level_empty_containers(tree, path)
    assert not found, "caches without a bound: " + "; ".join(found)


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
