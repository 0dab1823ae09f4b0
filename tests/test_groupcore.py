import hashlib
import json
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, cli, groupcore
from matchdens.chartable import character_table_small, integer_valued_two_dimensional
from matchdens.cyclotomic import CycValue
from matchdens.groupcore import (
    ClassFunction,
    FiniteGroup,
    GroupMismatchError,
    InvalidGroupError,
    OrderBoundExceededError,
    abelianization,
    commutator_subgroup,
    direct_product,
    fiber_product,
    is_nilpotent,
    matching_fraction,
    pullback,
    quotient_by,
    zero_fraction,
)


@lru_cache(maxsize=None)
def _group(name):
    return catalog.named_group(name)


def matching_fraction_bruteforce(x, y):
    """Element-by-element recount of matching_fraction: the oracle."""
    assert x.group is y.group
    group = x.group
    matched = sum(1 for i in range(group.order) if x.value_at(i) == y.value_at(i))
    return Fraction(matched, group.order)


def _fraction_from_json(doc):
    return Fraction(int(doc["num"]), int(doc["den"]))


def cyc_value_from_json(doc):
    """The inverse of cli.cyc_value_to_json."""
    coeffs = {j: _fraction_from_json(c) for j, c in enumerate(doc["coeffs"])}
    return CycValue(int(doc["conductor"]), coeffs)


def class_function_from_json(group, doc):
    """The inverse of cli.class_function_to_json."""
    assert doc["kind"] == "class_function" and int(doc["group_order"]) == group.order
    values = [cyc_value_from_json(v) for v in doc["values"]]
    return ClassFunction(group, values, name=doc.get("name", ""))


@lru_cache(maxsize=None)
def _sl2_integer_char():
    sl2 = _group("sl2f3")
    return sl2, integer_valued_two_dimensional(character_table_small(sl2))


@pytest.mark.parametrize(
    "name,order,classes",
    [
        ("trivial", 1, 1),
        ("cyclic:6", 6, 6),
        ("q8", 8, 5),
        ("s3", 6, 3),
        ("d4", 8, 5),
        ("sl2f3", 24, 7),
        ("gl2fp:3", 48, 8),
        ("heisenberg:3", 27, 11),
    ],
)
def test_named_groups_validate(name, order, classes):
    g = _group(name)
    g.validate()
    assert g.order == order
    assert len(g.conjugacy_classes()) == classes


@pytest.mark.parametrize(
    "name", ["cyclic:1", "cyclic:6", "q8", "s3", "d4", "sl2f3", "heisenberg:3", "gl2fp:2", "gl2fp:3", "gl2fp:5"]
)
def test_catalog_generators_generate_the_group(name):
    g = _group(name)
    assert len(g.subgroup_closure(g.generator_indices)) == g.order


def test_sl2f3_class_sizes():
    part = _group("sl2f3").conjugacy_classes()
    assert sorted(part.sizes) == [1, 1, 4, 4, 4, 4, 6]
    assert sum(part.sizes) == 24


def test_classes_closed_under_conjugation():
    for name in ("s3", "q8", "sl2f3"):
        g = _group(name)
        part = g.conjugacy_classes()
        for k in range(len(part)):
            members = np.flatnonzero(part.class_of == k).tolist()
            mset = set(members)
            for x in members:
                for t in range(g.order):
                    assert g.mul(g.mul(t, x), g.inv(t)) in mset


def test_invalid_group_reported():
    half_identity = FiniteGroup(range(5), lambda a, b: (a - b) % 5)
    with pytest.raises(InvalidGroupError):
        half_identity.conjugacy_classes()  # 0 is only a right identity
    no_inverse = FiniteGroup(range(4), lambda a, b: (a * b) % 4)
    with pytest.raises(InvalidGroupError):
        no_inverse.conjugacy_classes()  # 0 absorbs: not a group
    broken = FiniteGroup(range(6), lambda a, b: np.minimum(a + b, 5))
    with pytest.raises(InvalidGroupError):
        broken.conjugacy_classes()
    # a Latin square with identity 0 in which every element is its own inverse:
    # a loop, but not associative: 1*(1*2) = 4 while (1*1)*2 = 2
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    nonassociative = FiniteGroup(range(5), lambda a, b: np.array(loop)[a, b])
    with pytest.raises(InvalidGroupError, match="associativity"):
        nonassociative.validate()


@pytest.mark.parametrize("n", [5, 200])  # a table at construction, and none
def test_identity_is_the_first_two_sided_one(n):
    # every e != 0 has e * 0 = 0, but only e = n - 1 has 0 * e = 0 too
    def op(a, b):
        return np.where(b == 0, a == 0, np.where(a == 0, np.where(b == n - 1, 0, 2), 0))

    assert FiniteGroup(range(n), op).identity == n - 1
    with pytest.raises(InvalidGroupError, match="no identity"):
        FiniteGroup(range(n), lambda a, b: np.where(b == 0, a == 0, 2))


def test_small_group_calls_op_once():
    # q8's 64 products fit one block of BLOCK_ENTRIES: the table is built by
    # one op call at construction, and everything after reads it
    q8 = catalog.named_group("q8")
    calls = []

    def counting(i, j):
        calls.append((np.shape(i), np.shape(j)))
        return q8._op(i, j)

    group = FiniteGroup(q8.elements, counting, name="q8", generators=[1, 2])
    assert calls == [((8, 1), (8,))]
    group.validate()
    assert group.conjugacy_classes().sizes.tolist() == [1, 2, 2, 2, 1]
    assert len(character_table_small(group)) == 5
    assert len(calls) == 1
    # a group of order 129 has more products than one block holds
    assert 128**2 <= groupcore.BLOCK_ENTRIES < 129**2
    assert FiniteGroup(range(129), lambda a, b: (a + b) % 129)._table is None


def test_direct_product_orders_and_classes():
    sl2 = _group("sl2f3")
    triv = _group("trivial")
    p0 = direct_product(sl2, triv)
    assert p0.order == sl2.order
    prod = direct_product(sl2, sl2)
    assert prod.order == 576
    assert len(prod.conjugacy_classes()) == 49


def test_product_classes_match_generic_orbit_search():
    c6, s3 = _group("cyclic:6"), _group("s3")
    prod = direct_product(c6, s3)
    generic = FiniteGroup(prod.elements, prod._op)
    assert np.array_equal(prod.conjugacy_classes().class_of, generic.conjugacy_classes().class_of)


@pytest.mark.parametrize("name", ["q8", "gl2fp:3"])  # handles given as a sequence; as an array
def test_element_handles_are_built_once(name):
    g = catalog.named_group(name)
    assert g.elements is g.elements
    assert len(g.elements) == g.order
    assert [g.index_of(h) for h in g.elements] == list(range(g.order))


def test_index_data_are_read_only_int64_arrays():
    sl2 = catalog.sl2f3_group()
    part, q = sl2.conjugacy_classes(), abelianization(sl2)
    subgroups = (sl2.center_indices(), commutator_subgroup(sl2), sl2.subgroup_closure([1]))
    for indices in (part.representatives, part.sizes, part.class_of, q.mapping, *subgroups):
        assert indices.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            indices[0] = 1
    # a mapping passed in is stored as a read-only copy: the caller's list or array stays its own
    c6, c3 = catalog.cyclic_group(6), catalog.cyclic_group(3)
    image = np.arange(6) % 3
    q = groupcore.QuotientMap(source=c6, target=c3, mapping=image)
    image[0] = 2
    assert q.mapping.tolist() == [0, 1, 2, 0, 1, 2] and not q.mapping.flags.writeable


def test_exact_arithmetic_takes_python_ints():
    # class sizes leave the int64 arrays as ints: an int64 in a Fraction or a
    # cyclotomic sum would wrap instead of growing
    sl2, chi = _sl2_integer_char()
    q = abelianization(sl2)
    fib = fiber_product(sl2, sl2, q, q)
    left = pullback(chi, fib, lambda pair: pair[0])
    right = pullback(chi, fib, lambda pair: pair[1])
    for value in (matching_fraction(left, right), zero_fraction(left)):
        assert type(value.numerator) is int and type(value.denominator) is int
    table = character_table_small(sl2)
    for x in table:
        coords = groupcore.inner_product(x, table[-1]).canonical()
        assert all(type(c.numerator) is int and type(c.denominator) is int for c in coords)


def _sl2_quotient(target):
    sl2 = catalog.sl2f3_group()
    if target == "c3":
        return abelianization(sl2)
    if target == "a4":
        return quotient_by(sl2, sl2.center_indices())
    return quotient_by(sl2, range(sl2.order))


def _fresh_group(name):
    """A newly built group, so no table or classes are cached on it yet."""
    if name.startswith(("sl2/", "fiber/")):
        q = _sl2_quotient(name.split("/")[1])
        return q.target if name.startswith("sl2/") else fiber_product(q.source, q.source, q, q)
    if " x " in name:
        left, right = name.split(" x ")
        return direct_product(catalog.named_group(left), catalog.named_group(right))
    return catalog.named_group(name)


# unit part of the quaternion product: _Q8_UNITS[u][v] = (sign flip, unit)
_Q8_UNITS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def _q8_product(x, y):
    flip, unit = _Q8_UNITS[x[1]][y[1]]
    return ((x[0] + y[0] + flip) % 2, unit)


def _matrix_product(p):
    def product(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % p,
            (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p,
            (x[2] * y[1] + x[3] * y[3]) % p,
        )

    return product


def _handle_product(name):
    """The product of two handles of a named group, from the group's
    definition on its handles: nothing of the index product it checks."""
    if name.startswith("fiber/") or " x " in name:
        left, right = name.split(" x ") if " x " in name else ("sl2f3", "sl2f3")
        f, g = _handle_product(left), _handle_product(right)
        return lambda x, y: (f(x[0], y[0]), g(x[1], y[1]))
    if name.startswith("sl2/"):
        # handles are the least source indices of the cosets of the kernel
        q = _sl2_quotient(name[4:])
        sl2, image = q.source, q.mapping.tolist()
        least = {t: image.index(t) for t in set(image)}
        mat = _matrix_product(3)
        return lambda a, b: least[image[sl2.index_of(mat(sl2.element(a), sl2.element(b)))]]
    base, _, arg = name.partition(":")
    if base in ("trivial", "cyclic"):
        n = int(arg or 1)
        return lambda a, b: (a + b) % n
    if base in ("sl2f3", "gl2fp"):
        return _matrix_product(int(arg or 3))
    return {
        "q8": _q8_product,
        "s3": lambda a, b: tuple(a[b[k]] for k in range(3)),
        "d4": lambda x, y: ((x[0] + (y[0] if x[1] == 0 else -y[0])) % 4, (x[1] + y[1]) % 2),
        "heisenberg": lambda x, y: (
            (x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3
        ),
    }[base]


def _handle_table(name, group):
    """The multiplication table built from handle products alone."""
    els, product = group.elements, _handle_product(name)
    index = {e: k for k, e in enumerate(els)}
    return np.array([[index[product(a, b)] for b in els] for a in els])


def _brute_force_classes(group, table):
    """Least index of each class {g x g^-1}, and the classes ordered by it."""
    inverse = [row.tolist().index(group.identity) for row in table]
    least = np.arange(group.order)
    for g in range(group.order):
        least = np.minimum(least, table[table[g], inverse[g]])
    classes: dict[int, list[int]] = {}
    for x, label in enumerate(least.tolist()):
        classes.setdefault(label, []).append(x)
    return least.tolist(), tuple(tuple(classes[label]) for label in sorted(classes))


_PRODUCTS = ("fiber/c3", "fiber/a4", "fiber/triv", "cyclic:6 x s3", "q8 x d4")
_ORBIT_GROUPS = (
    "trivial", "cyclic:1", "cyclic:7", "cyclic:12", "q8", "s3", "d4", "sl2f3",
    "heisenberg:3", "gl2fp:2", "gl2fp:3", "gl2fp:5", "sl2/c3", "sl2/a4", "sl2/triv",
    *_PRODUCTS,
)


@pytest.mark.parametrize("name", _ORBIT_GROUPS)
def test_orbit_labels_match_brute_force(name):
    group = _fresh_group(name)
    least, classes = _brute_force_classes(group, _handle_table(name, group))
    assert group._orbit_labels().tolist() == least  # by products, or on a table
    group.ensure_table()
    assert group._orbit_labels().tolist() == least  # on the table
    part = group.conjugacy_classes()  # through the group's class_labels hook, if any
    members = [tuple(np.flatnonzero(part.class_of == k).tolist()) for k in range(len(part))]
    assert tuple(members) == classes
    assert part.representatives.tolist() == [c[0] for c in classes]
    assert part.sizes.tolist() == [len(c) for c in classes]
    position = {c[0]: k for k, c in enumerate(classes)}
    assert part.class_of.tolist() == [position[label] for label in least]


# sha256 of json.dumps([representatives, sizes, class_of]) for each group's
# partition: pins every partition, whichever route computed it
PARTITION_SHA256 = {
    "gl2fp:2": "5a047ca4cc3a9664b9c5894572f3be1f51404eba23a17f27ebc5f7b10a9de9b2",
    "gl2fp:3": "6736812182386755c4f5921ce258b9ab0a0023e48aea95be8f47ac8ba0a1ba37",
    "gl2fp:5": "d4c9a91032230e23e3a6df959863f4e6782f021604333d7380054589160c51c2",
    "gl2fp:7": "830d40e554913d347fc1f6985c6ecdd6ce6b7fade941a4c3aed5ad6c56b35f91",
    "gl2fp:11": "4fca8024735d5c821c1615cb5f111f172c7f8d9588bcbe8113996aeef347c0c3",
    "gl2fp:13": "075d8641121dfeab70834785f80768da62b44015d355a89461efd1c9c11f8d4a",
    "trivial": "20c9974e80c4194b1869091ccb367ea25a3f4ac9329552bb3767b85483d9f6e7",
    "cyclic:1": "20c9974e80c4194b1869091ccb367ea25a3f4ac9329552bb3767b85483d9f6e7",
    "cyclic:2": "02403cd4a751aecaaa860c90551fedd95c27772c464defdb68988450716d5b1c",
    "cyclic:3": "583a62b46eb436fa49b6a744db420c92acc08239aa0eddedb62508d7d5d91c37",
    "cyclic:4": "9bbd616651dddea5533161bcdc5ae4cb395aa51eb2e43610429ee4492293f4dc",
    "cyclic:5": "cf09af7b6b341f0141b4654d53a54b84f10636ba4d293a460f2f9456f3eb6caa",
    "cyclic:6": "7e7fc3a1307704ae9ceba3285cb8f5669f8b9521b15f7cc6b90bd4cf9ee0618e",
    "cyclic:7": "5765831b7760097ec27fd21fe1a5dd9d024a33b23f93f0a1f0642e40cbdd969e",
    "cyclic:8": "e1a4874d1f1325fab93dc2c64fbbe71723291e606fdb9b6c2dd65579a11bded4",
    "cyclic:12": "e7ea0c78d5d63a9e1dd59ff12b601c9acdf6e63593ee578a6605483f606013cb",
    "cyclic:30": "fd4da8f05776258ea68d4bc49fd2821052ebe079d84646f361f31282087d42e2",
    "q8": "a971d34c0f625aea89651e2391bc4d66cf8dda44dd0c1070e8f20bebf7375351",
    "s3": "da52370dd3de24263ad2c8c38f002b12c6cf8b1cacf3acc7c78ee1dd8763e845",
    "d4": "8dc890217b055f329c4bf8ab184f66bb0b17517eb1943590484bae723c058cdf",
    "sl2f3": "9012772d5080acfe36943ccaede806dbe5d5fb8c70b04a9cff1d305eb6fa457a",
    "heisenberg:3": "04a9073f283e73d6f40f8dbc8880ad99c88064777b22d01b0a23f03fc6b82b26",
    "fiber/c3": "72c965ad86de713d59545a7f65819a92412a0f53a71e3ebe937228947a02e2eb",
    "fiber/a4": "9c13615addbddce758ab37dce80a14a863ba5c4bd797c81723adde3efb2335b0",
    "fiber/triv": "63956a621d9636b42ffb022650e861d7c124fe57f14339ed4b13e16a22b57d3c",
    "cyclic:6 x s3": "0d74ad64baa2ebe032885b344a805fe68a60e2f5353035c348f4aed572e6232e",
    "q8 x d4": "5ba94632caee786b4425e4fe3836f2c06d102dff9bd430a2b9d878895671934e",
    "sl2/c3": "583a62b46eb436fa49b6a744db420c92acc08239aa0eddedb62508d7d5d91c37",
    "sl2/a4": "6b0fc2852dbc0bbf32fe66914cb093644fe900327e2e4aa84bea8bfd1ddb0502",
    "sl2/triv": "20c9974e80c4194b1869091ccb367ea25a3f4ac9329552bb3767b85483d9f6e7",
}


@pytest.mark.parametrize("name", list(PARTITION_SHA256))
def test_partitions_pinned(name):
    part = _fresh_group(name).conjugacy_classes()
    text = json.dumps([part.representatives.tolist(), part.sizes.tolist(), part.class_of.tolist()])
    assert hashlib.sha256(text.encode()).hexdigest() == PARTITION_SHA256[name]


@pytest.mark.parametrize("name", _PRODUCTS)
def test_pair_table_matches_handle_products(name):
    # the oracle multiplies each pair componentwise, by the factors' handle products
    group = _fresh_group(name)
    group.ensure_table()
    assert np.array_equal(group._table, _handle_table(name, group))


def test_declared_generators_must_generate():
    s3 = catalog.symmetric3_group()
    # a transposition alone generates a subgroup of order 2
    partial = FiniteGroup(s3.elements, s3._op, generators=[2])  # (1, 0, 2)
    with pytest.raises(InvalidGroupError, match="do not generate"):
        partial.conjugacy_classes()
    with pytest.raises(InvalidGroupError, match="do not generate"):
        is_nilpotent(partial)
    # above the order that conjugacy_classes validates: SL2(F_3) x S3, with
    # only the first factor's generators declared
    prod = direct_product(_group("sl2f3"), s3)
    assert prod.order == 144
    gens = [prod.index_of(h) for h in [((1, 1, 0, 1), (0, 1, 2)), ((0, 1, 2, 0), (0, 1, 2))]]
    first = FiniteGroup(prod.elements, prod._op, generators=gens)
    with pytest.raises(InvalidGroupError, match="do not generate"):
        first.conjugacy_classes()
    every = FiniteGroup(prod.elements, prod._op, generators=range(prod.order))
    assert len(every.conjugacy_classes()) == 21


def test_generator_indices_build_no_handles(monkeypatch):
    group = catalog.gl2_group(31)  # 892,800 elements

    def no_handles(*args):
        raise AssertionError("built every element handle")

    monkeypatch.setattr(FiniteGroup, "elements", property(no_handles))
    monkeypatch.setattr(FiniteGroup, "index_of", no_handles)
    gens = group.generator_indices
    assert [group.element(i) for i in gens] == [(3, 0, 0, 1), (30, 1, 30, 0)]
    assert group._index is None


def test_generators_must_be_element_indices():
    gl2 = catalog.gl2_group(3)
    # out of range, negative, non-integer, and handles (a 2-D array of ints in range)
    for gens in ([48], [-1], [30.0, 40], [1.5], [(1, 1, 0, 1), (0, 1, 2, 0)], [[30, 40]]):
        with pytest.raises(InvalidGroupError, match="element ind"):
            FiniteGroup(gl2._elements, gl2._op, generators=gens)
    assert FiniteGroup(gl2._elements, gl2._op, generators=[30, 40]).generator_indices == (30, 40)


# each catalog group's generators, read back as handles
CATALOG_GENERATOR_HANDLES = {
    "cyclic:1": [0],
    "cyclic:6": [1],
    "q8": [(0, 1), (0, 2)],
    "s3": [(1, 0, 2), (1, 2, 0)],
    "d4": [(1, 0), (0, 1)],
    "sl2f3": [(1, 1, 0, 1), (0, 1, 2, 0)],
    "gl2fp:2": [(0, 1, 1, 0), (1, 1, 1, 0)],
    "gl2fp:3": [(2, 0, 0, 1), (2, 1, 2, 0)],
    "gl2fp:5": [(2, 0, 0, 1), (4, 1, 4, 0)],
    "gl2fp:7": [(3, 0, 0, 1), (6, 1, 6, 0)],
    "heisenberg:3": [(1, 0, 0), (0, 1, 0)],
}


@pytest.mark.parametrize("name", list(CATALOG_GENERATOR_HANDLES))
def test_catalog_generator_handles_pinned(name):
    g = _group(name)
    assert [g.element(i) for i in g.generator_indices] == CATALOG_GENERATOR_HANDLES[name]


def test_direct_product_generators_pair_each_factor_with_the_identity():
    q8, s3 = _group("q8"), _group("s3")
    prod = direct_product(q8, s3)
    e_q8, e_s3 = q8.element(q8.identity), s3.element(s3.identity)
    assert [prod.element(i) for i in prod.generator_indices] == [
        *((q8.element(i), e_s3) for i in q8.generator_indices),
        *((e_q8, s3.element(j)) for j in s3.generator_indices),
    ]


def test_class_labels_of_wrong_length_refused():
    c4 = FiniteGroup(range(4), lambda a, b: (a + b) % 4, class_labels=lambda g: [0, 1, 2])
    with pytest.raises(InvalidGroupError, match="class labels"):
        c4.conjugacy_classes()
    flat = FiniteGroup(range(4), lambda a, b: (a + b) % 4, class_labels=lambda g: [[0, 1], [2, 3]])
    with pytest.raises(InvalidGroupError, match="class labels"):
        flat.conjugacy_classes()


def test_orbit_labels_refuse_large_group_without_generators():
    n = groupcore.ORBIT_NO_GENERATORS_LIMIT + 1
    big = FiniteGroup(range(n), lambda a, b: (a + b) % n)
    with pytest.raises(OrderBoundExceededError, match="generating set"):
        big.conjugacy_classes()


def test_orbit_labels_hold_no_square_temporaries():
    c32 = catalog.cyclic_group(32)
    q = quotient_by(c32, range(32))
    group = fiber_product(c32, c32, q, q)  # order 1024, no generators
    tracemalloc.start()
    try:
        part = group.conjugacy_classes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = group.order
    assert len(part) == n
    # the int32 table is 4 n^2 bytes; even one n x n bool temporary adds n^2
    assert peak < group._table.nbytes + n * n * 3 // 4


def test_quotients_and_fiber_products():
    sl2 = _group("sl2f3")
    assert len(commutator_subgroup(sl2)) == 8
    q = abelianization(sl2)
    assert q.target.order == 3
    fib = fiber_product(sl2, sl2, q, q)
    assert fib.order == 24 * 24 // 3 == 192
    qa4 = quotient_by(sl2, sl2.center_indices())
    assert qa4.target.order == 12
    assert fiber_product(sl2, sl2, qa4, qa4).order == 48
    # trivial target: the full direct product
    qt = quotient_by(sl2, range(sl2.order))
    assert fiber_product(sl2, sl2, qt, qt).order == 576


def test_fiber_product_rejects_mismatched_targets():
    sl2 = _group("sl2f3")
    q1 = abelianization(sl2)
    q2 = abelianization(sl2)
    with pytest.raises(GroupMismatchError):
        fiber_product(sl2, sl2, q1, q2)  # equal but distinct target objects


def test_quotient_map_rejects_non_surjective():
    c6 = _group("cyclic:6")
    c3 = catalog.cyclic_group(3)
    with pytest.raises(InvalidGroupError):
        groupcore.QuotientMap(source=c6, target=c3, mapping=tuple([0] * 6))


@pytest.mark.parametrize("image", [5, -1, 1.5])
def test_quotient_map_refuses_images_outside_the_target(image):
    c6, c3 = catalog.cyclic_group(6), catalog.cyclic_group(3)
    with pytest.raises(InvalidGroupError, match=r"outside \[0, 3\)|integers"):
        groupcore.QuotientMap(source=c6, target=c3, mapping=[0, 1, image, 0, 1, image])


@pytest.mark.parametrize("index", [7, -3, 3.7])
def test_quotient_by_refuses_indices_outside_the_group(index):
    # these once wrapped or truncated: [0, -3] and [0, 3.7] were taken as [0, 3]
    with pytest.raises(InvalidGroupError, match=r"outside \[0, 6\)|integers"):
        quotient_by(catalog.cyclic_group(6), [0, index])


@pytest.mark.parametrize("index", [7, -2, 2.9])
def test_subgroup_closure_refuses_indices_outside_the_group(index):
    # these once wrapped or truncated: [-2] and [2.9] closed to [0, 2, 4]
    with pytest.raises(InvalidGroupError, match=r"outside \[0, 6\)|integers"):
        catalog.cyclic_group(6).subgroup_closure([index])


def test_matching_fraction_headline_values():
    sl2, chi = _sl2_integer_char()
    q = abelianization(sl2)
    fib = fiber_product(sl2, sl2, q, q)
    left = pullback(chi, fib, lambda pair: pair[0])
    right = pullback(chi, fib, lambda pair: pair[1])
    assert matching_fraction(left, right) == Fraction(17, 32)
    assert matching_fraction_bruteforce(left, right) == Fraction(17, 32)

    prod = direct_product(sl2, sl2)
    lp = pullback(chi, prod, lambda pair: pair[0])
    rp = pullback(chi, prod, lambda pair: pair[1])
    assert matching_fraction(lp, rp) == Fraction(83, 288)
    assert matching_fraction_bruteforce(lp, rp) == Fraction(83, 288)


def test_zero_fraction_examples():
    sl2, chi = _sl2_integer_char()
    assert zero_fraction(chi) == Fraction(1, 4)
    ones = ClassFunction(sl2, [1] * len(sl2.conjugacy_classes()))
    assert zero_fraction(ones) == 0
    assert matching_fraction(chi, chi) == 1


def test_matching_fraction_group_mismatch():
    sl2, chi = _sl2_integer_char()
    q8 = _group("q8")
    other = ClassFunction(q8, [1] * len(q8.conjugacy_classes()))
    with pytest.raises(GroupMismatchError):
        matching_fraction(chi, other)


_q8_values = st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_q8_values, _q8_values)
def test_matching_fraction_properties(vals_x, vals_y):
    q8 = _group("q8")
    x = ClassFunction(q8, vals_x)
    y = ClassFunction(q8, vals_y)
    mf = matching_fraction(x, y)
    assert matching_fraction(y, x) == mf
    assert 0 <= mf <= 1
    assert (mf == 1) == (all(a == b for a, b in zip(x.values, y.values)))
    assert mf >= zero_fraction(x) + zero_fraction(y) - 1
    assert mf == matching_fraction_bruteforce(x, y)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("cyclic:6", True),
        ("q8", True),
        ("d4", True),
        ("heisenberg:3", True),
        ("s3", False),
        ("sl2f3", False),
        ("gl2fp:2", False),
        ("gl2fp:3", False),
    ],
)
def test_is_nilpotent(name, expected):
    assert is_nilpotent(_group(name)) is expected


def test_nilpotency_of_products():
    assert is_nilpotent(direct_product(_group("q8"), _group("cyclic:6")))
    assert not is_nilpotent(direct_product(_group("q8"), _group("s3")))


def test_serialization_round_trip():
    sl2, chi = _sl2_integer_char()
    doc = cli.class_function_to_json(chi)
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert '"num"' in text and '"den"' in text
    back = class_function_from_json(sl2, doc)
    assert all(a == b for a, b in zip(back.values, chi.values))
    gdoc = cli.group_to_json(sl2)
    assert gdoc["order"] == 24 and len(gdoc["classes"]) == 7
    assert sum(c["size"] for c in gdoc["classes"]) == 24


def test_class_function_needs_full_coverage():
    q8 = _group("q8")
    with pytest.raises(ValueError):
        ClassFunction(q8, [1, 2, 3])


def test_pullback_along_quotient():
    sl2, _ = _sl2_integer_char()
    q = abelianization(sl2)
    c3 = q.target
    table = character_table_small(c3)
    nontrivial = next(cf for cf in table if not all(v == 1 for v in cf.values))
    lifted = pullback(
        nontrivial, sl2, lambda h: c3.element(q.mapping[sl2.index_of(h)])
    )
    # a lifted character is constant on cosets of the kernel
    assert zero_fraction(lifted) == 0
    assert matching_fraction(lifted, lifted) == 1


def test_cyc_value_round_trip_json():
    v = CycValue(12, {1: Fraction(1, 2), 7: Fraction(-2, 3)})
    doc = cli.cyc_value_to_json(v)
    assert cyc_value_from_json(doc) == v


def test_order_bound_is_checked_before_listing_elements():
    tracemalloc.start()
    try:
        with pytest.raises(OrderBoundExceededError, match="exceeds bound"):
            catalog.cyclic_group(groupcore.ORDER_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
