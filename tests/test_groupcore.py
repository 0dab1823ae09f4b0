import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, groupcore
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
    matching_fraction_bruteforce,
    pullback,
    quotient_by,
    zero_fraction,
)


@lru_cache(maxsize=None)
def _group(name):
    return catalog.named_group(name)


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
        for members in part.classes:
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
    broken = FiniteGroup(range(6), lambda a, b: min(a + b, 5))
    with pytest.raises(InvalidGroupError):
        broken.conjugacy_classes()
    # a Latin square with identity 0 in which every element is its own inverse:
    # a loop, but not associative: 1*(1*2) = 4 while (1*1)*2 = 2
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    nonassociative = FiniteGroup(range(5), lambda a, b: loop[a][b])
    with pytest.raises(InvalidGroupError, match="associativity"):
        nonassociative.validate()


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
    generic = FiniteGroup(prod.elements, prod._op, inverse=None)
    assert prod.conjugacy_classes().classes == generic.conjugacy_classes().classes


def _fresh_group(name):
    """A newly built group, so no table or classes are cached on it yet."""
    if name.startswith(("sl2/", "fiber/")):
        sl2 = catalog.sl2f3_group()
        target = name.split("/")[1]
        if target == "c3":
            q = abelianization(sl2)
        elif target == "a4":
            q = quotient_by(sl2, sl2.center_indices())
        else:
            q = quotient_by(sl2, range(sl2.order))
        return q.target if name.startswith("sl2/") else fiber_product(sl2, sl2, q, q)
    if " x " in name:
        left, right = name.split(" x ")
        return direct_product(catalog.named_group(left), catalog.named_group(right))
    return catalog.named_group(name)


def _handle_table(group):
    """The multiplication table built from handle products alone."""
    els, op = group.elements, group._op
    index = {e: k for k, e in enumerate(els)}
    return np.array([[index[op(a, b)] for b in els] for a in els])


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
    least, classes = _brute_force_classes(group, _handle_table(group))
    assert group._orbit_labels().tolist() == least  # by products, or on a table
    group.ensure_table()
    assert group._orbit_labels().tolist() == least  # on the table
    part = group.conjugacy_classes()  # through the group's class_labels hook, if any
    assert part.classes == classes
    assert part.representatives == tuple(c[0] for c in classes)
    assert part.sizes == tuple(len(c) for c in classes)
    position = {c[0]: k for k, c in enumerate(classes)}
    assert part.class_of == tuple(position[label] for label in least)


@pytest.mark.parametrize("name", _PRODUCTS)
def test_pair_table_matches_handle_products(name):
    group = _fresh_group(name)
    group.ensure_table()
    assert np.array_equal(group._table, _handle_table(group))


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
    doc = groupcore.class_function_to_json(chi)
    text = groupcore.dumps(doc)
    assert '"num"' in text and '"den"' in text
    back = groupcore.class_function_from_json(sl2, doc)
    assert all(a == b for a, b in zip(back.values, chi.values))
    gdoc = groupcore.group_to_json(sl2)
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
    doc = groupcore.cyc_value_to_json(v)
    assert groupcore.cyc_value_from_json(doc) == v
