import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, groupcore
from matchdens.chartable import (
    CharacterTableError,
    character_table_small,
    integer_valued_two_dimensional,
)
from matchdens.cyclotomic import CycValue


@lru_cache(maxsize=None)
def _table(name):
    return catalog.named_group(name), character_table_small(catalog.named_group(name))


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("trivial", [1]),
        ("cyclic:6", [1, 1, 1, 1, 1, 1]),
        ("s3", [1, 1, 2]),
        ("q8", [1, 1, 1, 1, 2]),
        ("d4", [1, 1, 1, 1, 2]),
        ("sl2f3", [1, 1, 1, 2, 2, 2, 3]),
        ("heisenberg:3", [1] * 9 + [3, 3]),
        ("gl2fp:3", [1, 1, 2, 2, 2, 3, 3, 4]),
        ("gl2fp:5", [1] * 4 + [4] * 10 + [5] * 4 + [6] * 6),
    ],
)
def test_degrees(name, degrees):
    group, table = _table(name)
    assert [int(cf.degree().as_rational()) for cf in table] == degrees
    assert sum(d * d for d in degrees) == group.order


@pytest.mark.parametrize("name", ["s3", "q8", "sl2f3", "heisenberg:3", "gl2fp:3", "gl2fp:5"])
def test_exact_orthogonality(name):
    # an independent reference for groupcore.inner_product: plain CycValue arithmetic
    group, table = _table(name)
    part = group.conjugacy_classes()
    for a in range(len(table)):
        for b in range(a, len(table)):
            acc = CycValue.zero()
            for size, va, vb in zip(part.sizes, table[a].values, table[b].values):
                acc = acc + size * (va * vb.conjugate())
            expected = group.order if a == b else 0
            assert acc.as_rational() == expected, (name, a, b)


# sha256 over groupcore.dumps(class_function_to_json(cf)) + "\n" for every
# character of these groups, in table order: pins the exact values of every
# table and the order of its characters
PINNED_TABLES = ["q8", "s3", "d4", "sl2f3", "heisenberg:3", "gl2fp:3", "gl2fp:5"]
PINNED_SHA256 = "46a73196bf74d16413ef5a4e2ce45f17982ed29d4c2ba84c6f425d290ee3c37c"


def test_tables_pinned_output():
    digest = hashlib.sha256()
    for name in PINNED_TABLES:
        for cf in _table(name)[1]:
            digest.update(groupcore.dumps(groupcore.class_function_to_json(cf)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == PINNED_SHA256


def _class_function_values(classes):
    value = st.sampled_from([1, 2, 3, 4, 6, 8, 12]).flatmap(
        lambda e: st.dictionaries(
            st.integers(min_value=0, max_value=e - 1),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            max_size=3,
        ).map(lambda d: CycValue(e, d))
    )
    return st.lists(value, min_size=classes, max_size=classes)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inner_product_matches_naive_sum(data):
    group = catalog.named_group(data.draw(st.sampled_from(["s3", "q8", "sl2f3"])))
    part = group.conjugacy_classes()
    x = groupcore.ClassFunction(group, data.draw(_class_function_values(len(part))))
    y = groupcore.ClassFunction(group, data.draw(_class_function_values(len(part))))
    naive = CycValue.zero()
    for size, vx, vy in zip(part.sizes, x.values, y.values):
        naive = naive + size * (vx * vy.conjugate())
    assert groupcore.inner_product(x, y) == naive * Fraction(1, group.order)


def test_q8_two_dimensional_character_vanishing():
    group, table = _table("q8")
    two = [cf for cf in table if cf.degree() == 2]
    assert len(two) == 1
    assert groupcore.zero_fraction(two[0]) == Fraction(6, 8)
    # values are 2, -2 on the center and 0 elsewhere
    values = sorted(v.as_rational() for v in two[0].values)
    assert values == [-2, 0, 0, 0, 2]


def test_binary_tetrahedral_has_unique_integer_two_dimensional():
    _, table = _table("sl2f3")
    chi = integer_valued_two_dimensional(table)
    assert chi.degree() == 2
    two_dims = [cf for cf in table if cf.degree() == 2]
    assert len(two_dims) == 3
    integer_valued = [
        cf
        for cf in two_dims
        if all(v.is_rational() and v.as_rational().denominator == 1 for v in cf.values)
    ]
    assert len(integer_valued) == 1


def test_table_deterministic():
    g1 = catalog.named_group("sl2f3")
    g2 = catalog.named_group("sl2f3")
    t1 = character_table_small(g1)
    t2 = character_table_small(g2)
    for a, b in zip(t1, t2):
        assert all(x == y for x, y in zip(a.values, b.values))


def test_gl2f5_table_contains_the_steinberg_character():
    group = catalog.named_group("gl2fp:5")
    table = character_table_small(group)
    assert sum(int(cf.degree().as_rational()) ** 2 for cf in table) == 480
    five = [cf for cf in table if cf.degree() == 5]
    steinberg_like = [cf for cf in five if groupcore.zero_fraction(cf) == Fraction(1, 5)]
    assert steinberg_like, "no degree-5 character vanishing on exactly 1/5 of GL2(F5)"


def test_bounds_enforced():
    with pytest.raises(CharacterTableError):
        character_table_small(catalog.cyclic_group(31))  # 31 classes
    with pytest.raises(CharacterTableError):
        character_table_small(catalog.gl2_group(7))  # order 2016


def test_nilpotent_nonlinear_characters_vanish_on_half():
    corpus = [
        catalog.named_group("q8"),
        catalog.named_group("d4"),
        catalog.named_group("heisenberg:3"),
        groupcore.direct_product(catalog.named_group("q8"), catalog.cyclic_group(2)),
        groupcore.direct_product(catalog.named_group("d4"), catalog.cyclic_group(3)),
        groupcore.direct_product(catalog.named_group("heisenberg:3"), catalog.cyclic_group(2)),
        groupcore.direct_product(catalog.named_group("q8"), catalog.named_group("d4")),
    ]
    checked = 0
    for group in corpus:
        assert group.order <= 200
        assert groupcore.is_nilpotent(group)
        for cf in character_table_small(group):
            if cf.degree() == 1:
                continue
            checked += 1
            assert groupcore.zero_fraction(cf) >= Fraction(1, 2), group.name
    assert checked >= 6


def test_linear_characters_of_abelian_groups():
    group, table = _table("cyclic:6")
    assert all(cf.degree() == 1 for cf in table)
    # distinct characters stay distinct
    keys = [tuple(v.sort_key(6) for v in cf.values) for cf in table]
    assert len(set(keys)) == 6
