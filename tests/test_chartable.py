import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, cli, groupcore
from matchdens.chartable import (
    CharacterTableError,
    _nullspace,
    _rref,
    _structure_constants,
    _verify_table,
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
            for size, va, vb in zip(part.sizes.tolist(), table[a].values, table[b].values):
                acc = acc + size * (va * vb.conjugate())
            expected = group.order if a == b else 0
            assert acc.as_rational() == expected, (name, a, b)


# sha256 over the indented, key-sorted JSON of cli.class_function_to_json(cf) + "\n" for every
# character of these groups, in table order: pins the exact values of every
# table and the order of its characters
PINNED_TABLES = ["q8", "s3", "d4", "sl2f3", "heisenberg:3", "gl2fp:3", "gl2fp:5"]
PINNED_SHA256 = "46a73196bf74d16413ef5a4e2ce45f17982ed29d4c2ba84c6f425d290ee3c37c"


def test_tables_pinned_output():
    digest = hashlib.sha256()
    for name in PINNED_TABLES:
        for cf in _table(name)[1]:
            digest.update(json.dumps(cli.class_function_to_json(cf), indent=2, sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == PINNED_SHA256


def _det_mod(m, l):
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total % l


def _rank_by_minors(m, l):
    """The largest k with a non-zero k x k minor mod l: a rank oracle that
    shares nothing with row reduction."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(m, k):
            for cols in combinations(range(len(m[0])), k):
                if _det_mod([[row[c] for c in cols] for row in rows], l):
                    return k
    return 0


@st.composite
def _matrices_mod(draw):
    """A prime l and a matrix over F_l whose later rows may be combinations of
    its first ones, so that rank deficiency is common."""
    l = draw(st.sampled_from([7, 241]))
    cols = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=0, max_value=l - 1) | st.just(0)
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=4))
    extra = draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)), max_size=2))
    combos = [[sum(c * row[j] for c, row in zip(cs, base)) % l for j in range(cols)] for cs in extra]
    return l, draw(st.permutations(base + combos))


@settings(max_examples=150, deadline=None)
@given(_matrices_mod())
def test_rref_and_nullspace_over_f_l(case):
    l, m = case
    a = np.array(m, dtype=np.int64) % l
    rows, pivots = _rref(m, l)
    cols = len(m[0])
    # reduced echelon form: ascending pivots, each a 1 alone in its column,
    # nothing before a row's pivot
    assert pivots == sorted(set(pivots))
    assert rows.dtype == np.int64 and rows.shape == (len(pivots), cols)
    assert ((rows >= 0) & (rows < l)).all()
    for i, pc in enumerate(pivots):
        assert rows[i, pc] == 1 and not rows[i, :pc].any()
        assert np.count_nonzero(rows[:, pc]) == 1
    # the same row space: the same rank, and every input row is the
    # combination of the output rows given by its entries at the pivots
    assert len(rows) == _rank_by_minors(m, l)
    assert not ((a[:, pivots] @ rows - a) % l).any()
    again, again_pivots = _rref(rows, l)
    assert again_pivots == pivots and np.array_equal(again, rows)
    # the kernel: cols - rank independent vectors, each killed by m
    kernel = _nullspace(m, l)
    assert kernel.dtype == np.int64 and kernel.shape == (cols - len(rows), cols)
    if len(kernel):
        assert _rank_by_minors(kernel.tolist(), l) == len(kernel)
    assert not (a @ kernel.T % l).any()


def _symmetric4_without_generators():
    # tabulated once from the composition of permutation handles
    perms = list(permutations(range(4)))
    index = {x: k for k, x in enumerate(perms)}
    table = np.array([[index[tuple(x[y[i]] for i in range(4))] for y in perms] for x in perms])
    return groupcore.FiniteGroup(perms, lambda i, j: table[i, j], name="s4")


SMALL_GROUPS = [
    "trivial", "q8", "s3", "d4", "sl2f3", "heisenberg:3", "gl2fp:2", "gl2fp:3",
    *(f"cyclic:{n}" for n in (1, 2, 6, 12, 30)),
]


@pytest.mark.parametrize("name", [*SMALL_GROUPS, "s4"])
def test_structure_constants_equal_a_brute_force_count(name):
    group = _symmetric4_without_generators() if name == "s4" else catalog.named_group(name)
    assert group.order <= 200
    part = group.conjugacy_classes()
    r, reps = len(part), part.representatives
    perms = [np.array([group.mul(x, z) for x in range(group.order)]) for z in reps]
    inv_of = np.array([group.inv(x) for x in range(group.order)])
    got = _structure_constants(part.class_of, inv_of, perms)
    want = np.zeros((r, r, r), dtype=np.int64)
    for k, z in enumerate(reps):
        for x in range(group.order):
            want[part.class_of[x], part.class_of[group.mul(group.inv(x), z)], k] += 1
    assert np.array_equal(got, want)


def test_table_of_a_group_without_generators():
    group = _symmetric4_without_generators()
    assert group.generator_indices is None
    table = character_table_small(group)
    assert [int(cf.degree().as_rational()) for cf in table] == [1, 1, 2, 3, 3]


def test_undeclared_generators_are_refused():
    s3 = catalog.symmetric3_group()
    # a transposition alone generates a subgroup of order 2
    partial = groupcore.FiniteGroup(s3.elements, s3._op, generators=[2])  # (1, 0, 2)
    with pytest.raises(groupcore.InvalidGroupError, match="do not generate"):
        character_table_small(partial)


def _power_basis_coordinates(group, table):
    """Per class: the values' conductor, and every character's value there as
    integer power-basis coordinates."""
    conductors, coords = [], []
    for k in range(len(group.conjugacy_classes())):
        (n,) = {cf.values[k].conductor for cf in table}
        conductors.append(n)
        rows = [cf.values[k].embed(n).canonical() for cf in table]
        assert all(c.denominator == 1 for row in rows for c in row)  # algebraic integers
        coords.append(np.array([[int(c) for c in row] for row in rows]))
    return conductors, coords


@pytest.mark.parametrize("form", ["coordinates", "padded"])
def test_gram_check_rejects_broken_tables(form):
    group, table = _table("gl2fp:3")
    sizes = group.conjugacy_classes().sizes.tolist()
    degrees = [int(cf.degree().as_rational()) for cf in table]
    conductors, coeffs = _power_basis_coordinates(group, table)
    if form == "padded":  # the same values, one coefficient per n-th root of unity
        coeffs = [np.pad(c, ((0, 0), (0, n - c.shape[1]))) for n, c in zip(conductors, coeffs)]
    exponent = lcm(*conductors)

    def check(sizes=sizes, degrees=degrees, coeffs=coeffs):
        _verify_table(group.order, sizes, degrees, conductors, coeffs, exponent)

    check()
    for k, c in enumerate(coeffs):
        bumped = list(coeffs)
        bumped[k] = c.copy()
        bumped[k][len(table) - 1, c.shape[1] - 1] += 1
        with pytest.raises(CharacterTableError, match="orthogonality fails"):
            check(coeffs=bumped)
        resized = list(sizes)
        resized[k] += 1
        with pytest.raises(CharacterTableError, match="orthogonality fails"):
            check(sizes=resized)
    # a sum that int64 could not hold is refused before any product
    with pytest.raises(CharacterTableError, match="int64"):
        check(sizes=[2**60] * len(sizes))
    with pytest.raises(CharacterTableError, match="sum"):
        check(degrees=[2] + degrees[1:])


def test_gl2f5_table_multiplies_few_elements():
    # a deterministic guard on the work: calls into the group's product, each
    # over every element at once: one per class representative and about
    # 2 log2 |G| for the inverses.  Per-element products take 480 or more.
    group = catalog.named_group("gl2fp:5")
    calls = 0
    op = group._op

    def counting(i, j):
        nonlocal calls
        calls += 1
        return op(i, j)

    group._op = counting
    character_table_small(group)
    assert 0 < calls <= 60, calls


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
    for size, vx, vy in zip(part.sizes.tolist(), x.values, y.values):
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
    keys = [tuple(v.embed(6).canonical() for v in cf.values) for cf in table]
    assert len(set(keys)) == 6
