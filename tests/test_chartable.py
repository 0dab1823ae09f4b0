import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, chartable, cli, groupcore
from matchdens.chartable import (
    CharacterTableError,
    _charpoly_hessenberg,
    _rref,
    _split_spaces,
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
def test_rref_over_f_l(case):
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


def _inverse_by_cofactors(m, l):
    """The inverse mod l from the adjugate and the determinant by permutations:
    an oracle that shares nothing with row reduction."""
    d = len(m)
    det = _det_mod(m, l)
    assert det, "singular"

    def minor(i, j):
        return [[m[a][b] for b in range(d) if b != j] for a in range(d) if a != i]

    adj = [[(-1) ** (i + j) * _det_mod(minor(j, i), l) for j in range(d)] for i in range(d)]
    return np.array(adj, dtype=np.int64) * pow(det, -1, l) % l


@st.composite
def _diagonalizable_mod(draw):
    """A prime l, a matrix P D P^-1 over F_l with P invertible, and the
    diagonal of D, drawn from at most three values so that repeated
    eigenvalues are common."""
    l = draw(st.sampled_from([7, 241]))
    d = draw(st.integers(min_value=1, max_value=5))
    residue = st.integers(min_value=0, max_value=l - 1)
    pool = draw(st.lists(residue, min_size=1, max_size=3, unique=True))
    diag = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
    # P = L U: L unit lower triangular, U upper triangular with a unit diagonal
    lower = np.eye(d, dtype=np.int64)
    upper = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        lower[i, :i] = draw(st.lists(residue, min_size=i, max_size=i))
        upper[i, i] = draw(st.integers(min_value=1, max_value=l - 1))
        upper[i, i + 1:] = draw(st.lists(residue, min_size=d - i - 1, max_size=d - i - 1))
    p = lower @ upper % l
    m = p @ np.diag(diag) % l @ _inverse_by_cofactors(p.tolist(), l) % l
    return l, m, diag


@settings(max_examples=150, deadline=None)
@given(_diagonalizable_mod())
def test_split_spaces_gives_the_eigenspaces(case):
    l, m, diag = case
    d = len(diag)
    spaces = _split_spaces([(np.eye(d, dtype=np.int64), list(range(d)))], m, l)
    eigenvalues = []
    for rows, pivots in spaces:
        # reduced echelon form, as _rref gives it
        assert rows.dtype == np.int64 and rows.shape == (len(pivots), d) and len(pivots)
        assert pivots == sorted(set(pivots))
        assert ((rows >= 0) & (rows < l)).all()
        for i, pc in enumerate(pivots):
            assert rows[i, pc] == 1 and not rows[i, :pc].any()
            assert np.count_nonzero(rows[:, pc]) == 1
        # every row is killed by m - lambda I, for one eigenvalue lambda of D
        (lam,) = [v for v in set(diag) if not ((m - v * np.eye(d, dtype=np.int64)) @ rows.T % l).any()]
        eigenvalues.append(lam)
        assert len(rows) == diag.count(lam)
    # one space per distinct eigenvalue, in ascending order, dimensions
    # summing to d and the spaces together of rank d
    assert eigenvalues == sorted(set(diag))
    assert sum(len(rows) for rows, _ in spaces) == d
    assert _rank_by_minors(np.concatenate([rows for rows, _ in spaces]).tolist(), l) == d


@st.composite
def _square_mod(draw):
    l = draw(st.sampled_from([7, 241]))
    d = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=0, max_value=l - 1) | st.just(0)
    return l, draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))


@settings(max_examples=100, deadline=None)
@given(_square_mod())
def test_charpoly_matches_determinants(case):
    # two monic polynomials of degree d that agree at d points are equal
    l, m = case
    d = len(m)
    poly = _charpoly_hessenberg(np.array(m, dtype=np.int64), l)
    assert poly.dtype == np.int64 and len(poly) == d + 1 and poly[d] == 1
    for x in range(d):
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(d)] for i in range(d)]
        assert sum(int(c) * x**k for k, c in enumerate(poly)) % l == _det_mod(shifted, l)


@pytest.mark.parametrize(
    "m", [[[1, 1], [0, 1]], [[0, 6], [1, 0]]], ids=["jordan-block", "no-root-mod-7"]
)
def test_split_spaces_refuses_what_is_not_diagonalizable_over_f_l(m):
    with pytest.raises(CharacterTableError, match="not diagonalizable"):
        _split_spaces([(np.eye(2, dtype=np.int64), [0, 1])], np.array(m, dtype=np.int64), 7)


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
    kstar = part.class_of[[group.inv(z) for z in reps]]
    got = _structure_constants(part.class_of, kstar, perms)
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
    # a deterministic guard on the work: calls into the group's product.  The
    # 24 class representatives' 24 x 480 products fit one block of
    # BLOCK_ENTRIES, and the inverses close the representatives' cycles of
    # powers, so the table multiplies once.  Per-representative calls would
    # take 24, an inverse ladder about 20, per-element products 480 or more.
    group = catalog.named_group("gl2fp:5")
    assert 24 * group.order <= groupcore.BLOCK_ENTRIES
    calls = 0
    op = group._op

    def counting(i, j):
        nonlocal calls
        calls += 1
        return op(i, j)

    group._op = counting
    character_table_small(group)
    assert calls == 1, calls


def _counting(monkeypatch, name):
    """Count the calls of a chartable function from here on."""
    counts = {"calls": 0}
    inner = getattr(chartable, name)

    def counted(*args):
        counts["calls"] += 1
        return inner(*args)

    monkeypatch.setattr(chartable, name, counted)
    return counts


# characteristic polynomials each table takes with the seeded combinations
CHARPOLY_CALLS = {
    "trivial": 0, "q8": 2, "s3": 2, "d4": 2, "sl2f3": 2, "heisenberg:3": 4, "gl2fp:2": 2,
    "gl2fp:3": 1, "cyclic:1": 0, "cyclic:2": 1, "cyclic:6": 4, "cyclic:12": 5, "cyclic:30": 9,
    "gl2fp:5": 3,
}


@pytest.mark.parametrize("name", [*SMALL_GROUPS, "gl2fp:5"])
def test_seeded_combinations_separate_the_characters(monkeypatch, name):
    # a deterministic guard on the work: the table separates within the
    # seeded combinations, before any class-sum matrix of the tail
    splits = _counting(monkeypatch, "_split_spaces")
    charpolys = _counting(monkeypatch, "_charpoly_hessenberg")
    table = character_table_small(catalog.named_group(name))
    assert splits["calls"] <= chartable.SPLIT_ROUNDS
    assert charpolys["calls"] <= CHARPOLY_CALLS[name] < len(table)


@pytest.mark.parametrize("name", ["gl2fp:5", "sl2f3", "s4"])
def test_class_sum_tail_separates_what_the_combinations_leave(monkeypatch, name):
    group = _symmetric4_without_generators() if name == "s4" else catalog.named_group(name)
    want = character_table_small(_symmetric4_without_generators()) if name == "s4" else _table(name)[1]
    part = group.conjugacy_classes()
    r = len(part)
    scalar = np.zeros(r, dtype=np.int64)
    scalar[part.class_of[group.identity]] = 5  # 5 times the identity matrix
    # the sum of all class sums is |G| on the trivial character and 0 on
    # every other: one eigenvalue shared by r - 1 characters
    colliding = np.ones(r, dtype=np.int64)
    monkeypatch.setattr(chartable, "_split_coefficients", lambda r, l: np.array([scalar, colliding]))
    splits = _counting(monkeypatch, "_split_spaces")
    table = character_table_small(group)
    assert splits["calls"] > 2  # the class-sum matrices came into play
    assert [cf.values for cf in table] == [cf.values for cf in want]
    assert [int(cf.degree().as_rational()) for cf in table] == [int(cf.degree().as_rational()) for cf in want]


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
