import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, gl2fp, groupcore, primes
from matchdens.gl2fp import (
    CENTRAL,
    CLASS_TYPES,
    NONSEMISIMPLE,
    NONSPLIT,
    REPEATED,
    SPLIT,
    GL2Element,
    class_type_counts,
    class_type_fractions,
    classify,
    eigenvalue_kind,
    enumerate_gl2,
    gl2_order,
    product_character,
    steinberg_character_data,
    steinberg_value_by_fixed_points,
    steinberg_value_of_matrix,
)


def test_element_validation():
    with pytest.raises(ValueError):
        GL2Element(5, 1, 2, 2, 4)  # determinant 0
    with pytest.raises(ValueError):
        GL2Element(6, 1, 0, 0, 1)  # composite p
    m = GL2Element(5, 6, -1, 0, 1)
    assert m.entries() == (1, 4, 0, 1)
    with pytest.raises(ValueError, match="not prime"):
        steinberg_character_data(501)  # 3 * 167


def test_prime_check_runs_once_per_p(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return primes.is_prime(n)

    monkeypatch.setattr(gl2fp, "is_prime", counting_is_prime)
    gl2fp._require_prime.cache_clear()
    assert len(list(enumerate_gl2(5))) == gl2_order(5)
    assert len(calls) <= 1
    # refusals are not cached: a composite p is tested and refused every time
    for _ in range(2):
        with pytest.raises(ValueError):
            GL2Element(6, 1, 0, 0, 1)
    assert calls.count(6) == 2


def test_classify_examples():
    assert classify(GL2Element(5, 1, 0, 0, 1)) == gl2fp.ClassType(CENTRAL, (1,))
    assert classify(GL2Element(5, 1, 1, 0, 1)) == gl2fp.ClassType(NONSEMISIMPLE, (1,))
    # [[0,-1],[1,0]] mod 7: discriminant -4 = 3, a non-square mod 7
    assert classify(GL2Element(7, 0, -1, 1, 0)).kind == NONSPLIT
    assert classify(GL2Element(7, 1, 0, 0, 2)) == gl2fp.ClassType(SPLIT, (1, 2))


@lru_cache(maxsize=None)
def _enumerated_classes(p):
    # the reference class data, built without class_type_counts: every matrix
    # classified, a class's size its matrix count, its value the fixed-point
    # count of one member less one; classes in CLASS_TYPES order
    assert p <= 17
    sizes: Counter = Counter()
    values = {}
    for m in enumerate_gl2(p):
        ct = classify(m)
        sizes[ct] += 1
        if ct not in values:
            values[ct] = steinberg_value_by_fixed_points(m)
    order = sorted(sizes, key=lambda ct: (CLASS_TYPES.index(ct.kind), ct.params))
    return tuple((ct, sizes[ct], values[ct]) for ct in order)


def _sizes_by_kind(classes):
    found: dict = {kind: [] for kind in CLASS_TYPES}
    for kind, size in classes:
        found[kind].append(size)
    return found


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_class_inventory_matches_enumeration(p):
    # the class inventory class_type_counts states, against every matrix classified
    counts = class_type_counts(p)
    assert tuple(counts) == CLASS_TYPES
    found = _sizes_by_kind((ct.kind, size) for ct, size, _ in _enumerated_classes(p))
    assert found == {kind: [size] * count for kind, (count, size) in counts.items()}
    assert sum(count for count, _ in counts.values()) == p * p - 1
    assert sum(size for _, size, _ in _enumerated_classes(p)) == gl2_order(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_type_cardinalities_closed_forms(p):
    by_kind = {kind: count * size for kind, (count, size) in class_type_counts(p).items()}
    assert by_kind == {
        CENTRAL: p - 1,
        NONSEMISIMPLE: (p - 1) * (p * p - 1),
        SPLIT: p * (p + 1) * (p - 1) * (p - 2) // 2,
        NONSPLIT: p * p * (p - 1) ** 2 // 2,
    }
    enumerated = Counter()
    for ct, size, _ in _enumerated_classes(p):
        enumerated[ct.kind] += size
    assert by_kind == enumerated
    assert sum(by_kind.values()) == gl2_order(p)


@pytest.mark.parametrize("p", primes.sieve_primes(31).tolist())
def test_class_type_counts_match_inventory(p):
    # the inventory here is the explicit group's conjugacy class partition
    group = catalog.gl2_group(p)
    part = group.conjugacy_classes()
    found = _sizes_by_kind(
        (classify(GL2Element(p, *group.element(rep))).kind, size)
        for rep, size in zip(part.representatives, part.sizes)
    )
    assert found == {kind: [size] * count for kind, (count, size) in class_type_counts(p).items()}
    assert sum(part.sizes) == group.order == gl2_order(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_steinberg_distribution_tallies_entries(p):
    data = steinberg_character_data(p)
    rows = product_character([data]).entries
    tally: Counter = Counter()
    for size, value in rows:
        tally[value] += size
    assert data.distribution == tuple(sorted(tally.items()))
    assert data.class_count == len(rows) == p * p - 1
    rng = random.Random(p)
    for _ in range(30):
        m = _random_element(p, rng)
        assert data.value_of(m) == steinberg_value_of_matrix(m) == steinberg_value_by_fixed_points(m)


def _random_element(p, rng):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return GL2Element(p, a, b, c, d)


def test_class_data_built_from_types_alone(monkeypatch):
    def no_rows(*args):
        raise AssertionError("built a class row")

    monkeypatch.setattr(gl2fp, "ClassType", no_rows)
    prod = product_character([steinberg_character_data(p) for p in (2, 3, 31)])
    assert prod.distribution == (
        (-93, 120), (-62, 540), (-31, 720), (-6, 864900), (-3, 1726080),
        (-2, 12956760), (-1, 25924680), (0, 174182400), (1, 25913520),
        (2, 12962340), (3, 1729800), (6, 863040), (31, 1080), (62, 360), (186, 60),
    )
    assert prod.zero_fraction() == Fraction(21, 31)
    assert len(prod.entries) == 3 * 8 * 960
    data = steinberg_character_data(503)
    assert data.class_count == 503 ** 2 - 1
    assert data.norm() == 1


def test_class_type_fractions_closed_forms():
    fr = class_type_fractions(11)
    assert fr == {
        CENTRAL: Fraction(1, 1320),
        NONSEMISIMPLE: Fraction(1, 11),
        SPLIT: Fraction(9, 20),
        NONSPLIT: Fraction(11, 24),
    }
    for p in (3, 5, 7, 11, 13, 31):
        assert sum(class_type_fractions(p).values()) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_steinberg_zero_fraction_and_norm(p):
    data = steinberg_character_data(p)
    assert data.zero_fraction() == Fraction(1, p)
    assert data.norm() == 1
    identity = GL2Element(p, 1, 0, 0, 1)
    assert data.value_of(identity) == p


@pytest.mark.parametrize("p", [5, 7])
def test_fixed_point_oracle_full_enumeration(p):
    for m in enumerate_gl2(p):
        assert steinberg_value_of_matrix(m) == steinberg_value_by_fixed_points(m)


def test_product_character_examples():
    st5 = steinberg_character_data(5)
    st7 = steinberg_character_data(7)
    single = product_character([st5])
    assert single.zero_fraction() == Fraction(1, 5)
    prod = product_character([st5, st7])
    assert prod.nonzero_fraction() == Fraction(24, 35)
    assert prod.zero_fraction() == Fraction(11, 35)
    triple = product_character([st5, st7, steinberg_character_data(11)])
    assert triple.nonzero_fraction() == Fraction(4, 5) * Fraction(6, 7) * Fraction(10, 11)
    with pytest.raises(ValueError):
        product_character([st5, steinberg_character_data(5)])
    with pytest.raises(ValueError):
        product_character([])


def _materialized_rows(primes):
    # the list comprehension product_character used to store, over each
    # prime's enumerated classes and their Steinberg values: the reference
    entries = [(1, 1)]
    for p in primes:
        entries = [
            (size * fsize, value * fvalue)
            for size, value in entries
            for _, fsize, fvalue in _enumerated_classes(p)
        ]
    return entries


@pytest.mark.parametrize("primes", [(5,), (5, 7), (2, 3, 5), (3, 5, 7), (2, 3, 7, 13)])
def test_product_rows_match_materialized(primes):
    rows = product_character([steinberg_character_data(p) for p in primes]).entries
    reference = _materialized_rows(primes)
    assert len(rows) == len(reference)
    assert list(rows) == reference
    assert [rows[i] for i in range(len(rows))] == reference


def test_product_rows_indexing_on_a_million_rows():
    primes = (2, 5, 7, 17)
    rows = product_character([steinberg_character_data(p) for p in primes]).entries
    reference = _materialized_rows(primes)
    n = len(reference)
    assert len(rows) == n == 3 * 24 * 48 * 288
    for i in random.Random(4).sample(range(n), 200):
        assert rows[i] == reference[i]
        assert rows[i - n] == reference[i]
    assert rows[-1] == reference[-1]
    assert rows[-n] == reference[0]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[bad]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=3, unique=True))
def test_product_distribution_tallies_the_rows(primes):
    prod = product_character([steinberg_character_data(p) for p in primes])
    assert sum(size for _, size in prod.distribution) == math.prod(gl2_order(p) for p in primes)
    tally: Counter = Counter()
    for size, value in _materialized_rows(primes):
        tally[value] += size
    assert tally[0] == sum(size for v, size in prod.distribution if v == 0)
    assert dict(prod.distribution) == dict(tally)
    assert len(prod.distribution) <= 2 ** (len(primes) + 1) + 1
    assert [v for v, _ in prod.distribution] == sorted(tally)


# sha256 of repr([(primes, distribution), ...]) over PRODUCT_SETS, taken while
# product_character rebuilt a factor's distribution per running value and
# checked inclusion-exclusion in Fractions
PRODUCT_SETS = (
    (2, 3, 5, 17), (2, 3, 7, 13), (2, 11, 23), (2, 13, 19), (3, 5, 29), (3, 5, 31),
    (3, 11, 13), (5, 7, 13), (13, 31), (17, 23), (19, 23),  # 150k..200k class rows
    (2, 3, 7, 29), (2, 5, 7, 17), (2, 19, 29), (3, 11, 31), (5, 7, 29), (7, 11, 13),
    (2, 3, 31),
)
PRODUCTS_SHA256 = "0cc8971229693b627356be49fe6c41c7ba412c54c632246559bc61995454e53d"


def test_product_distributions_pinned():
    rows = [
        (ps, product_character([steinberg_character_data(p) for p in ps]).distribution)
        for ps in PRODUCT_SETS
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PRODUCTS_SHA256


def test_product_reads_each_factor_distribution_once(monkeypatch):
    calls = []

    def counting_class_type_counts(p):
        calls.append(p)
        return class_type_counts(p)

    monkeypatch.setattr(gl2fp, "class_type_counts", counting_class_type_counts)
    primes = (2, 3, 7, 13)
    product_character([steinberg_character_data(p) for p in primes])
    assert len(calls) <= len(primes)


# sha256 of repr([list(rows) for each of ROW_SETS]), and of the rows of
# (2, 5, 7, 17) at ROW_INDICES, taken while rows were read from a listing of
# every class
ROW_SETS = ((5,), (2, 3, 5), (3, 5, 7), (2, 3, 7, 13), (31,), (2, 31))
ROWS_SHA256 = "17cf105cb07893d30950a9d57b68642630580265b9c9549af49df4be23935b88"
ROW_INDICES = random.Random(21).sample(range(3 * 24 * 48 * 288), 2000)
INDEXED_ROWS_SHA256 = "6e92c4eeff07ee00e338bf726ab26b5250f170eba351da34dd97494491bb73f9"


def test_product_rows_pinned():
    rows = [list(product_character([steinberg_character_data(p) for p in ps]).entries) for ps in ROW_SETS]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROWS_SHA256
    big = product_character([steinberg_character_data(p) for p in (2, 5, 7, 17)]).entries
    indexed = [big[i] for i in ROW_INDICES]
    assert hashlib.sha256(repr(indexed).encode()).hexdigest() == INDEXED_ROWS_SHA256


def test_product_rows_read_class_counts_once_per_factor(monkeypatch):
    primes = (2, 5, 7, 17)
    prod = product_character([steinberg_character_data(p) for p in primes])
    calls = []

    def counting_class_type_counts(p):
        calls.append(p)
        return class_type_counts(p)

    monkeypatch.setattr(gl2fp, "class_type_counts", counting_class_type_counts)
    rows = prod.entries
    assert sorted(calls) == sorted(primes)
    calls.clear()
    assert len(rows) == 3 * 24 * 48 * 288
    for i in range(-len(rows), len(rows), 9973):
        rows[i]
    assert calls == []


def test_product_zero_fraction_vs_explicit_group():
    # element-level cross-check on the explicit GL2(F3) x GL2(F5) group
    g3 = catalog.gl2_group(3)
    g5 = catalog.gl2_group(5)
    st3 = steinberg_character_data(3)
    st5 = steinberg_character_data(5)
    prod = groupcore.direct_product(g3, g5)

    def value(pair):
        v3 = steinberg_value_of_matrix(GL2Element(3, *pair[0]))
        v5 = steinberg_value_of_matrix(GL2Element(5, *pair[1]))
        return v3 * v5

    cf = groupcore.ClassFunction.from_handle_function(prod, value)
    assert groupcore.zero_fraction(cf) == product_character([st3, st5]).zero_fraction()


def test_class_function_value_lookup():
    st5 = steinberg_character_data(5)
    for m in (GL2Element(5, 2, 0, 0, 2), GL2Element(5, 1, 1, 0, 1), GL2Element(5, 0, 4, 1, 0)):
        v = st5.value_of(m)
        assert v == steinberg_value_by_fixed_points(m)
    other = GL2Element(7, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        st5.value_of(other)
    # per-matrix values hold for any prime, here far past enumeration's reach
    for m in (GL2Element(503, 2, 0, 0, 2), GL2Element(503, 1, 1, 0, 1), GL2Element(503, 0, 502, 1, 0)):
        assert steinberg_value_of_matrix(m) == steinberg_value_by_fixed_points(m)


def test_enumeration_bound():
    with pytest.raises(ValueError):
        list(enumerate_gl2(37))


def _classify_partition(group, p):
    # the per-element bucketing gl2_group used before its numpy pass: the reference
    buckets: dict = {}
    for i, m in enumerate(group.elements):
        buckets.setdefault(classify(GL2Element(p, *m)), []).append(i)
    classes = sorted((tuple(v) for v in buckets.values()), key=lambda c: c[0])
    class_of = [0] * group.order
    for ci, members in enumerate(classes):
        for m in members:
            class_of[m] = ci
    return groupcore.ConjClassPartition(
        representatives=np.array([c[0] for c in classes]),
        sizes=np.array([len(c) for c in classes]),
        class_of=np.array(class_of),
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gl2_partition_matches_classify(p):
    group = catalog.gl2_group(p)
    part = group.conjugacy_classes()
    reference = _classify_partition(group, p)
    assert np.array_equal(part.representatives, reference.representatives)
    assert np.array_equal(part.sizes, reference.sizes)
    assert np.array_equal(part.class_of, reference.class_of)
    counts = class_type_counts(p).values()
    assert sorted(part.sizes) == sorted(size for count, size in counts for _ in range(count))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_eigenvalue_kind_matches_root_counts(p):
    # x^2 - t x + d has 0, 1 or 2 roots in F_p: non-split, repeated or split
    kinds = {0: NONSPLIT, 1: REPEATED, 2: SPLIT}
    for t in range(p):
        for d in range(1, p):
            roots = sum((x * x - t * x + d) % p == 0 for x in range(p))
            assert eigenvalue_kind(t * t - 4 * d, p) == kinds[roots]
