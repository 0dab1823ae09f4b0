import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matchdens import catalog, gl2fp, groupcore, primes
from matchdens.gl2fp import (
    CENTRAL,
    NONSEMISIMPLE,
    NONSPLIT,
    SPLIT,
    GL2Element,
    class_inventory,
    class_type_fractions,
    classify,
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_class_inventory_matches_enumeration(p):
    counted: dict = {}
    total = 0
    for m in enumerate_gl2(p):
        counted[classify(m)] = counted.get(classify(m), 0) + 1
        total += 1
    assert total == gl2_order(p)
    inventory = dict(class_inventory(p))
    assert counted == inventory


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_type_cardinalities_closed_forms(p):
    by_kind = {CENTRAL: 0, NONSEMISIMPLE: 0, SPLIT: 0, NONSPLIT: 0}
    for ct, size in class_inventory(p):
        by_kind[ct.kind] += size
    assert by_kind[CENTRAL] == p - 1
    assert by_kind[NONSEMISIMPLE] == (p - 1) * (p * p - 1)
    assert by_kind[SPLIT] == p * (p + 1) * (p - 1) * (p - 2) // 2
    assert by_kind[NONSPLIT] == p * p * (p - 1) ** 2 // 2


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


def _materialized_rows(factors):
    # the list comprehension product_character used to store: the reference
    entries = [(1, 1)]
    for f in factors:
        entries = [
            (size * fsize, value * fvalue)
            for size, value in entries
            for _, fsize, fvalue in f.entries
        ]
    return entries


@pytest.mark.parametrize("primes", [(5,), (5, 7), (2, 3, 5), (3, 5, 7), (2, 3, 7, 13)])
def test_product_rows_match_materialized(primes):
    factors = [steinberg_character_data(p) for p in primes]
    rows = product_character(factors).entries
    reference = _materialized_rows(factors)
    assert len(rows) == len(reference)
    assert list(rows) == reference
    assert [rows[i] for i in range(len(rows))] == reference


def test_product_rows_indexing_on_a_million_rows():
    factors = [steinberg_character_data(p) for p in (2, 5, 7, 17)]
    rows = product_character(factors).entries
    reference = _materialized_rows(factors)
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
    for size, value in prod.entries:
        tally[value] += size
    assert tally[0] == sum(size for v, size in prod.distribution if v == 0)
    assert dict(prod.distribution) == dict(tally)
    assert len(prod.distribution) <= 2 ** (len(primes) + 1) + 1
    assert [v for v, _ in prod.distribution] == sorted(tally)


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
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        sizes=tuple(len(c) for c in classes),
        class_of=tuple(class_of),
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gl2_partition_matches_classify(p):
    group = catalog.gl2_group(p)
    part = group.conjugacy_classes()
    reference = _classify_partition(group, p)
    assert part.classes == reference.classes
    assert part.representatives == reference.representatives
    assert part.sizes == reference.sizes
    assert part.class_of == reference.class_of
    assert sorted(part.sizes) == sorted(size for _, size in class_inventory(p))


def test_class_data_bound(monkeypatch):
    bound = gl2fp.CLASS_DATA_MAX_P
    assert len(class_inventory(bound)) == bound * bound - 1
    next_prime = next(q for q in range(bound + 1, 2 * bound) if gl2fp.is_prime(q))

    def no_rows(*args):
        raise AssertionError("built a class row past the bound")

    monkeypatch.setattr(gl2fp, "ClassType", no_rows)
    with pytest.raises(ValueError, match="bounded"):
        class_inventory(next_prime)
    with pytest.raises(ValueError, match="bounded"):
        steinberg_character_data(next_prime)
