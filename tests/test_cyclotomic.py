from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matchdens.cyclotomic import CycValue, cyclotomic_polynomial, power_basis_matrix


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _phi(n):
    out = sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@pytest.mark.parametrize("n", list(range(1, 40)))
def test_cyclotomic_degree_is_phi(n):
    assert len(cyclotomic_polynomial(n)) - 1 == _phi(n)


def test_root_relations():
    z4 = CycValue.root_of_unity(4)
    assert z4 * z4 == -1
    z6 = CycValue.root_of_unity(6)
    assert z6 * z6 == z6 - 1
    # full sum of roots vanishes
    for e in (2, 3, 5, 6, 8, 12):
        total = CycValue.zero()
        for j in range(e):
            total = total + CycValue.root_of_unity(e, j)
        assert total.is_zero()


def test_cross_conductor_equality():
    assert CycValue.root_of_unity(6, 2) == CycValue.root_of_unity(3, 1)
    assert CycValue.root_of_unity(8, 0) == 1
    assert CycValue.root_of_unity(12, 6) == -1
    assert CycValue.root_of_unity(4, 1) != CycValue.root_of_unity(8, 1)


def test_conjugation_inverts_roots():
    for e in (3, 4, 5, 8):
        z = CycValue.root_of_unity(e)
        assert z * z.conjugate() == 1
        assert (z + z.conjugate()).conjugate() == z + z.conjugate()


def test_rationality():
    z5 = CycValue.root_of_unity(5)
    s = sum((CycValue.root_of_unity(5, j) for j in range(1, 5)), CycValue.zero())
    assert s.is_rational() and s.as_rational() == -1
    with pytest.raises(ValueError):
        z5.as_rational()


def test_power_basis_shape():
    v = CycValue(12, {0: Fraction(1), 7: Fraction(2, 3)})
    basis = v.power_basis()
    assert len(basis) == 12
    assert v.canonical() == basis[: len(v.canonical())]


def test_integer_values_embed_with_constant_coefficient_only():
    v = CycValue.from_rational(Fraction(7, 2), conductor=8)
    assert v.power_basis()[0] == Fraction(7, 2)
    assert all(c == 0 for c in v.power_basis()[1:])


_small = st.integers(min_value=-4, max_value=4)


def _values(conductor):
    return st.dictionaries(
        st.integers(min_value=0, max_value=conductor - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        max_size=3,
    ).map(lambda d: CycValue(conductor, d))


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]).flatmap(
    lambda e: st.tuples(_values(e), _values(e), _values(e))
))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@st.composite
def _equal_or_not(draw):
    """(a, b, equal): b is a plus a vanishing sum of roots, plus one term if not equal."""
    e = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15]))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    base = draw(st.dictionaries(st.integers(0, e - 1), coeffs, max_size=4))
    p = draw(st.sampled_from([q for q in (2, 3, 5) if e % q == 0]))
    shift, c = draw(st.integers(0, e - 1)), draw(coeffs)
    other = dict(base)
    for i in range(p):  # the p-th roots of unity times z^shift sum to zero
        j = (shift + i * e // p) % e
        other[j] = other.get(j, 0) + c
    equal = draw(st.booleans())
    if not equal:
        j = draw(st.integers(0, e - 1))
        other[j] = other.get(j, 0) + draw(coeffs.filter(bool))
    return CycValue(e, base), CycValue(e, other), equal


@given(_equal_or_not())
def test_equality_is_power_basis_equality(case):
    a, b, equal = case
    e = a.conductor
    assert (a == b) is equal
    assert (a.power_basis() == b.power_basis()) is equal
    for k in (2, 3):
        assert (a.embed(k * e).power_basis() == b.embed(k * e).power_basis()) is equal
        assert (a.embed(k * e) == b) is equal
        assert (a == b.embed(k * e)) is equal
    assert (a.embed(2 * e) == b.embed(3 * e)) is equal


def test_power_basis_matrix_rows_are_roots_of_unity():
    for e in range(1, 421):
        m = power_basis_matrix(e)
        assert m.shape == (e, len(cyclotomic_polynomial(e)) - 1)
        assert not m.flags.writeable
        for k in range(e):
            assert tuple(m[k].tolist()) == CycValue.root_of_unity(e, k).embed(e).canonical(), (e, k)


@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15, 24]).flatmap(
        lambda e: st.tuples(
            st.just(e),
            st.lists(st.integers(-5, 5), min_size=e, max_size=e),
        )
    )
)
def test_from_power_basis_is_the_reduced_sum(case):
    e, mults = case
    coords = (np.array(mults) @ power_basis_matrix(e)).tolist()
    value = CycValue.from_power_basis(e, coords)
    assert value == CycValue(e, dict(enumerate(mults)))
    assert value.embed(e).canonical() == tuple(coords)


def test_from_power_basis_needs_phi_coordinates():
    with pytest.raises(ValueError):
        CycValue.from_power_basis(12, [1, 0, 0])
