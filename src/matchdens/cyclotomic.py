"""Exact arithmetic in cyclotomic fields.

A value in the e-th cyclotomic field Q(z), z = exp(2 pi i / e), is stored in
one form only: its coordinates in the power basis 1, z, ..., z^(phi(e)-1), as
a tuple of Python ints over one positive common denominator, with the gcd of
all of them 1.  That form is unique, so equality at one conductor is tuple
equality; values at different conductors are compared inside the field of
their lcm.  Every result is built as an integer polynomial in z and reduced
once modulo the monic cyclotomic polynomial Phi_e, in integer arithmetic.
`canonical()` and `power_basis()` return the coordinates as `Fraction`s.
`power_basis_matrix(e)` holds the integer coordinates of every power of z at
once, so that array code can move between sums of roots of unity and
coordinates with one matrix product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division by a monic integer polynomial, coefficients low -> high
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = num[k + len(den) - 1]
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("non-zero remainder in exact polynomial division")
    return out


# One character table's values, and all arithmetic on them, stay at divisors
# of its group's exponent: at most 40 conductors for an order <= 2000
# (chartable.MAX_ORDER; 1680 has 40 divisors).  256 holds several tables, and
# an evicted polynomial is only recomputed.
@lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# A character table reads the matrices of its cycle lengths and of its
# exponent, all divisors of the exponent (at most 40 of them for an order
# <= 2000), and every entry is small (at most 9 in absolute value for e <=
# 2000).  64 matrices hold a table's with room to spare; an evicted one is
# only recomputed.
@lru_cache(maxsize=64)
def power_basis_matrix(e: int) -> np.ndarray:
    """The read-only e x phi(e) int64 matrix whose row k holds the power-basis
    coordinates of z^k, z a primitive e-th root of unity.

    Row k + 1 is row k times z: shifted up one place, with the top coordinate
    folded back through the monic Phi_e.
    """
    phi = np.array(cyclotomic_polynomial(e), dtype=np.int64)
    deg = len(phi) - 1
    out = np.zeros((e, deg), dtype=np.int64)
    out[:deg] = np.eye(deg, dtype=np.int64)
    for k in range(deg, e):
        out[k, 1:] = out[k - 1, :-1]
        out[k] -= out[k - 1, -1] * phi[:-1]
    out.setflags(write=False)
    return out


def _reduced(e: int, poly: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical (numerators, denominator) of poly(z)/den, poly given low -> high.

    Reduces modulo the monic Phi_e in place, then divides out the common gcd.
    """
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    terms = [(i - deg, c) for i, c in enumerate(phi[:-1]) if c]
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, f in terms:
                poly[k + i] -= c * f
    poly += [0] * (deg - len(poly))
    g = gcd(den, *poly[:deg])
    return tuple(x // g for x in poly[:deg]), den // g


class CycValue:
    """An element of the e-th cyclotomic field with exact rational coordinates."""

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coeffs: dict | None = None):
        """The value sum_j coeffs[j] * z^j, z a primitive conductor-th root of unity."""
        if conductor < 1:
            raise ValueError("conductor must be positive")
        terms = [(j % conductor, Fraction(c)) for j, c in (coeffs or {}).items()]
        den = lcm(*(c.denominator for _, c in terms))
        poly = [0] * conductor
        for j, c in terms:
            poly[j] += c.numerator * (den // c.denominator)
        self.conductor = conductor
        self._num, self._den = _reduced(conductor, poly, den)

    @classmethod
    def _make(cls, conductor: int, poly: list[int], den: int) -> CycValue:
        out = cls.__new__(cls)
        out.conductor = conductor
        out._num, out._den = _reduced(conductor, poly, den)
        return out

    # -- constructors

    @classmethod
    def from_power_basis(cls, conductor: int, rows) -> list[CycValue]:
        """The algebraic integers whose integer coordinates in the power basis
        1, z, ..., z^(phi(e)-1) are the rows of a 2-D integer array, one value
        per row; they are canonical as given.  The width phi(e) is checked
        once for the whole block."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError(f"need a 2-D integer block, got {rows.shape} {rows.dtype}")
        if rows.shape[1] != len(cyclotomic_polynomial(conductor)) - 1:
            raise ValueError(f"need phi({conductor}) coordinates, got {rows.shape[1]}")
        values = []
        for row in rows.tolist():
            out = cls.__new__(cls)
            out.conductor, out._num, out._den = conductor, tuple(row), 1
            values.append(out)
        return values

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> CycValue:
        q = Fraction(value)
        deg = len(cyclotomic_polynomial(conductor)) - 1
        return cls._make(conductor, [q.numerator] + [0] * (deg - 1), q.denominator)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CycValue:
        return cls(order, {power: 1})

    @classmethod
    def zero(cls, conductor: int = 1) -> CycValue:
        return cls.from_rational(0, conductor)

    # -- canonical form

    def canonical(self) -> tuple[Fraction, ...]:
        """Coordinates in the power basis 1, z, ..., z^(phi(e)-1)."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def power_basis(self) -> tuple[Fraction, ...]:
        """Canonical coordinates padded with zeros to length e."""
        canon = self.canonical()
        return canon + (Fraction(0),) * (self.conductor - len(canon))

    def _lifted(self, conductor: int, scale: int = 1) -> list[int]:
        """scale * numerators as an unreduced polynomial in z_conductor."""
        step = conductor // self.conductor
        poly = [0] * ((len(self._num) - 1) * step + 1)
        poly[::step] = [n * scale for n in self._num]
        return poly

    def embed(self, conductor: int) -> CycValue:
        """The same field element viewed inside a larger cyclotomic field."""
        if conductor % self.conductor:
            raise ValueError("new conductor must be a multiple of the old one")
        if conductor == self.conductor:
            return self
        return CycValue._make(conductor, self._lifted(conductor), self._den)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic

    def __add__(self, other) -> CycValue:
        other = _coerce(other)
        e = lcm(self.conductor, other.conductor)
        g = gcd(self._den, other._den)
        a = self._lifted(e, other._den // g)
        b = other._lifted(e, self._den // g)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return CycValue._make(e, a, self._den // g * other._den)

    __radd__ = __add__

    def __neg__(self) -> CycValue:
        return CycValue._make(self.conductor, [-n for n in self._num], self._den)

    def __sub__(self, other) -> CycValue:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> CycValue:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> CycValue:
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            poly = [n * q.numerator for n in self._num]
            return CycValue._make(self.conductor, poly, self._den * q.denominator)
        other = _coerce(other)
        e = lcm(self.conductor, other.conductor)
        a, b = self._lifted(e), other._lifted(e)
        poly = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    poly[i + j] += x * y
        return CycValue._make(e, poly, self._den * other._den)

    __rmul__ = __mul__

    def conjugate(self) -> CycValue:
        """Complex conjugate (inverts every root of unity)."""
        e = self.conductor
        poly = [0] * e
        for j, n in enumerate(self._num):
            poly[-j % e] = n
        return CycValue._make(e, poly, self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CycValue):
            return NotImplemented
        e = lcm(self.conductor, other.conductor)
        a, b = self.embed(e), other.embed(e)
        return a._den == b._den and a._num == b._num

    __hash__ = None  # equality crosses conductors; hashing would be a trap

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CycValue({self.as_rational()})"
        terms = ", ".join(f"z^{j}: {c}" for j, c in enumerate(self.canonical()) if c)
        return f"CycValue(e={self.conductor}, {{{terms}}})"


def hermitian_sum(weights, xs, ys) -> CycValue:
    """Exact sum_k weights[k] * xs[k] * conj(ys[k]) over int weights.

    Accumulates in Z[z]/(z^E - 1), E the lcm of all conductors, over one
    common denominator, and reduces modulo Phi_E once for the whole sum.
    """
    xs, ys = list(xs), list(ys)
    e = lcm(*(v.conductor for v in xs + ys))
    dx = lcm(*(v._den for v in xs))
    dy = lcm(*(v._den for v in ys))
    acc = [0] * e
    for w, x, y in zip(weights, xs, ys):
        sx, sy = e // x.conductor, e // y.conductor
        wx = w * (dx // x._den)
        yterms = [(-j * sy, n * (dy // y._den)) for j, n in enumerate(y._num) if n]
        for i, n in enumerate(x._num):
            if n:
                n *= wx
                for j, m in yterms:
                    acc[(i * sx + j) % e] += n * m
    return CycValue._make(e, acc, dx * dy)


def _coerce(value) -> CycValue:
    if isinstance(value, CycValue):
        return value
    if isinstance(value, (int, Fraction)):
        return CycValue.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic value")
