"""Class-type machinery for GL2 over a prime field.

Every invertible 2x2 matrix mod p falls into one of four conjugacy *types*
(central, non-semisimple, split regular, non-split regular) determined by its
characteristic polynomial; within a type, the class is pinned down by the
eigenvalue data.  The p-dimensional character that vanishes exactly on the
non-semisimple classes (value p / 0 / 1 / -1 on the four types) is the source
of the dense family of exact densities, so its class data carries exact
integer values and exact class sizes.

Class data lists the p^2 - 1 classes of GL2(F_p) and is bounded at
p <= CLASS_DATA_MAX_P.  A product over distinct primes p_1..p_k is kept as
its factors plus its value distribution (value -> total class size), the
convolution of the factors' distributions: at most 2^(k+1) + 1 values for
Steinberg factors.  Its prod_j (p_j^2 - 1) class rows are never stored; each
is computed on demand from one row of every factor.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import prod

from .cyclotomic import CycValue
from .primes import is_prime, legendre, sqrt_mod

CENTRAL = "central"
NONSEMISIMPLE = "nonsemisimple"
SPLIT = "split"
NONSPLIT = "nonsplit"

ENUMERATION_MAX_P = 31
# class_inventory lists p^2 - 1 classes; 499 is the largest prime that keeps
# them under 2.5e5 rows (0.9 s and a 65 MB peak to build at the bound)
CLASS_DATA_MAX_P = 499


# memoized so that per-matrix callers pay one primality test per p; a refusal
# raises, and lru_cache does not cache exceptions, so a composite p is refused
# on every call
@lru_cache(maxsize=64)
def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class GL2Element:
    """An invertible 2x2 matrix over F_p, entries reduced mod p."""

    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _require_prime(self.p)
        p = self.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        object.__setattr__(self, "c", self.c % p)
        object.__setattr__(self, "d", self.d % p)
        if self.det() == 0:
            raise ValueError(f"matrix {self.entries()} is singular mod {p}")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def trace(self) -> int:
        return (self.a + self.d) % self.p


@dataclass(frozen=True)
class ClassType:
    """Conjugacy class of GL2(F_p): a type tag plus the class parameters.

    central:        params = (lambda,)
    nonsemisimple:  params = (lambda,)            repeated eigenvalue
    split:          params = (lambda, mu)         lambda < mu, distinct in F_p
    nonsplit:       params = (trace, det)         irreducible char. polynomial
    """

    kind: str
    params: tuple[int, ...]


def classify(m: GL2Element) -> ClassType:
    """Class type of a matrix from its characteristic polynomial."""
    p = m.p
    if m.b == 0 and m.c == 0 and m.a == m.d:
        return ClassType(CENTRAL, (m.a,))
    t, d = m.trace(), m.det()
    disc = (t * t - 4 * d) % p
    if disc == 0:
        # repeated eigenvalue: t/2 for odd p; for p = 2 it squares to det
        lam = t * pow(2, -1, p) % p if p != 2 else d % p
        return ClassType(NONSEMISIMPLE, (lam,))
    if p == 2:
        # disc odd means x^2 + x + 1, the only irreducible quadratic mod 2
        return ClassType(NONSPLIT, (t, d))
    s = sqrt_mod(disc, p)
    if s is not None:
        inv2 = pow(2, -1, p)
        lam, mu = (t - s) * inv2 % p, (t + s) * inv2 % p
        return ClassType(SPLIT, (min(lam, mu), max(lam, mu)))
    return ClassType(NONSPLIT, (t, d))


def gl2_order(p: int) -> int:
    _require_prime(p)
    return (p * p - 1) * (p * p - p)


def class_inventory(p: int) -> list[tuple[ClassType, int]]:
    """Every conjugacy class of GL2(F_p) with its exact size: p^2 - 1 rows.

    Refuses p above CLASS_DATA_MAX_P with ValueError before building any row.
    """
    _require_prime(p)
    if p > CLASS_DATA_MAX_P:
        raise ValueError(
            f"GL2 class data is bounded at p <= {CLASS_DATA_MAX_P} "
            f"({CLASS_DATA_MAX_P ** 2 - 1} classes); p = {p} has {p * p - 1}"
        )
    out: list[tuple[ClassType, int]] = []
    for lam in range(1, p):
        out.append((ClassType(CENTRAL, (lam,)), 1))
    for lam in range(1, p):
        out.append((ClassType(NONSEMISIMPLE, (lam,)), p * p - 1))
    for lam in range(1, p):
        for mu in range(lam + 1, p):
            out.append((ClassType(SPLIT, (lam, mu)), p * p + p))
    for t in range(p):
        for d in range(1, p):
            if p == 2:
                irreducible = t == 1 and d == 1
            else:
                irreducible = legendre(t * t - 4 * d, p) == -1
            if irreducible:
                out.append((ClassType(NONSPLIT, (t, d)), p * p - p))
    total = sum(size for _, size in out)
    if total != gl2_order(p):
        raise AssertionError(f"class inventory of GL2(F_{p}) misses elements")
    return out


def class_type_fractions(p: int) -> dict[str, Fraction]:
    """Exact fraction of GL2(F_p) in each class type; the four sum to one."""
    _require_prime(p)
    fractions = {
        CENTRAL: Fraction(1, p * (p * p - 1)),
        NONSEMISIMPLE: Fraction(1, p),
        SPLIT: Fraction(p - 2, 2 * (p - 1)),
        NONSPLIT: Fraction(p, 2 * (p + 1)),
    }
    if sum(fractions.values()) != 1:
        raise AssertionError("class type fractions must sum to 1")
    return fractions


def steinberg_value(p: int, ct: ClassType) -> int:
    """Value of the p-dimensional character on a class of the given type."""
    if ct.kind == CENTRAL:
        return p
    if ct.kind == NONSEMISIMPLE:
        return 0
    if ct.kind == SPLIT:
        return 1
    if ct.kind == NONSPLIT:
        return -1
    raise ValueError(f"unknown class type {ct.kind!r}")


def steinberg_value_of_matrix(m: GL2Element) -> int:
    return steinberg_value(m.p, classify(m))


def fixed_projective_points(m: GL2Element) -> int:
    """Number of lines of F_p^2 fixed by m: an independent route to the
    character (value = fixed points - 1)."""
    p = m.p
    count = 0
    # lines (x : 1) and the line (1 : 0)
    for x in range(p):
        u, v = (m.a * x + m.b) % p, (m.c * x + m.d) % p
        if v != 0 and u * pow(v, -1, p) % p == x:
            count += 1
    if m.c == 0:
        count += 1
    return count


def steinberg_value_by_fixed_points(m: GL2Element) -> int:
    """Character value recomputed from the projective fixed-point count."""
    return fixed_projective_points(m) - 1


def enumerate_gl2(p: int) -> Iterator[GL2Element]:
    """All invertible matrices mod p (full enumeration, p <= 31)."""
    _require_prime(p)
    if p > ENUMERATION_MAX_P:
        raise ValueError(f"enumeration is bounded at p <= {ENUMERATION_MAX_P}")
    for a, b, c, d in iproduct(range(p), repeat=4):
        if (a * d - b * c) % p != 0:
            yield GL2Element(p, a, b, c, d)


@dataclass(frozen=True)
class Gl2ClassFunction:
    """A class function on GL2(F_p) stored as (class type, size, integer value) rows."""

    p: int
    entries: tuple[tuple[ClassType, int, int], ...]

    @property
    def group_order(self) -> int:
        return gl2_order(self.p)

    def zero_fraction(self) -> Fraction:
        zero = sum(size for _, size, v in self.entries if v == 0)
        return Fraction(zero, self.group_order)

    def nonzero_fraction(self) -> Fraction:
        return 1 - self.zero_fraction()

    def norm(self) -> Fraction:
        total = sum(size * v * v for _, size, v in self.entries)
        return Fraction(total, self.group_order)

    def value_of(self, m: GL2Element) -> int:
        if m.p != self.p:
            raise ValueError("matrix lives over a different prime field")
        ct = classify(m)
        for t, _, v in self.entries:
            if t == ct:
                return v
        raise LookupError(f"class {ct} missing from table")


def steinberg_character_data(p: int) -> Gl2ClassFunction:
    """The p-dimensional character as exact class data."""
    entries = tuple(
        (ct, size, steinberg_value(p, ct)) for ct, size in class_inventory(p)
    )
    return Gl2ClassFunction(p=p, entries=entries)


class ProductRows(Sequence):
    """The (class size, value) rows of a product class function, built on demand.

    Row i combines one row of each factor: i read in mixed radix, the last
    factor's row as the lowest digit, so iteration runs in itertools.product
    order over the factors' rows.  The row is the product of those rows'
    sizes and of their values.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: tuple[Gl2ClassFunction, ...]):
        self._factors = factors

    def __len__(self) -> int:
        return prod(len(f.entries) for f in self._factors)

    def __getitem__(self, index) -> tuple[int, int]:
        index = operator.index(index)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("product row index out of range")
        size = value = 1
        for f in reversed(self._factors):
            index, digit = divmod(index, len(f.entries))
            _, fsize, fvalue = f.entries[digit]
            size *= fsize
            value *= fvalue
        return size, value

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for rows in iproduct(*(f.entries for f in self._factors)):
            yield prod(size for _, size, _ in rows), prod(v for _, _, v in rows)


@dataclass(frozen=True)
class ProductClassFunction:
    """Class function on GL2(F_p1) x ... x GL2(F_pk), stored as a value distribution.

    `distribution` holds (value, total size of the classes taking it) pairs
    sorted by value; it is all that the zero fraction and the group order
    need.  The class rows, one per tuple of factor classes, are read from the
    factors on demand through `entries`.
    """

    factors: tuple[Gl2ClassFunction, ...]
    distribution: tuple[tuple[int, int], ...]  # (integer value, total class size)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(f.p for f in self.factors)

    @property
    def group_order(self) -> int:
        return sum(size for _, size in self.distribution)

    @property
    def entries(self) -> ProductRows:
        """The (class size, integer value) rows, one per tuple of factor classes."""
        return ProductRows(self.factors)

    def zero_fraction(self) -> Fraction:
        zero = sum(size for v, size in self.distribution if v == 0)
        return Fraction(zero, self.group_order)

    def nonzero_fraction(self) -> Fraction:
        return 1 - self.zero_fraction()


def product_character(factors: Sequence[Gl2ClassFunction]) -> ProductClassFunction:
    """Outer product of class functions over pairwise distinct primes.

    The value distributions of the factors are convolved: values multiply and
    class sizes multiply.  Memory is O(2^k) for k factors: a Steinberg factor
    takes four values (p, 0, 1, -1), so the product takes at most 2^(k+1) + 1,
    against prod_j (p_j^2 - 1) class rows, which are never listed.

    The zero fraction obeys inclusion-exclusion exactly:
    1 - prod_j (1 - zero_fraction_j).
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    primes = tuple(f.p for f in factors)
    if len(set(primes)) != len(primes):
        raise ValueError(
            "repeated prime: the factors must be pairwise linearly disjoint"
        )
    dist = {1: 1}
    for f in factors:
        fdist: dict[int, int] = {}
        for _, size, value in f.entries:
            fdist[value] = fdist.get(value, 0) + size
        out: dict[int, int] = {}
        for value, size in dist.items():
            for fvalue, fsize in fdist.items():
                out[value * fvalue] = out.get(value * fvalue, 0) + size * fsize
        dist = out
    result = ProductClassFunction(factors=factors, distribution=tuple(sorted(dist.items())))
    if result.group_order != prod(f.group_order for f in factors):
        raise AssertionError("value distribution does not cover the product group")
    expected = 1 - prod(1 - f.zero_fraction() for f in factors)
    if result.zero_fraction() != expected:
        raise AssertionError("class-wise zero fraction violates inclusion-exclusion")
    return result


def steinberg_class_function(group, p: int):
    """The p-dimensional character as a groupcore ClassFunction on an explicit
    GL2(F_p) group (element handles must be 4-tuples of residues)."""
    from .groupcore import ClassFunction

    def value(handle):
        return CycValue.from_rational(
            steinberg_value_of_matrix(GL2Element(p, *handle))
        )

    return ClassFunction.from_handle_function(group, value, name=f"steinberg:{p}")
