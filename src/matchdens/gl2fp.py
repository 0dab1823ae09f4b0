"""Class-type machinery for GL2 over a prime field.

Every invertible 2x2 matrix mod p falls into one of four conjugacy *types*
(central, non-semisimple, split regular, non-split regular) determined by its
characteristic polynomial; within a type, the class is pinned down by the
eigenvalue data.  `class_type_counts` gives, for each type, the number of its
classes and their common size in closed form.  That is all the class data
there is: the class-type fractions, every value distribution and every class
row are read from it, in O(1) work per prime, for any prime p.

A class function that is constant on each type, such as the p-dimensional
character that vanishes exactly on the non-semisimple classes (value
p / 0 / 1 / -1 on the four types), is stored as its four integer type values.
A product over distinct primes p_1..p_k is kept as its factors plus its value
distribution (value -> total class size), the convolution of the factors'
distributions: at most 2^(k+1) + 1 values for Steinberg factors.  Its
prod_j (p_j^2 - 1) class rows are never stored; each is computed on demand
from one block per class type and factor: its count, size and value.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import prod

from .primes import is_prime, jacobi, sqrt_mod

CENTRAL = "central"
NONSEMISIMPLE = "nonsemisimple"
SPLIT = "split"
NONSPLIT = "nonsplit"
CLASS_TYPES = (CENTRAL, NONSEMISIMPLE, SPLIT, NONSPLIT)
REPEATED = "repeated"  # a repeated eigenvalue: central or non-semisimple

ENUMERATION_MAX_P = 31  # keeps |GL2(F_p)| under one million


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


def eigenvalue_kind(disc: int, p: int) -> str:
    """REPEATED, SPLIT or NONSPLIT: how x^2 - t x + d (d != 0 mod p) factors
    mod p, from disc = t^2 - 4d.  At p = 2 an odd disc means x^2 + x + 1, which
    is irreducible: GL2(F_2) has no split class."""
    disc %= p
    if disc == 0:
        return REPEATED
    if p == 2 or jacobi(disc, p) == -1:
        return NONSPLIT
    return SPLIT


def classify(m: GL2Element) -> ClassType:
    """Class type of a matrix from its characteristic polynomial."""
    p = m.p
    if m.b == 0 and m.c == 0 and m.a == m.d:
        return ClassType(CENTRAL, (m.a,))
    t, d = m.trace(), m.det()
    disc = t * t - 4 * d
    kind = eigenvalue_kind(disc, p)
    if kind == REPEATED:
        # repeated eigenvalue: t/2 for odd p; for p = 2 it squares to det
        lam = t * pow(2, -1, p) % p if p != 2 else d % p
        return ClassType(NONSEMISIMPLE, (lam,))
    if kind == SPLIT:
        s, inv2 = sqrt_mod(disc, p), pow(2, -1, p)
        lam, mu = (t - s) * inv2 % p, (t + s) * inv2 % p
        return ClassType(SPLIT, (min(lam, mu), max(lam, mu)))
    return ClassType(NONSPLIT, (t, d))


def gl2_order(p: int) -> int:
    _require_prime(p)
    return (p * p - 1) * (p * p - p)


def class_type_counts(p: int) -> dict[str, tuple[int, int]]:
    """(number of classes, size of each class) for every class type of GL2(F_p).

    Keys in CLASS_TYPES order.  GL2(F_2) has no split class.
    """
    _require_prime(p)
    return {
        CENTRAL: (p - 1, 1),
        NONSEMISIMPLE: (p - 1, p * p - 1),
        SPLIT: ((p - 1) * (p - 2) // 2, p * p + p),
        NONSPLIT: (p * (p - 1) // 2, p * p - p),
    }


def class_type_fractions(p: int) -> dict[str, Fraction]:
    """Exact fraction of GL2(F_p) in each class type; the four sum to one."""
    order = gl2_order(p)
    fractions = {
        kind: Fraction(count * size, order)
        for kind, (count, size) in class_type_counts(p).items()
    }
    if sum(fractions.values()) != 1:
        raise AssertionError("class type fractions must sum to 1")
    return fractions


def steinberg_value_of_matrix(m: GL2Element) -> int:
    """Value of the p-dimensional character on one matrix, for every prime p."""
    return steinberg_character_data(m.p).value_of(m)


def fixed_projective_points(m: GL2Element) -> int:
    """Number of lines of F_p^2 fixed by m: an independent route to the
    character (value = fixed points - 1).

    Work is O(p): one pass over the p + 1 lines, with a modular inverse for
    each line (x : 1) whose image is not the line (1 : 0).
    """
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
    """A class function on GL2(F_p) that is constant on each class type.

    `values` holds its integer values on the central, non-semisimple, split
    and non-split classes, in CLASS_TYPES order.
    """

    p: int
    values: tuple[int, int, int, int]

    def __post_init__(self):
        _require_prime(self.p)
        if len(self.values) != len(CLASS_TYPES):
            raise ValueError(f"need one value per class type {CLASS_TYPES}")

    @property
    def group_order(self) -> int:
        return gl2_order(self.p)

    @property
    def class_count(self) -> int:
        return sum(count for count, _ in class_type_counts(self.p).values())

    @cached_property
    def distribution(self) -> tuple[tuple[int, int], ...]:
        """(value, total size of the classes taking it) pairs sorted by value,
        built on first read.

        A type with no classes contributes nothing.
        """
        dist: dict[int, int] = {}
        for value, (count, size) in zip(self.values, class_type_counts(self.p).values()):
            if count:
                dist[value] = dist.get(value, 0) + count * size
        return tuple(sorted(dist.items()))

    def zero_fraction(self) -> Fraction:
        zero = sum(size for v, size in self.distribution if v == 0)
        return Fraction(zero, self.group_order)

    def nonzero_fraction(self) -> Fraction:
        return 1 - self.zero_fraction()

    def norm(self) -> Fraction:
        total = sum(size * v * v for v, size in self.distribution)
        return Fraction(total, self.group_order)

    def value_of(self, m: GL2Element) -> int:
        if m.p != self.p:
            raise ValueError("matrix lives over a different prime field")
        return self.values[CLASS_TYPES.index(classify(m).kind)]


def steinberg_character_data(p: int) -> Gl2ClassFunction:
    """The p-dimensional character as exact class data, for any prime p."""
    return Gl2ClassFunction(p=p, values=(p, 0, 1, -1))


class ProductRows(Sequence):
    """The (class size, value) rows of a product class function, built on demand.

    A factor's p^2 - 1 classes run through the types in CLASS_TYPES order, and
    every class of a type has that type's size and value, so each factor is
    read once, as one ((count, size), value) block per type.  Row i combines
    one class of each factor: i read in mixed radix, the last factor's class
    as the lowest digit, so iteration runs in itertools.product order.  The
    row is the product of those classes' sizes and of their values.
    """

    __slots__ = ("_blocks", "_radices", "_len")

    def __init__(self, factors: tuple[Gl2ClassFunction, ...]):
        self._blocks = tuple(tuple(zip(class_type_counts(f.p).values(), f.values)) for f in factors)
        self._radices = tuple(sum(count for (count, _), _ in blocks) for blocks in self._blocks)
        self._len = prod(self._radices)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index) -> tuple[int, int]:
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("product row index out of range")
        size = value = 1
        for blocks, radix in zip(reversed(self._blocks), reversed(self._radices)):
            index, digit = divmod(index, radix)
            for (count, fsize), fvalue in blocks:
                if digit < count:
                    break
                digit -= count
            size *= fsize
            value *= fvalue
        return size, value

    def __iter__(self) -> Iterator[tuple[int, int]]:
        classes = [[(s, v) for (count, s), v in blocks for _ in range(count)] for blocks in self._blocks]
        for rows in iproduct(*classes):
            yield prod(size for size, _ in rows), prod(value for _, value in rows)


@dataclass(frozen=True)
class ProductClassFunction:
    """Class function on GL2(F_p1) x ... x GL2(F_pk), stored as a value distribution.

    `distribution` holds (value, total size of the classes taking it) pairs
    sorted by value; it is all that the zero fraction and the group order
    need.  `entries` gives the class rows, one per tuple of factor classes,
    computed on demand from each factor's four class-type blocks.
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

    Cost: each factor's distribution is read once, and convolving it in makes
    at most 4 (2^(k+1) + 1) dict updates for Steinberg factors.  Two
    self-checks follow, both in integers: the sizes sum to prod_j |G_j|, and
    the zero mass obeys inclusion-exclusion, prod_j |G_j| - prod_j (|G_j| - z_j)
    with z_j the zero mass of factor j; that is, the zero fraction is
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
        out: dict[int, int] = {}
        for value, size in dist.items():
            for fvalue, fsize in f.distribution:
                out[value * fvalue] = out.get(value * fvalue, 0) + size * fsize
        dist = out
    order = prod(f.group_order for f in factors)
    if sum(dist.values()) != order:
        raise AssertionError("value distribution does not cover the product group")
    nonzero = prod(
        f.group_order - sum(size for v, size in f.distribution if v == 0) for f in factors
    )
    if dist.get(0, 0) != order - nonzero:
        raise AssertionError("class-wise zero fraction violates inclusion-exclusion")
    return ProductClassFunction(factors=factors, distribution=tuple(sorted(dist.items())))
