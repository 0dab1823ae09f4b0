"""Dirichlet characters with exact values, and density estimation over primes.

Characters mod N are indexed by exponent tuples against a fixed generator
decomposition of (Z/N)*, built from primes.primitive_root at each odd prime
power; values are stored as exponents of a root of unity, never as floats, so
equality of values is integer arithmetic.  Each unit group keeps its discrete
logs as one int16 array with a row per residue, beside a bool mask of the
units, so a character's values at many residues are one indexed dot product.
The exact density, the match table and the difference weights of a pair all
read one table of those exponents (`_value_exponents`).  Matching densities
of pairs are exact rationals with denominator dividing phi(N).

The empirical side works on indicator (or weighted) series over the primes up
to some x_max: a natural-density estimate with a binomial standard error, a
truncated Dirichlet-series estimate along a schedule of s values, and the
finite form of the weighted-sum inequality that bounds the lower density of a
set of places from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

import numpy as np

from .primes import crt, factorize, primitive_root, sieve_primes, totient

DEFAULT_S_SCHEDULE = (1.5, 1.2, 1.1, 1.05, 1.02)
MAX_MODULUS = 10**4


def _local_generators(p: int, k: int) -> list[tuple[int, int]]:
    """Generators (with orders) of (Z/p^k)*."""
    pk = p**k
    if p == 2:
        if k == 1:
            return []
        if k == 2:
            return [(3, 2)]
        return [(pk - 1, 2), (5, 2 ** (k - 2))]
    return [(primitive_root(pk), totient(pk))]


@dataclass(frozen=True, eq=False)
class UnitGroup:
    """(Z/N)* presented as a product of cyclic groups with explicit generators.

    `dlog` is an (N, r) int16 array: row a holds the exponents e with
    a = prod g_i^e_i (mod N) when a is a unit, -1 elsewhere; `unit` is the bool
    mask of the units.  Exponents stay below phi(N) < MAX_MODULUS = 10^4.
    """

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: np.ndarray
    unit: np.ndarray

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def units(self) -> list[int]:
        return np.flatnonzero(self.unit).tolist()


@lru_cache(maxsize=64)
def unit_group(N: int) -> UnitGroup:
    if not 1 <= N <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [1, {MAX_MODULUS}]")
    gens: list[int] = []
    orders: list[int] = []
    for p, k in factorize(N)[0]:
        pk = p**k
        for g, order in _local_generators(p, k):
            gens.append(crt([g, 1], [pk, N // pk])[0])  # = g mod p^k, = 1 mod N/p^k
            orders.append(order)
    # every exponent vector in mixed radix, the first generator fastest
    residues = np.array([1 % N], dtype=np.int64)
    logs = np.zeros((1, 0), dtype=np.int16)
    for g, order in zip(gens, orders):
        powers = np.ones(1, dtype=np.int64)  # g^0 .. g^(order - 1), doubling the run
        while powers.size < order:
            powers = np.concatenate([powers, powers * pow(g, powers.size, N) % N])
        residues = (powers[:order, None] * residues % N).ravel()
        column = np.repeat(np.arange(order, dtype=np.int16), len(logs))
        logs = np.column_stack([np.tile(logs, (order, 1)), column])
    dlog = np.full((N, len(gens)), -1, dtype=np.int16)
    dlog[residues] = logs
    unit = np.zeros(N, dtype=bool)
    unit[residues] = True
    found, expected = np.count_nonzero(unit), totient(N)
    if found != expected:
        raise ArithmeticError(f"generator enumeration found {found} of {expected} units")
    return UnitGroup(modulus=N, generators=tuple(gens), orders=tuple(orders), dlog=dlog, unit=unit)


@dataclass(frozen=True)
class DirichletChar:
    """A character of (Z/N)*, as exponents against the group's generators."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        group = unit_group(self.modulus)
        if len(self.exponents) != len(group.orders):
            raise ValueError("one exponent per generator is required")
        object.__setattr__(
            self,
            "exponents",
            tuple(t % o for t, o in zip(self.exponents, group.orders)),
        )

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @cached_property
    def order(self) -> int:
        out = 1
        for t, o in zip(self.exponents, self.group.orders):
            if t:
                out = lcm(out, o // gcd(o, t))
        return out

    @cached_property
    def _weights(self) -> np.ndarray:
        """w with chi(a) = zeta_order^(w . dlog(a)): w_i = t_i * order / o_i,
        an integer because the order of each component divides the order."""
        weights = [t * self.order // o for t, o in zip(self.exponents, self.group.orders)]
        return np.array(weights, dtype=np.int64)

    def is_principal(self) -> bool:
        return all(t == 0 for t in self.exponents)

    def value_exponent(self, a: int) -> int | None:
        """Exponent j with chi(a) = zeta_order^j, or None when gcd(a, N) > 1."""
        group, a = self.group, a % self.modulus
        if not group.unit[a]:
            return None
        return int(group.dlog[a] @ self._weights) % self.order

    def mul(self, other: DirichletChar) -> DirichletChar:
        if other.modulus != self.modulus:
            raise ValueError("characters must share a modulus")
        return DirichletChar(
            self.modulus,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def inverse(self) -> DirichletChar:
        return DirichletChar(self.modulus, tuple(-t for t in self.exponents))


def dirichlet_characters(N: int) -> list[DirichletChar]:
    """All characters mod N in mixed-radix index order."""
    return [dirichlet_character(N, idx) for idx in range(unit_group(N).order)]


def dirichlet_character(N: int, index: int) -> DirichletChar:
    """Character by mixed-radix index over the generator orders.

    index = t_0 + t_1 * o_0 + t_2 * o_0 * o_1 + ... (the documented convention).
    """
    group = unit_group(N)
    if not 0 <= index < group.order:
        raise ValueError(f"character index must be in [0, {group.order})")
    exps = []
    for o in group.orders:
        exps.append(index % o)
        index //= o
    return DirichletChar(N, tuple(exps))


def exact_matching_density_dirichlet(x: DirichletChar, y: DirichletChar) -> Fraction:
    """Exact density of units where the two characters take the same value.

    Characters on different moduli are induced to the lcm; the denominator of
    the result divides phi of that common modulus.
    """
    units, vx, vy, _ = _value_exponents(x, y)
    return Fraction(int(np.count_nonzero(vx == vy)), len(units))


def _value_exponents(x: DirichletChar, y: DirichletChar):
    """(units, vx, vy, E): the units mod L = lcm of the two moduli, and the
    values of x and y at each as exponents of one root of unity of order E."""
    L = lcm(x.modulus, y.modulus)
    if L > MAX_MODULUS:
        raise ValueError("common modulus exceeds the supported range")
    E = lcm(x.order, y.order)
    units = np.flatnonzero(unit_group(L).unit)
    vx, vy = (
        chi.group.dlog[units % chi.modulus] @ chi._weights % chi.order * (E // chi.order)
        for chi in (x, y)
    )
    return units, vx, vy, E


# -- prime series and estimators


@dataclass
class PrimeIndicatorSeries:
    """Indicator (and optional weight) data on the primes up to x_max."""

    x_max: int
    primes: np.ndarray
    marked: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if len(self.primes) != len(self.marked):
            raise ValueError("one indicator per prime is required")
        if self.weights is not None and len(self.weights) != len(self.primes):
            raise ValueError("one weight per prime is required")


def matching_prime_series(
    x: DirichletChar, y: DirichletChar, x_max: int
) -> PrimeIndicatorSeries:
    """Indicator of chi1(q) = chi2(q) over primes q coprime to both moduli."""
    L = lcm(x.modulus, y.modulus)
    table = _match_table(x, y, L)
    primes = _primes_coprime_to(L, x_max)
    return PrimeIndicatorSeries(x_max=x_max, primes=primes, marked=table[primes % L])


def _primes_coprime_to(L: int, x_max: int) -> np.ndarray:
    """Primes q <= x_max with gcd(q, L) = 1, by one lookup in the units mask mod L."""
    primes = sieve_primes(x_max)
    return primes[unit_group(L).unit[primes % L]]


def _match_table(x: DirichletChar, y: DirichletChar, L: int) -> np.ndarray:
    units, vx, vy, _ = _value_exponents(x, y)
    table = np.zeros(L, dtype=bool)
    table[units] = vx == vy
    return table


def difference_weight_series(
    x: DirichletChar, y: DirichletChar, x_max: int
) -> PrimeIndicatorSeries:
    """|chi1(q) - chi2(q)|^2 weights (exact where the cosine is rational)."""
    L = lcm(x.modulus, y.modulus)
    units, vx, vy, E = _value_exponents(x, y)
    wtable = np.zeros(L, dtype=np.float64)
    wtable[units] = [_root_distance_sq(d, E) for d in ((vx - vy) % E).tolist()]
    primes = _primes_coprime_to(L, x_max)
    weights = wtable[primes % L]
    return PrimeIndicatorSeries(
        x_max=x_max, primes=primes, marked=weights > 0, weights=weights
    )


_EXACT_COSINES = {
    Fraction(0, 1): 0.0,
    Fraction(1, 2): 4.0,
    Fraction(1, 4): 2.0,
    Fraction(3, 4): 2.0,
    Fraction(1, 3): 3.0,
    Fraction(2, 3): 3.0,
    Fraction(1, 6): 1.0,
    Fraction(5, 6): 1.0,
}


def _root_distance_sq(d: int, E: int) -> float:
    frac = Fraction(d % E, E)
    if frac in _EXACT_COSINES:
        return _EXACT_COSINES[frac]
    return 2.0 - 2.0 * math.cos(2.0 * math.pi * d / E)


@dataclass(frozen=True)
class DensityEstimate:
    estimate: float
    stderr: float
    marked: int
    total: int


def natural_density_estimate(series: PrimeIndicatorSeries) -> DensityEstimate:
    """Marked fraction of the primes in range, with a binomial standard error."""
    n = len(series.primes)
    if n < 100:
        raise ValueError("need at least 100 primes in range")
    marked = int(np.count_nonzero(series.marked))
    f = marked / n
    return DensityEstimate(
        estimate=f, stderr=math.sqrt(max(f * (1 - f), 1e-300) / n), marked=marked, total=n
    )


def dirichlet_density_estimate(
    series: PrimeIndicatorSeries, s_values=DEFAULT_S_SCHEDULE
) -> list[tuple[float, float]]:
    """Truncated partial-sum ratios sum_marked q^-s / sum q^-s per s.

    The s -> 1+ limit is not taken (that needs the full tail); these values
    carry an explicit truncation caveat and are only expected to drift toward
    the true density as s decreases.
    """
    s_list = list(s_values)
    if any(not 1 < s <= 2 for s in s_list):
        raise ValueError("s values must lie in (1, 2]")
    if any(b >= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError("s values must be strictly decreasing")
    q = series.primes.astype(np.float64)
    out = []
    for s in s_list:
        terms = q**(-s)
        out.append((s, float(terms[series.marked].sum() / terms.sum())))
    return out


@dataclass(frozen=True)
class DiagnosticResult:
    s: float
    dimension: int
    per_sample_bound: float
    weighted_sum: float
    marked_sum: float
    total_sum: float
    inequality_holds: bool
    implied_lower_bound: float
    marked_partial_ratio: float


def lower_density_diagnostic(
    series: PrimeIndicatorSeries, n: int, s: float
) -> DiagnosticResult:
    """Truncated form of: weighted sum / (2n)^2 <= partial sum over the marked set.

    Weights must obey the per-sample bound (2n)^2 (the tempered-eigenvalue
    bound); any violation is a precondition failure, not a data point.  The
    implied lower bound weighted/( (2n)^2 * total ) is a truncation-level
    stand-in for the lower-density inequality.
    """
    if series.weights is None:
        raise ValueError("diagnostic needs a weighted series")
    if not 1 < s < 2:
        raise ValueError("s must lie in (1, 2)")
    bound = float((2 * n) ** 2)
    worst = float(series.weights.max()) if len(series.weights) else 0.0
    if worst > bound + 1e-9:
        raise ValueError(
            f"weight {worst} exceeds the per-sample bound {bound}: non-tempered input"
        )
    q = series.primes.astype(np.float64)
    terms = q**(-s)
    weighted = float((series.weights * terms).sum())
    marked = float(terms[series.marked].sum())
    total = float(terms.sum())
    holds = weighted / bound <= marked * (1 + 1e-12) + 1e-300
    return DiagnosticResult(
        s=s,
        dimension=n,
        per_sample_bound=bound,
        weighted_sum=weighted,
        marked_sum=marked,
        total_sum=total,
        inequality_holds=holds,
        implied_lower_bound=weighted / (bound * total) if total else 0.0,
        marked_partial_ratio=marked / total if total else 0.0,
    )
