"""Shifting a quadratic polynomial away from small primes, and scanning the
shifted polynomial for prime and semiprime values.

Given a primitive irreducible quadratic f and a bound T, the shift picks
A = product of all primes below T and a residue B (by CRT over the primes
below T, least admissible residue at each) so that F(n) = f(An + B) has no
prime factor below T.  A scan then certifies which F(n) are a prime or a
product of exactly two primes; values whose factorization resists the
factoring budget are reported as unresolved, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .primes import PSI, crt, is_prime, pollard_rho, quadratic_roots_mod, sieve_primes

MAX_SHIFT_T = 100_000
# The sieve holds one byte per integer up to the trial bound and an int64 per
# prime below it: 10^7 keeps that near 16 MB.  The root kernel itself stays
# exact up to primes.KERNEL_PRIME_LIMIT.
MAX_TRIAL_BOUND = 10_000_000
# A scan keeps one list of small factors per n <= n_max, about 64 bytes each:
# 10^5, ten times the acceptance scan, keeps that near 6.4 MB.
MAX_SCAN_N = 100_000


class NoAdmissibleShiftError(ValueError):
    """Some prime below T divides f(x) for every residue x (only possible at 2)."""


@dataclass(frozen=True)
class QuadPoly:
    """f(x) = a x^2 + b x + c, irreducible over Q, with a != 0.

    Primitivity (content 1) is demanded where it matters, at find_shift and
    almost_prime_scan: the expansion of f(An + B) for an *inadmissible* B is
    legitimately imprimitive, and shifted_poly must still return it exactly.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("leading coefficient must be non-zero")
        disc = self.discriminant()
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            raise ValueError("polynomial is reducible over Q (square discriminant)")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def __call__(self, n: int) -> int:
        return (self.a * n + self.b) * n + self.c

    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class ShiftSpec:
    """The shift data: modulus A (divisible by every prime < T), residue B in
    [0, A) with f(B) coprime to every prime < T, and the expanded F."""

    T: int
    A: int
    B: int
    poly: QuadPoly  # the shifted polynomial F

    def __post_init__(self):
        for p in sieve_primes(self.T - 1).tolist():
            if self.A % p:
                raise ValueError(f"A must be divisible by every prime < T (missing {p})")
            if self.poly.c % p == 0:
                # F(0) = f(B): the whole point of the shift
                raise ValueError(f"f(B) is divisible by {p} < T")


def shifted_poly(f: QuadPoly, A: int, B: int) -> QuadPoly:
    """Exact expansion of f(A n + B)."""
    a, b, c = f.a, f.b, f.c
    return QuadPoly(a * A * A, 2 * a * A * B + b * A, (a * B + b) * B + c)


def find_shift(f: QuadPoly, T: int) -> ShiftSpec:
    """Choose A = primorial of primes < T and the least admissible B by CRT.

    A prime power T! would do the same job; the primorial has every prime < T
    as a factor and keeps the coefficients far smaller.  For each prime l < T
    the least residue with f(b) != 0 (mod l) is selected, so reruns are
    bit-identical.  Raises NoAdmissibleShiftError when f hits 0 on every
    residue mod some l (for a quadratic this can only happen at l = 2).
    """
    if T < 3:
        raise ValueError("T must be at least 3")
    if T > MAX_SHIFT_T:
        raise ValueError(f"T is bounded at {MAX_SHIFT_T}")
    if not f.is_primitive():
        raise ValueError("find_shift needs a primitive polynomial")
    primes = sieve_primes(T - 1).tolist()
    residues = []
    for ell in primes:
        b_ell = next((b for b in range(ell) if f(b) % ell), None)
        if b_ell is None:
            raise NoAdmissibleShiftError(
                f"f takes only multiples of {ell}; no admissible shift exists"
            )
        residues.append(b_ell)
    B, A = crt(residues, primes)  # T >= 3, so primes holds 2 at least
    return ShiftSpec(T=T, A=A, B=B, poly=shifted_poly(f, A, B))


def has_factor_below(value: int, bound: int) -> bool:
    """Trial division check used by the shift invariants."""
    value = abs(value)
    for p in sieve_primes(bound - 1).tolist():
        if value % p == 0:
            return True
    return False


@dataclass(frozen=True)
class AlmostPrimeHit:
    """n with F(n) a prime or a product of exactly two primes, each factor
    checked by primes.is_prime: proven prime below PSI[-1] ~ 3.317e24, a
    Baillie-PSW probable prime above (see proof)."""

    n: int
    value: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) not in (1, 2):
            raise ValueError("a hit has one or two prime factors")
        prod = 1
        for p in self.factors:
            prod *= p
            if not is_prime(p):
                raise ValueError(f"recorded factor {p} is not prime")
        if prod != self.value:
            raise ValueError("recorded factors do not multiply back to the value")

    @property
    def proof(self) -> str:
        """"deterministic" when every factor lies below PSI[-1], where is_prime
        is a proof; "bpsw" when some factor is a Baillie-PSW probable prime."""
        return "deterministic" if max(self.factors) < PSI[-1] else "bpsw"


@dataclass
class ScanResult:
    """Hits plus the values the factoring budget could not classify.

    The counts say what the scan spent: primes_sieved primes had their roots
    found, rho_calls cofactors went to Pollard rho, and rho_giveups of them
    exhausted its budget (each of those values is in unresolved).  A give-up
    took up to 2 * rho_iterations - 1 product steps, since the budget is
    checked once per Brent round, plus as many steps that only advance the
    sequence.  deterministic_hits and bpsw_hits count the hits by proof status.
    """

    poly: QuadPoly
    n_max: int
    hits: list[AlmostPrimeHit] = field(default_factory=list)
    unresolved: list[tuple[int, int]] = field(default_factory=list)
    primes_sieved: int = 0
    rho_calls: int = 0
    rho_giveups: int = 0

    def __iter__(self):
        return iter(self.hits)

    def __len__(self):
        return len(self.hits)

    @property
    def deterministic_hits(self) -> int:
        return sum(h.proof == "deterministic" for h in self.hits)

    @property
    def bpsw_hits(self) -> int:
        return len(self.hits) - self.deterministic_hits


def almost_prime_scan(
    F: QuadPoly,
    n_max: int,
    *,
    trial_bound: int = 1_000_000,
    rho_iterations: int = 1 << 14,
) -> ScanResult:
    """All n in [1, n_max] where F(n) is prime or a product of two primes.

    Small prime factors come from the roots of F modulo every prime up to
    trial_bound, found for all primes at once by the vectorized kernel
    primes.quadratic_roots_mod.  A prime l <= n_max marks the progression
    r, r + l, ... of each root r; a larger prime marks only its roots
    1 <= r <= n_max, so the Python work after the kernel is one step per
    marked (n, l) pair, not one per prime.  Cofactors are settled by a
    primality test and a bounded Pollard rho.  Every hit carries its checked
    factorization and its proof status; values whose cofactor resists the
    rho budget are listed in unresolved.  trial_bound is refused above
    MAX_TRIAL_BOUND, and n_max above MAX_SCAN_N.
    """
    if trial_bound > MAX_TRIAL_BOUND:
        raise ValueError(f"trial_bound is bounded at {MAX_TRIAL_BOUND}")
    if n_max > MAX_SCAN_N:
        raise ValueError(f"n_max is bounded at MAX_SCAN_N = {MAX_SCAN_N}")
    if F.a <= 0:
        raise ValueError("scan needs a positive leading coefficient")
    if not F.is_primitive():
        raise ValueError("scan needs a primitive polynomial")
    if n_max < 1:
        return ScanResult(poly=F, n_max=n_max)
    ells = sieve_primes(trial_bound)
    root_primes, roots = quadratic_roots_mod(F.a, F.b, F.c, ells)
    first = np.where(roots >= 1, roots, root_primes)  # least n >= 1 with n = r (mod l)
    marked = first <= n_max
    # pairs come in ascending l, so every small_factors[n] is ascending too
    small_factors: list[list[int]] = [[] for _ in range(n_max + 1)]
    for ell, start in zip(root_primes[marked].tolist(), first[marked].tolist()):
        for n in range(start, n_max + 1, ell):
            small_factors[n].append(ell)

    result = ScanResult(poly=F, n_max=n_max, primes_sieved=int(ells.size))
    for n in range(1, n_max + 1):
        value = F(n)
        if value < 2:
            continue
        factors: list[int] = []
        m = value
        for ell in small_factors[n]:
            if m % ell:
                raise AssertionError(f"sieve marked {ell} but it does not divide F({n})")
            while m % ell == 0:
                factors.append(ell)
                m //= ell
        if m == 1:
            if len(factors) in (1, 2):
                result.hits.append(AlmostPrimeHit(n, value, tuple(factors)))
            continue
        if len(factors) >= 2:
            continue  # at least three prime factors in total
        if is_prime(m):
            result.hits.append(AlmostPrimeHit(n, value, tuple(sorted([*factors, m]))))
            continue
        if factors:
            continue  # small prime + composite cofactor: three or more primes
        result.rho_calls += 1
        d = pollard_rho(m, rho_iterations)
        if d is None:
            result.rho_giveups += 1
            result.unresolved.append((n, value))
            continue
        p1, p2 = d, m // d
        if is_prime(p1) and is_prime(p2):
            result.hits.append(AlmostPrimeHit(n, value, tuple(sorted([p1, p2]))))
        # else: the rho factor is composite, so the value has >= 3 prime factors
    return result


def pairwise_coprime(ns: list[int]) -> bool:
    """True iff every pair of the given positive integers has gcd 1."""
    if not ns:
        raise ValueError("need a non-empty list")
    if any(n < 1 for n in ns):
        raise ValueError("entries must be positive")
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            if math.gcd(ns[i], ns[j]) != 1:
                return False
    return True
