import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from matchdens import sieveshift
from matchdens.primes import PSI, is_prime, next_prime, pollard_rho, sieve_primes, sqrt_mod
from matchdens.sieveshift import (
    MAX_SCAN_N,
    MAX_TRIAL_BOUND,
    AlmostPrimeHit,
    NoAdmissibleShiftError,
    QuadPoly,
    almost_prime_scan,
    find_shift,
    has_factor_below,
    pairwise_coprime,
    shifted_poly,
)


def primorial_below(T):
    """The product of the primes below T."""
    out = 1
    for p in sieve_primes(T - 1).tolist():
        out *= p
    return out


def test_quadpoly_validation():
    with pytest.raises(ValueError):
        QuadPoly(0, 1, 1)
    with pytest.raises(ValueError):
        QuadPoly(1, 0, -1)  # (x-1)(x+1)
    with pytest.raises(ValueError):
        QuadPoly(1, 0, 0)  # x^2
    f = QuadPoly(1, 0, 1)
    assert f(2) == 5 and f.discriminant() == -4 and f.is_primitive()
    assert not QuadPoly(2, 2, 4).is_primitive()


def test_find_shift_examples():
    f = QuadPoly(1, 0, 1)
    s5 = find_shift(f, 5)
    assert (s5.A, s5.B) == (6, 0)
    assert s5.poly.coefficients() == (36, 0, 1)
    s3 = find_shift(f, 3)
    assert (s3.A, s3.B) == (2, 0)
    with pytest.raises(NoAdmissibleShiftError):
        find_shift(QuadPoly(1, 1, 2), 3)  # even at every integer
    with pytest.raises(ValueError):
        find_shift(QuadPoly(2, 2, 4), 5)  # imprimitive input


def test_find_shift_least_residue_convention():
    # f = x^2 + 3: minimal admissible residues are 0 mod 2 and 1 mod 3
    s = find_shift(QuadPoly(1, 0, 3), 5)
    assert (s.A, s.B) == (6, 4)
    assert math.gcd(s.poly(0), 6) == 1


def test_find_shift_deterministic():
    f = QuadPoly(3, 1, 7)
    s1, s2 = find_shift(f, 20), find_shift(f, 20)
    assert (s1.A, s1.B) == (s2.A, s2.B)
    assert s1.A == primorial_below(20)


def test_shifted_poly_expansion():
    f = QuadPoly(1, 3, 5)
    exp = shifted_poly(f, 6, 1)
    assert exp.coefficients() == (36, 30, 9)
    assert all(exp(n) == f(6 * n + 1) for n in range(-3, 4))
    assert not exp.is_primitive()  # why find_shift checks f(B), not just B
    ident = shifted_poly(f, 1, 0)
    assert ident.coefficients() == f.coefficients()


def test_shift_clears_small_factors():
    for T in (10, 30):
        s = find_shift(QuadPoly(1, 0, 1), T)
        for n in range(1, 301):
            assert not has_factor_below(s.poly(n), T)


def test_scan_first_hits():
    f36 = shifted_poly(QuadPoly(1, 0, 1), 6, 0)
    scan = almost_prime_scan(f36, 40, trial_bound=10_000)
    assert (scan.hits[0].n, scan.hits[0].value, scan.hits[0].factors) == (1, 37, (37,))
    assert (scan.hits[1].n, scan.hits[1].value, scan.hits[1].factors) == (2, 145, (5, 29))
    for h in scan.hits:
        assert math.prod(h.factors) == h.value


def test_scan_rejects_reducible():
    with pytest.raises(ValueError):
        QuadPoly(1, 0, 0)  # n^2 is rejected at the type level
    neg = QuadPoly(-1, 0, -1)
    with pytest.raises(ValueError):
        almost_prime_scan(neg, 10)


def test_scan_counts_multiplicity():
    # 36 n^2 + 1 at n=24: 20737 = 89 * 233; semiprime with distinct factors
    f36 = shifted_poly(QuadPoly(1, 0, 1), 6, 0)
    scan = almost_prime_scan(f36, 24, trial_bound=1000)
    by_n = {h.n: h for h in scan.hits}
    assert by_n[24].factors == (89, 233)
    # squares of primes also count: factors with multiplicity
    sq_scan = almost_prime_scan(QuadPoly(1, 1, 41), 50, trial_bound=10)
    squares = [h for h in sq_scan.hits if len(h.factors) == 2 and h.factors[0] == h.factors[1]]
    assert squares and all(h.factors[0] ** 2 == h.value for h in squares)


def test_hit_self_verification():
    with pytest.raises(ValueError):
        AlmostPrimeHit(n=1, value=35, factors=(5, 9))
    with pytest.raises(ValueError):
        AlmostPrimeHit(n=1, value=30, factors=(2, 3, 5))
    AlmostPrimeHit(n=1, value=35, factors=(5, 7))


def test_hit_proof_status():
    assert AlmostPrimeHit(n=1, value=35, factors=(5, 7)).proof == "deterministic"
    below = next_prime(PSI[-1] // 3)  # 3 * below < PSI[-1] < below^2
    assert AlmostPrimeHit(n=1, value=below, factors=(below,)).proof == "deterministic"
    above = next_prime(PSI[-1])
    assert AlmostPrimeHit(n=1, value=above, factors=(above,)).proof == "bpsw"
    assert AlmostPrimeHit(n=1, value=3 * above, factors=(3, above)).proof == "bpsw"
    with pytest.raises(ValueError, match="not prime"):  # psi_12, a strong pseudoprime to 12 bases
        AlmostPrimeHit(n=1, value=PSI[11], factors=(PSI[11],))


def test_scan_counts_hits_by_proof_status():
    small = almost_prime_scan(find_shift(QuadPoly(1, 0, 1), 10).poly, 200)
    assert small.deterministic_hits == len(small) > 0 and small.bpsw_hits == 0
    large = almost_prime_scan(find_shift(QuadPoly(1, 0, 1), 50).poly, 30, rho_iterations=1 << 8)
    assert large.bpsw_hits == sum(h.proof == "bpsw" for h in large) > 0
    assert large.deterministic_hits + large.bpsw_hits == len(large)


# sha256 over the (n, value, factors) of every hit, the unresolved values,
# rho_calls and rho_giveups of each scan below, taken before is_prime moved to
# the psi_k tiers and Baillie-PSW and before rho took two steps per reduction
SCAN_POLYS = [(1, 0, 1), (3, -7, 11), (2, -29, 37), (5, 3, -41)]
SCANS_SHA256 = "c7fa65ee3f090545b457b5f644c7bd48766beab0e8c32b89f5341e4ebb5b7f13"


def test_scans_pinned():
    rows = []
    for f in SCAN_POLYS:
        for T, n_max in ((10, 600), (50, 80)):
            scan = almost_prime_scan(find_shift(QuadPoly(*f), T).poly, n_max)
            hits = [(h.n, h.value, h.factors) for h in scan.hits]
            rows.append((hits, scan.unresolved, scan.rho_calls, scan.rho_giveups))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SCANS_SHA256


def test_pairwise_coprime():
    assert pairwise_coprime([11, 37, 389])
    assert pairwise_coprime([6, 35, 143])
    assert not pairwise_coprime([10, 15])
    with pytest.raises(ValueError):
        pairwise_coprime([])
    with pytest.raises(ValueError):
        pairwise_coprime([0, 3])


@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6))
def test_pairwise_coprime_matches_bruteforce(ns):
    brute = all(
        math.gcd(ns[i], ns[j]) == 1
        for i in range(len(ns))
        for j in range(i + 1, len(ns))
    )
    assert pairwise_coprime(ns) is brute


def test_primorial():
    assert primorial_below(10) == 2 * 3 * 5 * 7
    assert primorial_below(3) == 2


def _reference_roots(F, ell):
    """Roots of F mod ell, one prime at a time."""
    if ell <= 64:
        return [r for r in range(ell) if F(r) % ell == 0]
    a, b, c = F.a % ell, F.b % ell, F.c % ell
    if a == 0:
        return [] if b == 0 else [(-c) * pow(b, -1, ell) % ell]
    s = sqrt_mod((b * b - 4 * a * c) % ell, ell)
    if s is None:
        return []
    inv2a = pow(2 * a, -1, ell)
    return sorted({(-b + s) * inv2a % ell, (-b - s) * inv2a % ell})


def _reference_scan(F, n_max, trial_bound, rho_iterations):
    """The scan with a per-prime root loop: (hits as tuples, unresolved)."""
    small_factors = [[] for _ in range(n_max + 1)]
    for ell in sieve_primes(trial_bound).tolist():
        for r in _reference_roots(F, ell):
            for n in range(r if r >= 1 else r + ell, n_max + 1, ell):
                small_factors[n].append(ell)
    hits, unresolved = [], []
    for n in range(1, n_max + 1):
        value, factors = F(n), []
        m = value
        for ell in small_factors[n]:
            while m % ell == 0:
                factors.append(ell)
                m //= ell
        if m == 1:
            if len(factors) in (1, 2):
                hits.append((n, value, tuple(factors)))
        elif len(factors) < 2 and is_prime(m):
            hits.append((n, value, tuple(sorted([*factors, m]))))
        elif not factors:
            d = pollard_rho(m, rho_iterations)
            if d is None:
                unresolved.append((n, value))
            elif is_prime(d) and is_prime(m // d):
                hits.append((n, value, tuple(sorted([d, m // d]))))
    return hits, unresolved


@pytest.mark.parametrize(
    "f,T,n_max",
    [
        ((1, 0, 1), 10, 600),
        ((3, -7, 11), 13, 600),
        ((77, 3, 1), None, 600),  # unshifted: 7 | a and 11 | a give linear roots
        ((1, 0, 1), 50, 80),
        ((2, -29, 37), 53, 80),
        ((6, 1, -59), 47, 80),
    ],
)
def test_scan_matches_per_prime_reference(f, T, n_max):
    F = find_shift(QuadPoly(*f), T).poly if T else QuadPoly(*f)
    scan = almost_prime_scan(F, n_max, trial_bound=200_000, rho_iterations=1 << 10)
    hits, unresolved = _reference_scan(F, n_max, 200_000, 1 << 10)
    assert [(h.n, h.value, h.factors) for h in scan.hits] == hits
    assert scan.unresolved == unresolved
    assert scan.primes_sieved == len(sieve_primes(200_000))
    assert scan.rho_giveups == len(scan.unresolved) <= scan.rho_calls


def test_scan_refuses_trial_bound_above_max(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit} before refusing")

    monkeypatch.setattr(sieveshift, "sieve_primes", no_sieve)
    f36 = shifted_poly(QuadPoly(1, 0, 1), 6, 0)
    with pytest.raises(ValueError, match="trial_bound"):
        almost_prime_scan(f36, 10, trial_bound=10**15)
    with pytest.raises(ValueError, match="trial_bound"):
        almost_prime_scan(f36, 10, trial_bound=MAX_TRIAL_BOUND + 1)


def test_scan_refuses_n_max_above_max(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit} before refusing")

    monkeypatch.setattr(sieveshift, "sieve_primes", no_sieve)
    f36 = shifted_poly(QuadPoly(1, 0, 1), 6, 0)
    for n_max in (MAX_SCAN_N + 1, 10**12):
        with pytest.raises(ValueError, match="MAX_SCAN_N"):
            almost_prime_scan(f36, n_max)
