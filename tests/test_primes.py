import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matchdens import primes
from matchdens.sieveshift import AlmostPrimeHit
from matchdens.primes import (
    KERNEL_PRIME_LIMIT,
    PSI,
    SIEVE_LIMIT,
    TRIAL_LIMIT,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    crt,
    factorize,
    is_prime,
    jacobi,
    next_prime,
    pollard_rho,
    primitive_root,
    quadratic_roots_mod,
    sieve_primes,
    sqrt_mod,
    totient,
)

# every prime up to 10^4, plus 65537 = 2^16 + 1 and 786433 = 3 * 2^18 + 1,
# whose 2-Sylow subgroups drive Tonelli-Shanks through its deepest loops
KERNEL_TEST_PRIMES = np.concatenate([sieve_primes(10**4), [65537, 786433]])
COEFF = 1 << 140


def _is_prime_trial(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_sieve_matches_trial_division():
    got = list(sieve_primes(500))
    assert got == [n for n in range(501) if _is_prime_trial(n)]


# sha256 over the sha256 of each sieve's int64 bytes, at these limits in
# ascending and then descending order, taken while every limit had its own
# cached array
SIEVE_LIMITS = [0, 1, 2, 3, 10, 100, 7919, 10**4, 123457, 10**6]
SIEVES_SHA256 = "ee4f67dc89c729f21de968973fd2240b3fbc4fbf325d0f019ae10e8d0e8b52f5"


def test_sieves_pinned(monkeypatch):
    monkeypatch.setattr(primes, "_table", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(primes, "_table_limit", 1)
    digests = [
        hashlib.sha256(sieve_primes(limit).astype(np.int64).tobytes()).hexdigest()
        for limit in SIEVE_LIMITS + SIEVE_LIMITS[::-1]
    ]
    assert hashlib.sha256(repr(digests).encode()).hexdigest() == SIEVES_SHA256


def test_sieve_results_are_read_only():
    ps = sieve_primes(100)
    with pytest.raises(ValueError):
        ps[0] = 4
    assert sieve_primes(100)[0] == 2


def test_sieves_share_one_table(monkeypatch):
    monkeypatch.setattr(primes, "_table", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(primes, "_table_limit", 1)
    tracemalloc.start()
    try:
        for k in range(8):  # ascending: each limit grows the table
            sieve_primes(10**7 - 7000 + 1000 * k)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table = sieve_primes(10**7)
    assert np.shares_memory(table, primes._table)
    assert current <= 1.1 * primes._table.nbytes


def test_sieve_refuses_past_its_limit_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="SIEVE_LIMIT"):
            sieve_primes(SIEVE_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (341, False),          # 11 * 31, base-2 Fermat pseudoprime
        (561, False),          # Carmichael
        (3215031751, False),   # strong pseudoprime to bases 2,3,5,7
        (2**61 - 1, True),     # Mersenne prime
        (10**18 + 9, True),
    ],
)
def test_is_prime_edge_cases(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_the_sieve_below_a_million():
    n = 10**6
    sieved = np.zeros(n, dtype=bool)
    sieved[sieve_primes(n - 1)] = True
    assert [m for m in range(n) if is_prime(m)] == np.flatnonzero(sieved).tolist()


# OEIS A014233: psi_k, the least odd composite that is a strong probable
# prime to each of the first k prime bases
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_test(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return _strong_probable_prime(n, base, d, s)


def _trial_division(n):
    """Primality by numpy trial division with every prime up to sqrt(n)."""
    ps = sieve_primes(math.isqrt(n))
    return n > 1 and not np.any(n % ps == 0)


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_rejects_each_psi(k):
    psi = A014233[k - 1]
    assert PSI[k - 1] == psi
    assert is_prime(psi) is False
    # the first k bases accept psi_k: it is the pseudoprime the tier guards
    assert all(_strong_test(psi, a) for a in FIRST_13_PRIMES[:k])
    if math.isqrt(psi + 2) <= 10**7:
        for n in (psi - 2, psi + 2):
            assert is_prime(n) is _trial_division(n), n


def test_the_psi12_pseudoprime_is_no_hit():
    psi12 = 399165290221 * 798330580441
    assert psi12 == A014233[11]
    assert is_prime(399165290221) and is_prime(798330580441)
    assert factorize(psi12) == ([], psi12)  # unresolved within the rho budget, not a prime
    with pytest.raises(ValueError, match="not prime"):
        AlmostPrimeHit(1, psi12, (psi12,))


def _odd_composites_below(n):
    sieved = np.zeros(n, dtype=bool)
    sieved[sieve_primes(n - 1)] = True
    return [m for m in range(9, n, 2) if not sieved[m]]


def test_strong_base_2_pseudoprimes_below_1e5():
    # OEIS A001262
    assert [n for n in _odd_composites_below(10**5) if _strong_test(n, 2)] == [
        2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
        74665, 80581, 85489, 88357, 90751,
    ]


def test_strong_lucas_pseudoprimes_below_1e5():
    # OEIS A217255: Selfridge's method A
    assert [n for n in _odd_composites_below(10**5) if _strong_lucas_probable_prime(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    ]


def test_strong_lucas_accepts_primes():
    assert all(_strong_lucas_probable_prime(p) for p in sieve_primes(20000)[1:].tolist())


def _euler(a, p):
    """The Legendre symbol (a|p) at an odd prime p, by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@settings(max_examples=200)
@given(st.integers(-(10**30), 10**30), st.sampled_from(sieve_primes(10**5)[1:].tolist() + [(1 << 61) - 1]))
def test_jacobi_matches_euler_criterion(a, p):
    assert jacobi(a, p) == _euler(a, p)


def test_jacobi_matches_legendre_products():
    for n in range(1, 200, 2):
        for a in range(-50, 50):
            expected = math.prod(_euler(a, p) ** e for p, e in factorize(n)[0])
            assert jacobi(a, n) == expected, (a, n)


def _bpsw(n):
    return _strong_test(n, 2) and _strong_lucas_probable_prime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1 << 64, PSI[-1] - 2))
def test_bpsw_agrees_with_tiered_miller_rabin(n):
    n |= 1
    p = next_prime(n)
    if p < PSI[-1]:
        assert _bpsw(p) and is_prime(p)
    assert _bpsw(n) is is_prime(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1 << 40, (1 << 40) + (1 << 36)), st.integers(1 << 40, (1 << 40) + (1 << 36)))
def test_bpsw_rejects_products_of_two_primes_near_2_40(a, b):
    n = next_prime(a) * next_prime(b)
    assert not _bpsw(n) and not is_prime(n)


def test_next_prime_examples():
    assert next_prime(0) == 2
    assert next_prime(1) == 2
    assert next_prime(7) == 11
    assert next_prime(10**6) == 1000003


def test_next_prime_against_trial_oracle():
    n = 10**6
    candidate = n + 1
    while not _is_prime_trial(candidate):
        candidate += 1
    assert next_prime(n) == candidate


@given(st.integers(min_value=0, max_value=20_000))
def test_next_prime_property(n):
    p = next_prime(n)
    assert p > n and _is_prime_trial(p)
    assert all(not _is_prime_trial(m) for m in range(n + 1, p))


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([3, 5, 7, 11, 101, 65537]))
def test_sqrt_mod_roundtrip(a, p):
    r = sqrt_mod(a, p)
    if r is None:
        assert pow(a % p, (p - 1) // 2, p) == p - 1
    else:
        assert r * r % p == a % p


def test_crt_least_solution():
    x, m = crt([0, 1], [2, 3])
    assert (x, m) == (4, 6)
    x, m = crt([2, 3, 2], [3, 5, 7])
    assert x % 3 == 2 and x % 5 == 3 and x % 7 == 2 and 0 <= x < m == 105
    with pytest.raises(ValueError):
        crt([0, 0], [4, 6])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(1, 50)), min_size=1, max_size=3))
def test_crt_matches_brute_force(pairs):
    residues, moduli = [r for r, _ in pairs], [m for _, m in pairs]
    assume(all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :]))
    m = math.prod(moduli)
    x = next(x for x in range(m) if all((x - r) % mod == 0 for r, mod in pairs))
    assert crt(residues, moduli) == (x, m)


def test_pollard_rho_on_semiprimes():
    n = 10007 * 10009
    d = pollard_rho(n)
    assert d in (10007, 10009)
    big = 1_000_003 * 1_000_033
    d = pollard_rho(big)
    assert d in (1_000_003, 1_000_033)


def pollard_rho_reference(n: int, max_iterations: int = 1 << 18) -> int | None:
    """pollard_rho as written with |x - y|, kept as a reference."""
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < max_iterations:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                count += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if count >= max_iterations:
            return None
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10**6), st.integers(3, 10**6), st.sampled_from([1 << 6, 1 << 10, 1 << 14]))
def test_pollard_rho_matches_absolute_difference_reference(a, b, budget):
    # gcd(q (x - y) mod n, n) = gcd(q |x - y| mod n, n): same factor, same give-up
    n = (2 * a + 1) * (2 * b + 1)
    assert pollard_rho(n, budget) == pollard_rho_reference(n, budget)


def test_pollard_rho_matches_reference_on_small_composites():
    # small n often close the cycle of every factor in one batch (g = n),
    # which sends rho back over the batch one gcd at a time
    for n in range(9, 4000, 2):
        if not is_prime(n):
            assert pollard_rho(n, 1 << 10) == pollard_rho_reference(n, 1 << 10)


def test_factorize_complete_and_unresolved():
    assert factorize(2**5 * 3 * 5**2 * 101) == ([(2, 5), (3, 1), (5, 2), (101, 1)], 1)
    assert factorize(1) == ([], 1)
    # prime factors above TRIAL_LIMIT, which trial division leaves to rho: a square, and a product of two
    big, other = next_prime(TRIAL_LIMIT), next_prime(10**6)
    assert factorize(12 * big**2) == ([(2, 2), (3, 1), (big, 2)], 1)
    assert factorize(7 * big * other) == ([(7, 1), (big, 1), (other, 1)], 1)
    # a 120-bit semiprime whose factors rho cannot reach within RHO_ITERATIONS
    p = next_prime(2**60)
    q = next_prime(2**60 + 10**9)
    assert factorize(45 * p * q) == ([(3, 2), (5, 1)], p * q)
    with pytest.raises(ValueError):
        factorize(0)


def _brute_roots(a, b, c, ells):
    pairs = []
    for ell in ells.tolist():
        r = np.arange(ell, dtype=np.int64)
        values = ((a % ell * r + b % ell) % ell * r + c % ell) % ell
        pairs += [(ell, int(x)) for x in np.flatnonzero(values == 0)]
    return pairs


@st.composite
def _quadratics(draw):
    """Primitive irreducible quadratics with ~140-bit coefficients, forced
    some of the time to have l | a, l | a and l | b, or l | disc for a test prime l."""
    ell = draw(st.sampled_from(KERNEL_TEST_PRIMES.tolist()))
    a = draw(st.integers(-COEFF, COEFF).filter(bool))
    b, c = draw(st.integers(-COEFF, COEFF)), draw(st.integers(-COEFF, COEFF))
    case = draw(st.sampled_from(["random", "l|a", "l|a,b", "l|disc"]))
    if case in ("l|a", "l|a,b"):
        a = ell * (a // ell or 1)
    if case == "l|a,b":
        b = ell * (b // ell)
    if case == "l|disc":  # a (x - r)^2 + l (u x + v): a double root r mod l
        r = draw(st.integers(0, ell - 1))
        b, c = -2 * a * r + ell * b, a * r * r + ell * c
    disc = b * b - 4 * a * c
    assume(math.gcd(math.gcd(a, b), c) == 1)
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    return a, b, c


@settings(max_examples=40, deadline=None)
@given(_quadratics())
def test_quadratic_roots_match_brute_force(coeffs):
    ells, roots = quadratic_roots_mod(*coeffs, KERNEL_TEST_PRIMES)
    assert list(zip(ells.tolist(), roots.tolist())) == _brute_roots(*coeffs, KERNEL_TEST_PRIMES)


def test_quadratic_roots_above_single_reduction_range():
    # primes above 2^21 take the two-reduction products; a root set is right
    # when every entry is a root and the count is what the discriminant says
    ells = np.array([p for p in range(3 << 29, (3 << 29) + 3000) if is_prime(p)], dtype=np.int64)
    a, b, c = 3 * COEFF + 7, -(COEFF + 11), 5 * COEFF + 1
    got, roots = quadratic_roots_mod(a, b, c, ells)
    for ell in ells.tolist():
        rs = roots[got == ell].tolist()
        assert all((a * r * r + b * r + c) % ell == 0 for r in rs)
        assert len(rs) == 1 + _euler(b * b - 4 * a * c, ell)


def test_quadratic_roots_input_checks():
    ells = sieve_primes(100)
    with pytest.raises(ValueError):
        quadratic_roots_mod(6, 3, 9, ells)  # content 3
    with pytest.raises(ValueError):
        quadratic_roots_mod(1, 0, 1, ells[::-1])
    with pytest.raises(ValueError):
        quadratic_roots_mod(1, 0, 1, np.array([KERNEL_PRIME_LIMIT + 11]))
    got, roots = quadratic_roots_mod(1, 0, 1, ells[:0])
    assert got.size == roots.size == 0
    got, roots = quadratic_roots_mod(1, 1, 2, ells[:1])  # x^2 + x + 2 is even everywhere
    assert got.tolist() == [2, 2] and roots.tolist() == [0, 1]


@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_multiplies_back(n):
    pairs, unresolved = factorize(n)
    assert unresolved == 1
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(_is_prime_trial(p) and e >= 1 for p, e in pairs)
    assert math.prod(p**e for p, e in pairs) == n


def test_primitive_root_is_least_generator():
    for p in sieve_primes(499).tolist():
        orders = []
        for g in range(1, p):
            k, x = 1, g
            while x != 1:
                x = x * g % p
                k += 1
            orders.append(k)
        assert primitive_root(p) == 1 + orders.index(p - 1), p


def _order(g, n):
    k, x = 1, g
    while x != 1:
        x = x * g % n
        k += 1
    return k


def test_primitive_root_of_odd_prime_powers_is_least_generator():
    for p in sieve_primes(3000)[1:].tolist():
        pk = p
        while pk <= 3000:
            phi = sum(1 for g in range(pk) if math.gcd(g, pk) == 1)
            assert primitive_root(pk) == next(
                g for g in range(2, pk) if math.gcd(g, pk) == 1 and _order(g, pk) == phi
            ), pk
            pk *= p
    assert primitive_root(2) == 1
    with pytest.raises(ValueError, match="not cyclic"):
        primitive_root(8)


def test_totient_counts_units():
    for n in range(1, 2001):
        assert totient(n) == sum(1 for g in range(n) if math.gcd(g, n) == 1), n


def test_legendre_symbol():
    assert [jacobi(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
