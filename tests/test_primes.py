import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matchdens.primes import (
    KERNEL_PRIME_LIMIT,
    crt,
    factorize,
    factorize_small,
    is_prime,
    legendre,
    next_prime,
    pollard_rho,
    primes_below,
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
    factors, leftover = factorize(2**5 * 3 * 5**2 * 101)
    assert leftover == 1
    assert factors == {2: 5, 3: 1, 5: 2, 101: 1}
    # a 120-bit semiprime with both factors far above any budget this small
    p = next_prime(2**60)
    q = next_prime(2**60 + 10**9)
    factors, leftover = factorize(p * q, trial_bound=1000, rho_iterations=4)
    assert leftover == p * q and factors == {}


def test_primes_below():
    assert primes_below(12) == [2, 3, 5, 7, 11]
    assert primes_below(2) == []


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
        assert len(rs) == 1 + legendre(b * b - 4 * a * c, ell)


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
def test_factorize_small_multiplies_back(n):
    pairs = factorize_small(n)
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(_is_prime_trial(p) and e >= 1 for p, e in pairs)
    assert math.prod(p**e for p, e in pairs) == n


def test_primitive_root_is_least_generator():
    for p in primes_below(500):
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
    for p in primes_below(3001)[1:]:
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
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
