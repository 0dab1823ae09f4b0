"""Prime sieving, deterministic primality testing, and integer factorization helpers."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Deterministic Miller-Rabin witness sets.  The first twelve primes certify
# every n < 3.317e24 (Sorenson-Webster); beyond that we fall back to the first
# forty primes, which is no longer a proof but leaves no realistic doubt.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_ROUNDS_LARGE = 40


@lru_cache(maxsize=8)
def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (simple numpy Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if mask[i]:
            mask[i * i :: i] = False
    return np.nonzero(mask)[0].astype(np.int64)


def primes_below(bound: int) -> list[int]:
    """Primes strictly below bound, as plain ints."""
    if bound <= 2:
        return []
    ps = sieve_primes(bound - 1)
    return [int(p) for p in ps]


@lru_cache(maxsize=2)
def _first_primes(count: int) -> tuple[int, ...]:
    limit = max(100, int(count * (math.log(count) + math.log(math.log(count + 2)) + 2)))
    ps = sieve_primes(limit)
    while len(ps) < count:
        limit *= 2
        ps = sieve_primes(limit)
    return tuple(int(p) for p in ps[:count])


def is_prime(n: int) -> bool:
    """Primality test: trial division by tiny primes, then Miller-Rabin.

    Deterministic for n < 3.317e24; for larger n uses a fixed 40-prime witness
    list (reproducible, overwhelmingly reliable, not a certificate).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES_64:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES_64 if n < _DETERMINISTIC_LIMIT else _first_primes(_MR_ROUNDS_LARGE)
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n (n >= 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < 2:
        return 2
    candidate = n + 1
    if candidate % 2 == 0:
        if candidate == 2:
            return 2
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo prime p (Tonelli-Shanks), or None if a is a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


# The root kernel multiplies residues in int64: below 2^31 a product of two
# residues stays below 2^62, and a Horner step acc * 2^32 + limb below 2^63.
KERNEL_PRIME_LIMIT = 1 << 31
_KERNEL_CHUNK = 8192  # primes per pass; keeps every temporary array at 64 KiB
_ODD_PRIMES_BELOW_1000 = tuple(p for p in range(3, 1000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))


def quadratic_roots_mod(a: int, b: int, c: int, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every root of a x^2 + b x + c modulo each prime in ells, all at once.

    ells is a strictly ascending int64 array of primes below
    KERNEL_PRIME_LIMIT, and the polynomial must be primitive (no prime
    divides a, b and c).  Returns (primes, roots): two int64 arrays listing
    each pair (l, r) with 0 <= r < l and a r^2 + b r + c = 0 (mod l), in
    ascending order of l and then r.  l = 2 is checked directly; for odd l
    the coefficients are reduced by Horner's rule over 32-bit limbs, the
    linear case l | a is solved by an inverse, and the quadratic case by the
    Euler criterion on the discriminant and a vectorized Tonelli-Shanks, all
    in exact int64 arithmetic.
    """
    if math.gcd(math.gcd(a, b), c) != 1:
        raise ValueError("the polynomial must be primitive")
    ells = np.asarray(ells, dtype=np.int64)
    if ells.size and (ells[0] < 2 or ells[-1] >= KERNEL_PRIME_LIMIT or np.any(ells[1:] <= ells[:-1])):
        raise ValueError(f"ells must be strictly ascending primes below {KERNEL_PRIME_LIMIT}")
    out_l, out_r = [], []
    if ells.size and ells[0] == 2:
        out_r.append(np.array([r for r in (0, 1) if (a * r * r + b * r + c) % 2 == 0], dtype=np.int64))
        out_l.append(np.full(out_r[-1].size, 2, dtype=np.int64))
        ells = ells[1:]
    for start in range(0, ells.size, _KERNEL_CHUNK):
        chunk_l, chunk_r = _odd_roots(a, b, c, ells[start : start + _KERNEL_CHUNK])
        out_l.append(chunk_l)
        out_r.append(chunk_r)
    if not out_l:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(out_l), np.concatenate(out_r)


def _odd_roots(a: int, b: int, c: int, ell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """quadratic_roots_mod for one chunk of odd primes."""
    a, b, c = (_residues(x, ell) for x in (a, b, c))
    linear = a == 0
    # the linear root is -c/b, the quadratic ones (-b +- sqrt(disc))/(2a)
    den = np.where(linear, b, 2 * a % ell)
    inv = _powmod(np.where(den == 0, 1, den), ell - 2, ell)
    disc = (b * b - 4 * a % ell * c) % ell
    quad = np.flatnonzero(~linear & (disc != 0))
    sqrt, is_square = np.zeros_like(ell), linear | (disc == 0)
    sqrt[quad], is_square[quad] = _sqrt_mod_vec(disc[quad], ell[quad])
    r1 = np.where(linear, ell - c, ell - b + sqrt) * inv % ell
    r2 = (2 * ell - b - sqrt) * inv % ell
    has1 = is_square & (den != 0)
    has2 = ~linear & is_square & (disc != 0)
    pairs_l = np.stack([ell, ell], axis=1)
    pairs_r = np.stack([np.where(has2, np.minimum(r1, r2), r1), np.maximum(r1, r2)], axis=1)
    keep = np.stack([has1, has2], axis=1)
    return pairs_l[keep], pairs_r[keep]


def _residues(n: int, ell: np.ndarray) -> np.ndarray:
    """n mod each ell, by Horner's rule over the 32-bit limbs of |n|."""
    limbs = abs(n).to_bytes(4 * ((abs(n).bit_length() + 31) // 32), "big")
    acc = np.zeros_like(ell)
    for limb in np.frombuffer(limbs, dtype=">u4").tolist():
        acc = ((acc << 32) + limb) % ell
    return (ell - acc) % ell if n < 0 else acc


def _powmod(x: np.ndarray, e: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """x^e mod ell elementwise, by left-to-right binary exponentiation.

    Each step multiplies r*r by x^bit; below 2^21 the three residues multiply
    to less than 2^63, so one reduction serves the whole step.
    """
    r = np.ones_like(x)
    x_minus_1 = x - 1
    one_reduction = ell.max(initial=0) < 1 << 21
    for k in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        factor = ((e >> k) & 1) * x_minus_1 + 1
        r = r * r * factor % ell if one_reduction else r * r % ell * factor % ell
    return r


def _sqrt_mod_vec(x: np.ndarray, ell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, is_square) for non-zero x mod odd primes ell, by Tonelli-Shanks.

    Where is_square, s * s = x (mod ell); elsewhere x is a non-residue.
    """
    # ell - 1 = q * 2^e with q odd; frexp reads e off the lowest set bit
    e = np.frexp((ell - 1) & (1 - ell))[1].astype(np.int64) - 1
    q = (ell - 1) >> e
    u = _powmod(x, (q - 1) >> 1, ell)
    s = u * x % ell  # x^((q+1)/2)
    t = u * s % ell  # x^q, whose order divides 2^e
    is_square = np.ones(x.size, dtype=bool)
    idx = np.flatnonzero(t != 1)
    ell, t, r, m = ell[idx], t[idx], s[idx], e[idx]
    i = _order_log2(t, ell)
    is_square[idx[i == m]] = False  # t has order 2^e: x is a non-residue
    idx, ell, t, r, m, i = (v[i < m] for v in (idx, ell, t, r, m, i))
    z = _powmod(_least_nonresidue(ell), q[idx], ell)  # generates the 2-Sylow subgroup
    while idx.size:
        steps = m - i - 1
        for k in range(int(steps.max())):
            z = np.where(k < steps, z * z % ell, z)
        r = r * z % ell
        z = z * z % ell
        t = t * z % ell
        m = i
        done = t == 1
        s[idx[done]] = r[done]
        idx, ell, t, r, m, z = (v[~done] for v in (idx, ell, t, r, m, z))
        i = _order_log2(t, ell)
    return s, is_square


def _order_log2(t: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Least i >= 1 with t^(2^i) = 1 (mod ell), for t != 1 of 2-power order."""
    i = np.zeros_like(t)
    idx = np.arange(t.size)
    k = 0
    while idx.size:
        k += 1
        t = t * t % ell
        done = t == 1
        i[idx[done]] = k
        idx, t, ell = idx[~done], t[~done], ell[~done]
    return i


def _least_nonresidue(ell: np.ndarray) -> np.ndarray:
    """Least prime quadratic non-residue mod each prime ell = 1 (mod 4).

    By reciprocity, (p|l) = (l mod p | p) for odd p when l = 1 (mod 4), and
    (2|l) = -1 exactly when l = 5 (mod 8).
    """
    z = np.where(ell % 8 == 5, 2, 0)
    for p in _ODD_PRIMES_BELOW_1000:
        todo = np.flatnonzero(z == 0)
        if not todo.size:
            return z
        nonresidue = np.ones(p, dtype=bool)
        nonresidue[[k * k % p for k in range(p)]] = False
        z[todo[nonresidue[ell[todo] % p]]] = p
    # unreachable below KERNEL_PRIME_LIMIT: the least non-residue of a prime
    # below 2^31 is at most 73 (OEIS A000229), and below 2 ln^2 l < 1000
    # under GRH (Bach 1990)
    raise ArithmeticError("no quadratic non-residue below 1000")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for an odd prime p (Euler's criterion)."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def factorize_small(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 in ascending order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(n: int) -> int:
    """Euler's phi: the number of units mod n >= 1."""
    out = n
    for p, _ in factorize_small(n):
        out = out // p * (p - 1)
    return out


def primitive_root(n: int) -> int:
    """The smallest g >= 1 that generates the units mod n, for n a prime or an
    odd prime power (1 for n = 2).  ValueError when the units mod n are not
    cyclic."""
    order = totient(n)
    factors = [q for q, _ in factorize_small(order)]
    for g in range(1, n):
        if math.gcd(g, n) == 1 and all(pow(g, order // q, n) != 1 for q in factors):
            return g
    raise ValueError(f"the units mod {n} are not cyclic")


def crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Least non-negative x with x = r_i (mod m_i), and prod m_i.

    pow raises ValueError when the moduli are not pairwise coprime.
    """
    if not residues or len(residues) != len(moduli):
        raise ValueError("need matching non-empty residue/modulus lists")
    x, m = residues[0] % moduli[0], moduli[0]
    for r, mod in zip(residues[1:], moduli[1:]):
        x += (r - x) * pow(m, -1, mod) % mod * m
        m *= mod
    return x, m


def pollard_rho(n: int, max_iterations: int = 1 << 18) -> int | None:
    """Brent-cycle Pollard rho: a non-trivial factor of composite n, or None.

    Fully deterministic: the polynomial offset c walks 1, 2, 3, ... so reruns
    are bit-identical.
    """
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
                    q = q * (x - y) % n
                count += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
        if count >= max_iterations:
            return None
    return None


def factorize(
    n: int,
    trial_bound: int = 100_000,
    rho_iterations: int = 1 << 14,
) -> tuple[dict[int, int], int]:
    """Factor n into primes below trial_bound plus rho-discovered factors.

    Returns (factors, unresolved) where factors maps prime -> multiplicity and
    unresolved is a leftover composite cofactor (1 when fully factored).
    Values whose remaining cofactor resists the rho budget are surfaced in
    unresolved rather than guessed at.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    factors: dict[int, int] = {}
    for p in primes_below(trial_bound + 1):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors, 1
    stack = [n]
    unresolved = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = pollard_rho(m, rho_iterations)
        if d is None:
            unresolved *= m
            continue
        stack.append(d)
        stack.append(m // d)
    return factors, unresolved
