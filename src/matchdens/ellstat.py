"""Empirical Chebotarev statistics for elliptic curves.

For a curve y^2 = x^3 + ax + b and a torsion prime p, every good prime q
yields a Frobenius sample: the trace a_q (from point counting over F_q) plus
the class type of Frobenius inside GL2(F_p), read off the characteristic
polynomial x^2 - a_q x + q mod p.  Split and non-split regular classes are
distinguished by the discriminant a_q^2 - 4q mod p (gl2fp.eigenvalue_kind,
which covers p = 2 too); a vanishing discriminant leaves scalar and
non-semisimple images indistinguishable at this level, so those samples are
reported as ambiguous and compared against the combined expectation
p/(p^2-1).

Traces come from baby-step giant-step point counting, vectorized across all
primes of a histogram in int64 numpy lanes (O(q^(1/4)) point operations per
prime, Mestre's point-or-twist argument to read a_q); q <= 229 and the rare
prime that four points leave ambiguous are counted by the O(q) character
sum.  Giant steps start from t G, G = (2m + 1) P and t the integer nearest
(q + 1) / (2m + 1), and each lane's giant steps are matched against its own
baby steps.  Each kernel call holds at most CHUNK_BYTES of step tables, so
the first pass of a histogram up to q_max = 20,500 is one call.  Every entry
point refuses q (or q_max) >= MAX_Q = 2^21.  The conductor-37 histogram at
q <= 2e5 (17,980 good primes) takes about 0.17 s on a 2-core Xeon, against
14 s for the character sum alone.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import sqrt
from typing import NamedTuple

import numpy as np

from .gl2fp import CENTRAL, NONSEMISIMPLE, NONSPLIT, REPEATED, SPLIT, class_type_fractions, eigenvalue_kind
from .primes import _powmod, _residues, factorize, sieve_primes, sqrt_mod

AMBIGUOUS = "ambiguous"
# below 2^21 any three residues multiply to less than 2^63, so every product
# in the point-counting kernels is exact in int64
MAX_Q = 2**21
NAIVE_MAX_Q = 2**12  # count_points_naive loops over q^2 pairs (x, y) in Python


class BadReductionError(ValueError):
    """The requested prime divides the discriminant (or is 2 or 3)."""


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a x + b over Q, with an optional declared conductor."""

    a: int
    b: int
    conductor: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.discriminant() == 0:
            raise ValueError("singular curve: discriminant is zero")
        if self.conductor is not None:
            factors, leftover = factorize(self.conductor)
            if leftover != 1:
                raise ValueError("could not fully factor the declared conductor")
            if any(e > 1 for _, e in factors):
                raise ValueError(
                    f"declared conductor {self.conductor} is not square-free "
                    "(the curve would not be semistable)"
                )

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def has_good_reduction(self, q: int) -> bool:
        return q > 3 and self.discriminant() % q != 0


def count_points(curve: Curve, q: int) -> int:
    """#E(F_q) including the point at infinity, counted as by point_counts.

    Refuses bad primes with BadReductionError and q >= MAX_Q with ValueError.
    """
    return point_counts(curve, [q])[0]


def point_counts(curve: Curve, qs) -> list[int]:
    """#E(F_q) for each q in qs, in order, by baby-step giant-step.

    Every q is checked (good reduction, q < MAX_Q) before anything is
    allocated; the first q that fails raises.  All q > MESTRE_Q run through
    one BSGS kernel in int64 numpy lanes, one lane per q and point, O(q^(1/4))
    point operations each: first one point per lane, then the next
    POINTS_PER_LANE - 1 points of every lane left ambiguous, all in a second
    pass.  Lanes that no point resolves, and every q <= MESTRE_Q, are counted
    by the O(q) character sum.  A lane's step tables have m + 2k + 1 rows
    (m = floor(sqrt h), k = ceil(h / (2m + 1)), h = floor(2 sqrt q): about
    2 sqrt(2 sqrt q) + 1, so 35 at q = 20,000 and 110 at MAX_Q), and the
    kernel holds ROW_BYTES = 48 (6 int64) per row and lane.  Each kernel call
    takes as many lanes as fit CHUNK_BYTES = 4 MiB at the rows of its largest
    q, so it stays below 12 MiB at MAX_Q however many primes there are.  The
    character sum allocates about 33 bytes per residue of the q it is
    counting (66 MiB at q = 2,097,143).
    """
    qs = [int(q) for q in qs]
    disc = curve.discriminant()
    for q in qs:
        _require_good(q, disc)
    return _point_counts(curve, np.array(qs, dtype=np.int64))[0].tolist()


# Mestre (1986): for q > 229 some point of E or of its quadratic twist has a
# single multiple of its order in the Hasse interval, so BSGS can resolve q
MESTRE_Q = 229
POINTS_PER_LANE = 4  # points tried per lane before the character sum takes over
# step-table bytes one kernel call may hold, at ROW_BYTES per row and lane:
# 2,496 lanes at q = 20,500 (a histogram's first pass in one call), 794 at MAX_Q
CHUNK_BYTES = 2**22
ROW_BYTES = 48  # 6 int64 per row and lane


def _point_counts(curve: Curve, qs) -> tuple[np.ndarray, list[int], int]:
    """(counts, char_sum_qs, retried) for good primes qs below MAX_Q: the
    counts as an int64 array, the q that the character sum counted, in order,
    and the number of lanes the first point left to the second pass.

    A lane's route and count depend on the curve and its q alone.
    """
    q_all = np.asarray(qs, dtype=np.int64)
    counts = np.zeros_like(q_all)
    solved = np.zeros(q_all.size, dtype=bool)
    lanes = np.flatnonzero(q_all > MESTRE_Q)
    q = q_all[lanes]
    a, b = _residues(curve.a, q), _residues(curve.b, q)
    # each lane tries the least x >= 0 with f(x) != 0, or x >= 1 where a = 0:
    # there x = 0 gives a flex, a point of order 3 that resolves nothing; and
    # x >= 2 on y^2 = x^3 + x, where x = 1 gives P with 2P = (0, 0), order 4
    x0 = np.select([a == 0, (a == 1) & (b == 0)], [0, 1], -1).astype(np.int64)
    retried = 0
    for points in (1, POINTS_PER_LANE - 1):
        if not lanes.size:
            break
        if points > 1:
            retried = lanes.size
        tried = []
        for _ in range(points):
            x0 = _least_nonroot(x0 + 1, a, b, q)
            tried.append(x0)
        a_q, ok = _traces_at(np.tile(q, points), np.tile(a, points), np.tile(b, points),
                             np.concatenate(tried))
        a_q, ok = a_q.reshape(points, -1), ok.reshape(points, -1)
        first = a_q[ok.argmax(axis=0), np.arange(q.size)]  # the first point that resolved
        done = ok.any(axis=0)
        counts[lanes[done]] = (q + 1 - first)[done]
        solved[lanes[done]] = True
        lanes, q, a, b, x0 = (v[~done] for v in (lanes, q, a, b, x0))
    rest = np.flatnonzero(~solved)
    char_sum_qs = q_all[rest].tolist()
    counts[rest] = _character_sums(curve, char_sum_qs)
    return counts, char_sum_qs, retried


def _cubic(x, a, b, q):
    return (x * x % q * x + a * x + b) % q


def _least_nonroot(x, a, b, q):
    """The least x' >= x with x'^3 + a x' + b != 0 (mod q), lane by lane."""
    x = x.copy()
    while (root := np.flatnonzero(_cubic(x, a, b, q) == 0)).size:  # three roots at most
        x[root] += 1
    return x


def _traces_at(q, a, b, x0) -> tuple[np.ndarray, np.ndarray]:
    """(a_q, ok) from the point at x0 of each lane, ok where it determines a_q.

    With d = f(x0) != 0, P = (x0 d, d^2) lies on y^2 = x^3 + a d^2 x + b d^3,
    which is E if d is a square mod q and its quadratic twist if not; so
    a_q = (d|q) s for the one s in the Hasse interval with (q + 1 - s) P = O.
    No square root is needed.
    """
    d = _cubic(x0, a, b, q)
    dd = d * d % q
    a_twist, px = a * dd % q, x0 * d % q
    s = np.zeros_like(q)
    ok = np.zeros(q.size, dtype=bool)
    for part in _chunks(q):
        s[part], ok[part] = _unique_trace(q[part], a_twist[part], px[part], dd[part])
    chi = _powmod(d, (q - 1) >> 1, q)  # 1 or q - 1
    return np.where(chi == 1, s, -s), ok


def _steps(q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, m, k) per lane: the Hasse bound h = floor(2 sqrt q), m = floor(sqrt h)
    baby steps and k = ceil(h / (2m + 1)) giant steps of 2m + 1 each way."""
    h = _isqrt(4 * q)
    m = _isqrt(h)
    return h, m, -(-h // (2 * m + 1))


def _chunks(q):
    """Consecutive slices of the lanes, each as long as the step tables of
    all its lanes fit CHUNK_BYTES (one lane at least)."""
    _, m, k = _steps(q)
    start = 0
    while start < q.size:
        rows = np.maximum.accumulate(m[start:]) + 2 * np.maximum.accumulate(k[start:]) + 1
        lanes = np.arange(1, rows.size + 1)
        size = max(1, int(np.count_nonzero(ROW_BYTES * rows * lanes <= CHUNK_BYTES)))  # a prefix
        yield slice(start, start + size)
        start += size


def _unique_trace(q, a, px, py) -> tuple[np.ndarray, np.ndarray]:
    """(s, ok): ok where exactly one s with |s| <= h has s P = (q + 1) P on
    y^2 = x^3 + a x + ..., for q > MESTRE_Q and the point P = (px, py).

    With G = (2m + 1) P and t the integer nearest (q + 1) / (2m + 1),
    (q + 1) P = T + u P for T = t G and |u| <= m.  So s P = (q + 1) P iff
    T - k G = +-j P with s = k (2m + 1) +- j + u: baby steps j P for
    j = 1 .. m, giant steps T - k G for |k| <= ceil(h / (2m + 1)), which
    covers |s - u| <= h + m, matched on x after one batched normalization,
    lane by lane: m (2k + 1), about 2h, comparisons per lane, O(sqrt q)
    beside O(q^(1/4)) point operations, yet about 2 ms of a 794-lane chunk's
    15 ms at MAX_Q on a 2-core Xeon.  h, m and k depend on q alone (_steps).
    A lane whose point has order <= 2m + 1 is not resolved: its baby steps
    are not distinct up to sign, and G may be O.  That order is <= h, so at
    least two s fit anyway.
    """
    n = q.size
    h, m, k = _steps(q)
    step = 2 * m + 1
    t = (q + 1 + m) // step
    u = q + 1 - t * step
    m_max, k_max = int(m.max()), int(k.max())
    # rows 0 .. m_max - 1 hold j P for j = 1 .. m; row m_max + k_max + k holds T - k G
    X, Y, Z = (np.empty((m_max + 2 * k_max + 1, n), dtype=np.int64) for _ in range(3))
    one = np.ones_like(q)

    # baby steps, and G = 2 (m P) + P
    X[0], Y[0], Z[0] = px, py, one
    X[1], Y[1], Z[1] = _double(px, py, one, a, q)
    for j in range(2, m_max):
        X[j], Y[j], Z[j] = _add(X[j - 1], Y[j - 1], Z[j - 1], px, py, a, q)
    lane = np.arange(n)
    gX, gY, gZ = _add(*_double(X[m - 1, lane], Y[m - 1, lane], Z[m - 1, lane], a, q), px, py, a, q)
    # the order of P is <= 2m + 1 iff some j P (j <= m) is O or has y = 0,
    # two of them share x (found after sorting below), or G = O
    baby = np.arange(1, m_max + 1)[:, None] <= m
    small_order = (gZ == 0) | (baby & ((Z[:m_max] == 0) | (Y[:m_max] == 0))).any(axis=0)
    inv = _powmod(np.where(gZ == 0, 1, gZ), q - 2, q)
    gx = gX * inv % q * inv % q
    gy = gY * inv % q * inv % q * inv % q

    # giant steps from T = t G, about 10 bits at q = 20,000 where (q + 1) P takes 15
    T = _multiple(t, gx, gy, a, q)
    center = m_max + k_max
    X[center], Y[center], Z[center] = T
    for sign in (1, -1):
        R = T
        y_step = (q - gy) % q if sign == 1 else gy  # subtract G, or add it
        for i in range(1, k_max + 1):
            R = _add(*R, gx, y_step, a, q)
            X[center + sign * i], Y[center + sign * i], Z[center + sign * i] = R

    # one batched inversion: Montgomery's trick along the step axis
    infinite = Z == 0
    Z[infinite] = 1
    zinv = np.empty_like(Z)
    zinv[0] = Z[0]
    for i in range(1, Z.shape[0]):
        zinv[i] = zinv[i - 1] * Z[i] % q
    inv = _powmod(zinv[-1], q - 2, q)
    for i in range(Z.shape[0] - 1, 0, -1):
        zinv[i] = inv * zinv[i - 1] % q
        inv = inv * Z[i] % q
    zinv[0] = inv

    # x = X / Z^2 in place; unused baby rows are -1, O is -2
    for _ in range(2):
        X *= zinv
        X %= q
    X[:m_max][~baby] = -1
    X[m_max:][infinite[m_max:]] = -2
    babies = np.sort(X[:m_max], axis=0)
    small_order |= ((babies[1:] == babies[:-1]) & (babies[1:] >= 0)).any(axis=0)
    # each giant x against the baby x's of its own lane: j_of is the j that
    # matched, 0 for none (m <= 53 below MAX_Q)
    giant = X[m_max:]
    j_of = np.zeros(giant.shape, dtype=np.int8)
    for j in range(m_max):
        np.copyto(j_of, j + 1, where=giant == X[j])
    hit = np.flatnonzero(j_of)
    j = j_of.ravel()[hit].astype(np.int64)
    lanes = hit % n

    # x agrees, so y agrees up to sign: normalize y at the matches alone
    qh = q[lanes]

    def y_at(flat):  # Y / Z^3 at flat indices of the tables
        z = zinv.ravel()[flat]
        return Y.ravel()[flat] * z % qh * z % qh * z % qh

    j *= np.where(y_at((j - 1) * n + lanes) == y_at(hit + m_max * n), 1, -1)
    at = np.concatenate([hit, np.flatnonzero(infinite[m_max:])])
    j = np.concatenate([j, np.zeros(at.size - hit.size, dtype=np.int64)])
    lanes = at % n
    s = (at // n - k_max) * step[lanes] + j + u[lanes]
    found = (np.abs(s) <= h[lanes]) & ~small_order[lanes]
    count = np.bincount(lanes[found], minlength=n)
    total = np.bincount(lanes[found], weights=s[found], minlength=n)
    return np.rint(total).astype(np.int64), count == 1


def _multiple(e, px, py, a, q):
    """e (px, py) in Jacobian coordinates by double-and-add, each lane reading
    its own bits of e; Z = 0 where the multiple is O."""
    one = np.ones_like(q)
    P = one, one, np.zeros_like(q)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        P = _double(*P, a, q)
        added = _add(*P, px, py, a, q)
        set_ = ((e >> bit) & 1).astype(bool)
        P = tuple(np.where(set_, new, old) for new, old in zip(added, P))
    return P


# Below MAX_Q three residues multiply to less than 2^63 (and so do the sums
# below), so _double and _add reduce once per product of three.


def _double(X, Y, Z, a, q):
    """2 (X : Y : Z) in Jacobian coordinates; Z = 0 (O) and y = 0 give Z = 0."""
    YY, ZZ = Y * Y % q, Z * Z % q
    S = 4 * X * YY % q
    M = (3 * X * X + a * ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    Y3 = (M * (S - X3) - 8 * YY * YY) % q
    return X3, Y3, 2 * Y * Z % q


def _add(X1, Y1, Z1, x2, y2, a, q):
    """(X1 : Y1 : Z1) + (x2, y2) for an affine point, in every case: O plus
    the point is the point, and the point plus itself is a doubling."""
    ZZ = Z1 * Z1 % q
    H = (x2 * ZZ - X1) % q
    r = (y2 * ZZ * Z1 - Y1) % q
    HH = H * H % q
    HHH, V = H * HH, X1 * HH  # below q^2, unreduced
    X3 = (r * r - HHH - 2 * V) % q
    Y3 = (r * (V - X3) - Y1 * HHH) % q
    Z3 = Z1 * H % q
    at_inf = np.flatnonzero(Z1 == 0)
    if at_inf.size:
        X3[at_inf], Y3[at_inf], Z3[at_inf] = x2[at_inf], y2[at_inf], 1
    same = np.flatnonzero((H == 0) & (r == 0) & (Z1 != 0))
    if same.size:
        X3[same], Y3[same], Z3[same] = _double(X1[same], Y1[same], Z1[same], a[same], q[same])
    return X3, Y3, Z3


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) elementwise, for 0 <= n < 2^52."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _character_sums(curve: Curve, qs: list[int]) -> list[int]:
    """#E(F_q) for each q by the O(q) character sum,
    q + 1 + 2 #{x : f(x) a nonzero square} - #{x : f(x) != 0}.

    a and b are reduced mod q before they meet int64, and f(x) < q^3 < 2^63.
    Each q allocates about 33 bytes per residue (66 MiB at q = 2,097,143).
    """
    counts = []
    for q in qs:
        x = np.arange(q, dtype=np.int64)
        f = _cubic(x, curve.a % q, curve.b % q, q)
        square = np.zeros(q, dtype=bool)
        square[x * x % q] = True
        square[0] = False
        counts.append(q + 1 + 2 * int(np.count_nonzero(square[f])) - int(np.count_nonzero(f)))
    return counts


def count_points_naive(curve: Curve, q: int) -> int:
    """Double loop over (x, y): the independent oracle for count_points.
    O(q^2) work: q at NAIVE_MAX_Q and above is refused before the loop."""
    if q >= NAIVE_MAX_Q:
        raise ValueError(f"count_points_naive is bounded below NAIVE_MAX_Q = {NAIVE_MAX_Q}; got {q}")
    _require_good(q, curve.discriminant())
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x * x * x + curve.a * x + curve.b) % q
        for y in range(q):
            if y * y % q == rhs:
                count += 1
    return count


def trace_of_frobenius(curve: Curve, q: int) -> int:
    """a_q = q + 1 - #E(F_q); the Hasse bound is asserted on every sample."""
    return _hasse_checked(q, count_points(curve, q))


def _hasse_checked(q: int, n_points: int) -> int:
    a_q = q + 1 - n_points
    if a_q * a_q > 4 * q:
        raise AssertionError(f"Hasse bound violated at q={q}: a_q={a_q}")
    return a_q


def _require_q_bound(q: int, name: str = "q") -> None:
    if q >= MAX_Q:
        raise ValueError(
            f"{name} is bounded below MAX_Q = {MAX_Q} (point counting is exact "
            f"in int64 only while q^3 < 2^63); got {q}"
        )


def _require_good(q: int, discriminant: int) -> None:
    _require_q_bound(q)
    if q <= 3:
        raise BadReductionError("primes 2 and 3 are always skipped")
    if discriminant % q == 0:
        raise BadReductionError(f"bad reduction at {q}")


def frobenius_class(a_q: int, q: int, p: int) -> str:
    """Class type of Frobenius mod p from its characteristic polynomial.

    Returns "split", "nonsplit", or "ambiguous" (discriminant 0 mod p: scalar
    or non-semisimple, not distinguishable from (a_q, q) alone).
    """
    if q == p:
        raise ValueError("q = p carries no mod-p Frobenius data")
    kind = eigenvalue_kind(a_q * a_q - 4 * q, p)
    return AMBIGUOUS if kind == REPEATED else kind


class FrobSample(NamedTuple):
    q: int
    a_q: int
    p: int
    class_type: str


@dataclass
class ClassStat:
    expected: Fraction
    count: int
    total: int

    @property
    def empirical(self) -> float:
        return self.count / self.total

    @property
    def stderr(self) -> float:
        f = float(self.expected)
        return sqrt(f * (1 - f) / self.total)

    @property
    def z_score(self) -> float:
        return (self.empirical - float(self.expected)) / self.stderr

    @property
    def within_3se(self) -> bool:
        return abs(self.z_score) <= 3.0


@dataclass
class ChebotarevHistogram:
    """Samples and class-type statistics, plus how the traces were counted:
    bsgs_lanes primes by baby-step giant-step, char_sum_lanes by the
    character sum, whose q add up to char_sum_q; bsgs_retry_lanes of the
    BSGS primes were left unresolved by their first point and retried."""

    curve: Curve
    p: int
    q_max: int
    samples: list[FrobSample]
    stats: dict[str, ClassStat] = field(default_factory=dict)
    bsgs_lanes: int = 0
    char_sum_lanes: int = 0
    char_sum_q: int = 0
    bsgs_retry_lanes: int = 0

    @property
    def total(self) -> int:
        return len(self.samples)


def chebotarev_histogram(
    curve: Curve,
    p: int,
    q_max: int,
    *,
    resolve_scalar: bool = False,
    seed: int = 0,
) -> ChebotarevHistogram:
    """Frobenius class-type frequencies over all good primes q <= q_max.

    Empirical fractions are reported against the exact expectations
    (p-2)/(2(p-1)) for split, p/(2(p+1)) for non-split, and p/(p^2-1) for
    ambiguous, each with the binomial standard error at the expected rate;
    they are read from gl2fp.class_type_fractions.  With resolve_scalar,
    ambiguous samples additionally get the probabilistic scalar test (seeded,
    so reruns match).  Refuses q_max >= MAX_Q, and a composite p, with
    ValueError before sieving.
    """
    _require_q_bound(q_max, "q_max")
    fractions = class_type_fractions(p)  # refuses a composite p
    expectations = {
        SPLIT: fractions[SPLIT],
        NONSPLIT: fractions[NONSPLIT],
        # central and non-semisimple classes both have discriminant zero
        AMBIGUOUS: fractions[CENTRAL] + fractions[NONSEMISIMPLE],
    }
    # a type with no classes (split at p = 2) has no statistic
    expectations = {key: f for key, f in expectations.items() if f}
    if p <= 7:
        warnings.warn(
            f"p = {p} <= 7: the mod-p image of a semistable curve need not be "
            "all of GL2(F_p), so the expectations may not apply",
            stacklevel=2,
        )
    primes = sieve_primes(q_max)
    good = primes[(primes > 3) & (primes != p) & (_residues(curve.discriminant(), primes) != 0)]
    if not good.size:
        raise ValueError(f"no good primes up to {q_max}")
    n_points, char_sum_qs, retried = _point_counts(curve, good)
    a_q = good + 1 - n_points
    over = a_q * a_q > 4 * good
    if over.any():
        first = int(over.argmax())
        _hasse_checked(int(good[first]), int(n_points[first]))

    # the class type depends on a_q^2 - 4q mod p alone: one Legendre symbol
    # per residue that occurs, at most p of them (the discriminant lies in
    # [-4 q_max, 0), so a larger p leaves it as it is)
    disc = a_q * a_q - 4 * good
    residues, codes = np.unique(disc % p if p <= 4 * q_max else disc, return_inverse=True)
    kinds = [eigenvalue_kind(int(r), p) for r in residues]
    kinds = [AMBIGUOUS if kind == REPEATED else kind for kind in kinds]
    class_types = [kinds[c] for c in codes.tolist()]
    q_list, a_list = good.tolist(), a_q.tolist()
    if resolve_scalar:
        rng = random.Random(seed)
        for i, ct in enumerate(class_types):
            if ct == AMBIGUOUS:
                class_types[i] = _resolve_ambiguous(curve, q_list[i], a_list[i], p, rng)
    # a sample resolved as central counts as ambiguous, and so does a type
    # with no expectation
    per_kind = Counter()
    for kind, count in zip(kinds, np.bincount(codes, minlength=len(kinds)).tolist()):
        per_kind[kind if kind in expectations else AMBIGUOUS] += count
    return ChebotarevHistogram(
        curve=curve,
        p=p,
        q_max=q_max,
        samples=list(map(FrobSample._make, zip(q_list, a_list, repeat(p), class_types))),
        stats={key: ClassStat(f, per_kind[key], good.size) for key, f in expectations.items()},
        bsgs_lanes=good.size - len(char_sum_qs),
        char_sum_lanes=len(char_sum_qs),
        char_sum_q=sum(char_sum_qs),
        bsgs_retry_lanes=retried,
    )


# -- optional scalar-vs-unipotent resolution for ambiguous samples


def _resolve_ambiguous(curve: Curve, q: int, a_q: int, p: int, rng) -> str:
    """Mark an ambiguous sample "central" only when the full p-torsion looks
    rational: p | q - 1, p^2 | #E(F_q), and eight random points die under
    multiplication by #E/p."""
    n_points = q + 1 - a_q
    if (q - 1) % p or n_points % (p * p):
        return AMBIGUOUS
    # the eight points go through the counting kernel's group law as eight
    # lanes of one call; the rng is then left where a point-by-point test,
    # stopping at the first point that survives, would have left it
    points, states = [], []
    for _ in range(8):
        points.append(_random_point(curve, q, rng))
        states.append(rng.getstate())
    px, py = np.array(points, dtype=np.int64).T
    cofactor, a, q_lanes = (np.full(8, v, dtype=np.int64) for v in (n_points // p, curve.a % q, q))
    survivors = np.flatnonzero(_multiple(cofactor, px, py, a, q_lanes)[2])  # Z != 0: not O
    if survivors.size:
        rng.setstate(states[survivors[0]])
        return AMBIGUOUS
    return "central"


def _random_point(curve: Curve, q: int, rng) -> tuple[int, int]:
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + curve.a * x + curve.b) % q
        y = sqrt_mod(rhs, q)
        if y is not None:
            return (x, y)


# a conductor-37 semistable curve in short Weierstrass form: the scan target
# used by the acceptance suite (good reduction away from 2, 3 on this model
# is not needed; 2 and 3 are always skipped)
CONDUCTOR_37_CURVE = Curve(a=-16, b=16, conductor=37, label="37a")


def parse_curve_file(text: str) -> list[Curve]:
    """Curve list format: one curve per line, "a b [conductor] [label]"."""
    curves = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"curve line needs at least a and b: {line!r}")
        a, b = int(parts[0]), int(parts[1])
        conductor = int(parts[2]) if len(parts) >= 3 else None
        label = parts[3] if len(parts) >= 4 else ""
        curves.append(Curve(a=a, b=b, conductor=conductor, label=label))
    return curves
