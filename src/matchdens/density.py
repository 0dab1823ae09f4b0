"""Exact density calculus over prime windows, and the constructive planners.

A window is a run of consecutive primes p_k, ..., p_(k+m) (each > 7).  Its
nonzero density prod (p-1)/p is the exact fraction of elements of the product
group GL2(F_pk) x ... on which the product character is nonzero; the zero
density is the complement.  The planners pick a window (and a twist order) so
the predicted density provably lands within epsilon of a target: candidate
stopping points are located in floating point, then certified with exact
integer arithmetic.  Long windows keep the product as an unreduced
numerator/denominator pair, because reducing a multi-megabit fraction costs
more than every other step combined.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .primes import is_prime, sieve_primes

DEFAULT_PLANNER_PRIME_BOUND = 1 << 22
# the planner sieves up to its prime bound: at 2^24 that peaks at 32 MiB (a
# 16 MiB mask) and keeps 16 MiB of primes and float logs
MAX_PLANNER_PRIME_BOUND = 1 << 24
# prime_window sieves up to its first prime to index it: 10 MB of mask at the bound
MAX_WINDOW_START = 10**7

MODE_ZERO = "zero-density"
MODE_MATCHING = "matching-density"


class PlannerBudgetError(RuntimeError):
    """The target needs primes beyond the configured work bound.

    Windows of consecutive primes > 7 below bound B cannot push the product
    prod (p-1)/p beneath roughly ln(p_k)/ln(B), so small targets are provably
    out of desk-scale reach; the refusal carries the exact certificate.
    """


class TooSmallEpsilonError(ValueError):
    """epsilon = 0 was requested for a target with no exact finite realization."""


@dataclass(frozen=True)
class PrimeWindow:
    """Consecutive primes p_k..p_(k+m); start_index is k (1-based: p_1 = 2)."""

    primes: tuple[int, ...]
    start_index: int

    @property
    def m(self) -> int:
        return len(self.primes) - 1

    def __len__(self) -> int:
        return len(self.primes)

    def describe(self) -> dict:
        return {
            "k": self.start_index,
            "m": self.m,
            "count": len(self.primes),
            "first": self.primes[0],
            "last": self.primes[-1],
        }


def prime_window(primes, *, allow_small: bool = False) -> PrimeWindow:
    """Validated window from an explicit prime list.

    allow_small lifts the every-prime-greater-than-7 requirement; that is only
    for oracle cross-checks against the explicit small GL2 groups.  Refuses a
    first prime above MAX_WINDOW_START with ValueError before any sieve.
    """
    ps = tuple(int(p) for p in primes)
    if not ps:
        raise ValueError("window must contain at least one prime")
    if ps[0] > MAX_WINDOW_START:
        raise ValueError(
            f"window start {ps[0]} exceeds {MAX_WINDOW_START}: indexing it sieves up to it"
        )
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p <= 7 and not allow_small:
            raise ValueError(f"window primes must exceed 7 (got {p})")
    if list(ps) != sorted(set(ps)):
        raise ValueError("window primes must be strictly increasing")
    return PrimeWindow(primes=ps, start_index=_prime_index(ps[0]))


def _prime_index(p: int) -> int:
    ps = sieve_primes(max(p, 100))
    return int(np.searchsorted(ps, p)) + 1


def _pair_product(primes, lo: int, hi: int) -> tuple[int, int]:
    """(prod (p-1), prod p) over primes[lo..hi] inclusive, by product tree."""
    chunk = [int(p) for p in primes[lo : hi + 1]]
    return _prod_tree([p - 1 for p in chunk]), _prod_tree(chunk)


def _prod_tree(xs: list[int]) -> int:
    n = len(xs)
    if n == 0:
        return 1
    if n <= 8:
        out = 1
        for x in xs:
            out *= x
        return out
    mid = n // 2
    return _prod_tree(xs[:mid]) * _prod_tree(xs[mid:])


def nonzero_density(window: PrimeWindow) -> Fraction:
    """Exact prod (p-1)/p over the window."""
    if not window.primes:
        raise ValueError("empty window")
    num, den = _pair_product(window.primes, 0, len(window.primes) - 1)
    return Fraction(num, den)


def zero_density(window: PrimeWindow) -> Fraction:
    """Exact 1 - prod (1 - 1/p): the zero fraction of the product character."""
    return 1 - nonzero_density(window)


def twist_density(w: Fraction, d: int) -> Fraction:
    """Matching density w + (1-w)/d after twisting by an order-d character."""
    if d < 1:
        raise ValueError("twist order must be a positive integer")
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise ValueError("base density must lie in [0, 1]")
    return w + (1 - w) / d


@dataclass
class ApproxPlan:
    """A window (plus optional twist order) certifying a density near a target.

    predicted_num/predicted_den hold the exact predicted density; for window
    plans they are kept unreduced (reducing a huge fraction is pure cost).
    The invariant |predicted - target| <= epsilon is certified exactly at
    construction time and re-checkable via verify_plan.
    """

    mode: str
    target: Fraction
    epsilon: Fraction
    predicted_num: int
    predicted_den: int
    window: PrimeWindow | None
    twist_order: int | None = None
    preset: str | None = None

    def __post_init__(self):
        if not _within(self.predicted_num, self.predicted_den, self.target, self.epsilon):
            raise AssertionError("plan violates its |predicted - target| <= eps invariant")

    @property
    def predicted_density(self) -> Fraction:
        """Reduced exact value; costly for windows with hundreds of thousands of primes."""
        return Fraction(self.predicted_num, self.predicted_den)

    def predicted_float(self) -> float:
        shift = max(self.predicted_num.bit_length(), self.predicted_den.bit_length()) - 53
        if shift <= 0:
            return self.predicted_num / self.predicted_den
        return (self.predicted_num >> shift) / (self.predicted_den >> shift)


def _within(num: int, den: int, c: Fraction, eps: Fraction) -> bool:
    # |num/den - c| <= eps with positive den, via cross multiplication
    lhs = abs(num * c.denominator - c.numerator * den) * eps.denominator
    rhs = eps.numerator * den * c.denominator
    return lhs <= rhs


def _same_value(num: int, den: int, other_num: int, other_den: int) -> bool:
    # the planner stores exactly the unreduced pair a verifier recomputes, so
    # equal pairs skip the two full-size cross products
    if num == other_num and den == other_den:
        return True
    return num * other_den == other_num * den


def _twisted(num: int, den: int, d: int) -> tuple[int, int]:
    # unreduced w + (1 - w)/d for w = num/den: the order-d twist
    return num * (d - 1) + den, den * d


def _le(num: int, den: int, bound: Fraction) -> bool:
    return num * bound.denominator <= bound.numerator * den


# -- planner state (cached sieve + float cumulative logs + exact checkpoints)

class _PlannerState:
    def __init__(self, bound: int):
        self.bound = bound
        # past sieve_primes' cache, so the primes go with the state
        self.primes = sieve_primes.__wrapped__(bound)
        with np.errstate(divide="ignore"):
            self.neglog = np.cumsum(-np.log1p(-1.0 / self.primes.astype(np.float64)))
        self.checkpoints: dict[int, list] = {}
        self.full: dict[int, tuple[int, int]] = {}

    def start_index(self, floor) -> int:
        """Index of the least prime strictly greater than max(7, floor)."""
        value = max(Fraction(7), Fraction(floor))
        # for integer primes, p > value is p > floor(value) in every case
        lo = value.numerator // value.denominator
        idx = int(np.searchsorted(self.primes, lo, side="right"))
        if idx >= len(self.primes):
            raise PlannerBudgetError(
                f"starting prime above {float(value):g} exceeds the prime bound {self.bound}"
            )
        return idx

    def exact_prefix(self, i0: int, j: int) -> tuple[int, int]:
        """Unreduced (prod (p-1), prod p) over primes[i0..j], amortized for
        monotone j via a rolling checkpoint per start index."""
        ck = self.checkpoints.get(i0)
        if ck is None or ck[0] > j:
            num, den = _pair_product(self.primes, i0, j)
            self.checkpoints[i0] = [j, num, den]
            return num, den
        last, num, den = ck
        if last < j:
            seg_num, seg_den = _pair_product(self.primes, last + 1, j)
            num *= seg_num
            den *= seg_den
            self.checkpoints[i0] = [j, num, den]
        return num, den

    def exact_full(self, i0: int) -> tuple[int, int]:
        if i0 not in self.full:
            self.full[i0] = _pair_product(self.primes, i0, len(self.primes) - 1)
        return self.full[i0]


def _checked_prime_bound(prime_bound: int | None) -> int:
    bound = DEFAULT_PLANNER_PRIME_BOUND if prime_bound is None else prime_bound
    if not 2 <= bound <= MAX_PLANNER_PRIME_BOUND:
        raise ValueError(
            f"prime_bound must lie in [2, MAX_PLANNER_PRIME_BOUND = "
            f"{MAX_PLANNER_PRIME_BOUND}]; got {bound}"
        )
    return bound


@lru_cache(maxsize=1)  # the last bound's state alone: switching bounds rebuilds it
def _planner_state(bound: int) -> _PlannerState:
    return _PlannerState(bound)


def _window_from_state(state: _PlannerState, i0: int, j: int) -> PrimeWindow:
    return PrimeWindow(
        primes=tuple(int(p) for p in state.primes[i0 : j + 1]),
        start_index=i0 + 1,
    )


def _find_first_crossing(
    state: _PlannerState, i0: int, threshold: Fraction
) -> tuple[int, int, int]:
    """Least j >= i0 with prod_(i0..j) (p-1)/p <= threshold, plus the exact pair.

    Floating point proposes the index; exact arithmetic walks it to the true
    first crossing.  Raises PlannerBudgetError (with an exact certificate) if
    even the full range stays above the threshold.
    """
    if threshold <= 0:
        raise PlannerBudgetError("a positive-length window always has positive density")
    base = state.neglog[i0 - 1] if i0 > 0 else 0.0
    need = -math.log(float(threshold))
    j = int(np.searchsorted(state.neglog, base + need, side="left"))
    if j >= len(state.primes):
        full_num, full_den = state.exact_full(i0)
        if _le(full_num, full_den, threshold):
            j = len(state.primes) - 1  # float undershot; exact walk will retreat
        else:
            raise PlannerBudgetError(
                f"target below reach: even the full window up to {state.bound} has "
                f"density above {float(threshold):.6g}"
            )
    j = max(j, i0)
    num, den = state.exact_prefix(i0, j)
    while not _le(num, den, threshold):
        j += 1
        if j >= len(state.primes):
            raise PlannerBudgetError(
                f"target below reach: even the full window up to {state.bound} has "
                f"density above {float(threshold):.6g}"
            )
        p = int(state.primes[j])
        num *= p - 1
        den *= p
    while j > i0:
        p = int(state.primes[j])
        prev_num, prev_den = num // (p - 1), den // p
        if _le(prev_num, prev_den, threshold):
            j -= 1
            num, den = prev_num, prev_den
        else:
            break
    if num > den:
        # w <= 1 exactly is what makes every greedy step obey the 1/p_k gap bound
        raise AssertionError("window density exceeded 1")
    state.checkpoints[i0] = [j, num, den]
    return j, num, den


def approximate_zero_density(
    c, eps, *, prime_bound: int | None = None
) -> ApproxPlan:
    """Window of consecutive primes whose nonzero density lands within eps of c.

    Follows the greedy construction: start at the least prime exceeding
    max(7, 1/eps), extend while the product stays above c + eps, stop at the
    first crossing.  The gap bound 1/p_k makes the crossing land inside
    [c - eps, c + eps]; the returned plan is certified exactly.  A prime_bound
    outside [2, MAX_PLANNER_PRIME_BOUND] is refused with ValueError before
    anything is sieved.
    """
    c, eps = Fraction(c), Fraction(eps)
    if not 0 <= c <= 1:
        raise ValueError("target must lie in [0, 1]")
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    state = _planner_state(_checked_prime_bound(prime_bound))
    if eps == 0:
        return _exact_zero_hit(state, c)
    i0 = state.start_index(1 / eps)
    j, num, den = _find_first_crossing(state, i0, c + eps)
    if not _within(num, den, c, eps):
        raise AssertionError("greedy crossing escaped the certified band")
    return ApproxPlan(
        mode=MODE_ZERO,
        target=c,
        epsilon=eps,
        predicted_num=num,
        predicted_den=den,
        window=_window_from_state(state, i0, j),
    )


def _exact_zero_hit(state: _PlannerState, c: Fraction) -> ApproxPlan:
    if c <= 0 or c >= 1:
        raise TooSmallEpsilonError("epsilon 0 needs a target realized by a finite window")
    i0 = state.start_index(Fraction(7))
    j, num, den = _find_first_crossing(state, i0, c)
    if Fraction(num, den) != c:
        raise TooSmallEpsilonError(
            f"target {c} is not hit exactly by any window at this work bound"
        )
    return ApproxPlan(
        mode=MODE_ZERO,
        target=c,
        epsilon=Fraction(0),
        predicted_num=num,
        predicted_den=den,
        window=_window_from_state(state, i0, j),
    )


def approximate_matching_density(
    c, eps, *, prime_bound: int | None = None
) -> ApproxPlan:
    """Window plus twist order d with w + (1-w)/d within eps of c.

    The base window is planned to sit within eps/2 below c, then the least
    twist order d >= 2 with (1-w)/d <= eps/2 lands the sum inside the band.
    A prime_bound outside [2, MAX_PLANNER_PRIME_BOUND] is refused with
    ValueError before anything is sieved.
    """
    c, eps = Fraction(c), Fraction(eps)
    if not 0 <= c <= 1:
        raise ValueError("target must lie in [0, 1]")
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    bound = _checked_prime_bound(prime_bound)
    if eps == 0:
        plan = preset_matching_plan(c)
        if plan is None:
            raise TooSmallEpsilonError(
                f"epsilon 0 matching plans exist only for preset targets, not {c}"
            )
        return plan
    state = _planner_state(bound)
    half = eps / 2
    c_base = max(Fraction(0), c - half)
    i0 = state.start_index(1 / half)
    j, num, den = _find_first_crossing(state, i0, c_base + half)
    # base density w is in [c - eps, c]; lift the remainder with the twist
    one_minus_num = den - num
    d = max(2, -((-one_minus_num * half.denominator) // (half.numerator * den)))
    t_num, t_den = _twisted(num, den, d)
    if not _within(t_num, t_den, c, eps):
        raise AssertionError("twist adjustment escaped the certified band")
    return ApproxPlan(
        mode=MODE_MATCHING,
        target=c,
        epsilon=eps,
        predicted_num=t_num,
        predicted_den=t_den,
        window=_window_from_state(state, i0, j),
        twist_order=int(d),
    )


def preset_matching_plan(c: Fraction) -> ApproxPlan | None:
    """Exact-matching presets: the tetrahedral 17/32 and the twisted
    central-extension family 1 - 1/(2 k^2)."""
    c = Fraction(c)
    if c == Fraction(17, 32):
        return ApproxPlan(
            mode=MODE_MATCHING,
            target=c,
            epsilon=Fraction(0),
            predicted_num=17,
            predicted_den=32,
            window=None,
            twist_order=None,
            preset="tetrahedral-17-32",
        )
    gap = 1 - c
    if gap > 0 and (1 / (2 * gap)).denominator == 1:
        ksq = 1 / (2 * gap)
        k = math.isqrt(int(ksq))
        if k * k == ksq:
            base = 1 - Fraction(1, k * k)
            value = twist_density(base, 2)
            return ApproxPlan(
                mode=MODE_MATCHING,
                target=c,
                epsilon=Fraction(0),
                predicted_num=value.numerator,
                predicted_den=value.denominator,
                window=None,
                twist_order=2,
                preset=f"serre-k:{k}",
            )
    return None


# -- independent re-verification


def verify_plan(plan: ApproxPlan) -> bool:
    """Re-derive the predicted density from the window and re-check the band.

    Independent of planner internals: the products are recomputed from the
    window's primes.
    """
    if plan.window is None:
        if plan.preset is None:
            return False
        return _within(plan.predicted_num, plan.predicted_den, plan.target, plan.epsilon)
    num, den = _pair_product(plan.window.primes, 0, len(plan.window.primes) - 1)
    return _window_fault(plan, num, den) is None


def verify_plans(plans: list[ApproxPlan]) -> int:
    """verify_plan over many plans, shortest window first, reusing the product
    of the longest verified window that sits inside each one (windows from
    different start primes overlap too).  Returns the number verified."""
    indexed = sorted(
        (p for p in plans if p.window is not None), key=lambda p: len(p.window.primes)
    )
    count = 0
    verified: list[tuple[tuple[int, ...], int, int]] = []
    for plan in indexed:
        w = plan.window.primes
        num, den = _window_product(w, verified)
        verified.append((w, num, den))
        fault = _window_fault(plan, num, den)
        if fault is not None:
            raise AssertionError(fault)
        count += 1
    for plan in plans:
        if plan.window is None:
            if not verify_plan(plan):
                raise AssertionError("preset plan fails verification")
            count += 1
    return count


def _window_fault(plan: ApproxPlan, num: int, den: int) -> str | None:
    """Why a window plan fails, given (prod (p-1), prod p) over its window
    recomputed independently; None when its prediction and band hold."""
    if plan.mode == MODE_MATCHING:
        num, den = _twisted(num, den, plan.twist_order)
    if not _same_value(num, den, plan.predicted_num, plan.predicted_den):
        return "plan's stored prediction disagrees with its window"
    if not _within(num, den, plan.target, plan.epsilon):
        return "plan fails its band under independent evaluation"
    return None


def _window_product(w: tuple[int, ...], verified) -> tuple[int, int]:
    """(prod (p-1), prod p) over w, through the last entry of verified whose
    primes form a contiguous run of w."""
    for inner, num, den in reversed(verified):
        if len(inner) <= len(w) and w[0] <= inner[0] and inner[-1] <= w[-1]:
            i = bisect.bisect_left(w, inner[0])
            j = i + len(inner)
            if w[i:j] == inner:
                head_num, head_den = _pair_product(w, 0, i - 1)
                tail_num, tail_den = _pair_product(w, j, len(w) - 1)
                return num * (head_num * tail_num), den * (head_den * tail_den)
    return _pair_product(w, 0, len(w) - 1)


def check_gap_bound(plan: ApproxPlan) -> bool:
    """Every greedy step drops the density by at most 1/p_k.

    The step decrease equals w_prev / p_j with w_prev <= 1 and p_j >= p_k, so
    the bound is algebraically forced; this re-checks w <= 1 exactly at the
    endpoint and the per-step inequality in floating point.
    """
    if plan.window is None:
        return True
    primes = plan.window.primes
    if plan.predicted_num > plan.predicted_den:
        return False
    bound = 1.0 / primes[0] + 1e-12
    w = 1.0
    for p in primes:
        step = w / p
        if step > bound:
            return False
        w *= 1.0 - 1.0 / p
    return True
