import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matchdens import ellstat
from matchdens.ellstat import (
    AMBIGUOUS,
    CONDUCTOR_37_CURVE,
    MAX_Q,
    BadReductionError,
    Curve,
    chebotarev_histogram,
    count_points,
    count_points_naive,
    frobenius_class,
    parse_curve_file,
    point_counts,
    trace_of_frobenius,
)
from matchdens.primes import is_prime, sieve_primes


def count_points_reference(curve: Curve, q: int) -> int:
    """The single-prime % kernel that point_counts replaced, kept as a reference."""
    a, b = curve.a % q, curve.b % q
    x = np.arange(q, dtype=np.int64)
    x2 = x * x % q
    f = (x2 * x + a * x + b) % q
    squares = np.zeros(q, dtype=bool)
    squares[x2] = True
    nonzero = f != 0
    n_nonzero = int(np.count_nonzero(nonzero))
    n_square = int(np.count_nonzero(squares[f] & nonzero))
    return q + 1 + 2 * n_square - n_nonzero


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(0, 0)  # singular
    with pytest.raises(ValueError):
        Curve(-16, 16, conductor=4)  # not square-free
    c = Curve(-16, 16, conductor=37)
    assert c.discriminant() == 2**12 * 37
    assert c.has_good_reduction(5) and not c.has_good_reduction(37)


def test_count_points_example():
    c = Curve(0, 1)
    assert count_points(c, 5) == 6
    assert trace_of_frobenius(c, 5) == 0


@pytest.mark.parametrize("curve", [Curve(0, 1), Curve(-1, 0), CONDUCTOR_37_CURVE])
def test_count_points_matches_naive_oracle(curve):
    for q in sieve_primes(200):
        q = int(q)
        if q <= 3 or not curve.has_good_reduction(q):
            continue
        assert count_points(curve, q) == count_points_naive(curve, q)


GOOD_SMALL_PRIMES = [int(q) for q in sieve_primes(300) if q >= 5]


@st.composite
def curves_and_primes(draw):
    a = draw(st.integers(-60, 60))
    b = draw(st.integers(-60, 60))
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = Curve(a, b)
    good = [q for q in GOOD_SMALL_PRIMES if curve.has_good_reduction(q)]
    qs = draw(st.lists(st.sampled_from(good), min_size=1, max_size=4))
    return curve, qs


@settings(max_examples=40, deadline=None)
@given(curves_and_primes())
def test_point_counts_match_naive_oracle(case):
    curve, qs = case
    assert point_counts(curve, qs) == [count_points_naive(curve, q) for q in qs]


def test_point_counts_reuse_workspace_across_sizes():
    # a squares table or buffer left over from a larger prime would show here
    for curve in (CONDUCTOR_37_CURVE, Curve(0, 1), Curve(-7, 10)):
        qs = [20011, 11, 1009, 20011, 5, 2003]
        qs = [q for q in qs if curve.has_good_reduction(q)]
        assert point_counts(curve, qs) == [count_points_reference(curve, q) for q in qs]
    assert point_counts(CONDUCTOR_37_CURVE, []) == []


def test_point_counts_exact_at_the_bound():
    # f(x) = (x^2 + a)x + b stays below q^3, so int64 is exact exactly up to 2^21
    assert (MAX_Q - 1) ** 3 < 2**63 <= MAX_Q**3
    largest = MAX_Q - 1
    while not is_prime(largest):
        largest -= 1
    assert largest == 2097143
    for curve in (CONDUCTOR_37_CURVE, Curve(-60, 59)):
        assert count_points(curve, largest) == count_points_reference(curve, largest)
    with pytest.raises(ValueError, match="MAX_Q"):
        count_points(CONDUCTOR_37_CURVE, MAX_Q)


class _Forbidden:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the bound was checked")


def _forbidden_sieve(limit):
    raise AssertionError(f"sieve_primes({limit}) called before the bound was checked")


def test_q_bound_refused_before_any_allocation(monkeypatch):
    monkeypatch.setattr(ellstat, "np", _Forbidden())
    monkeypatch.setattr(ellstat, "sieve_primes", _forbidden_sieve)
    for call in (
        lambda: count_points(CONDUCTOR_37_CURVE, MAX_Q + 7),
        lambda: point_counts(CONDUCTOR_37_CURVE, [5, 11, MAX_Q]),
        lambda: trace_of_frobenius(CONDUCTOR_37_CURVE, 10**12 + 39),
        lambda: chebotarev_histogram(CONDUCTOR_37_CURVE, 11, MAX_Q),
    ):
        with pytest.raises(ValueError, match="MAX_Q") as exc:
            call()
        assert not isinstance(exc.value, BadReductionError)


def pinned_curves():
    rng = random.Random(5)
    out = []
    while len(out) < 3:
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if 4 * a**3 + 27 * b**2:
            out.append(Curve(a, b))
    return out


def test_histogram_samples_pinned():
    # the digest was taken from the per-prime kernel of count_points_reference
    samples = []
    for curve, p, workers in zip(pinned_curves(), (11, 13, 17), (1, 1, 2)):
        hist = chebotarev_histogram(curve, p, 5000, workers=workers)
        samples.append([(s.q, s.a_q, s.class_type) for s in hist.samples])
    assert [len(part) for part in samples] == [664, 664, 664]
    digest = hashlib.sha256(repr(samples).encode()).hexdigest()
    assert digest == "76f697ca8744377d63db3f2c96b4c9ec5bcb4766d7f9cf6c57ad6b227e9293ee"


def test_hasse_bound_on_samples():
    for q in (11, 101, 1009, 10007):
        a_q = trace_of_frobenius(CONDUCTOR_37_CURVE, q)
        assert a_q * a_q <= 4 * q


def test_bad_reduction_rejected():
    with pytest.raises(BadReductionError):
        count_points(CONDUCTOR_37_CURVE, 3)
    with pytest.raises(BadReductionError):
        count_points(CONDUCTOR_37_CURVE, 37)


def test_frobenius_class_examples():
    assert frobenius_class(0, 5, 7) == "split"       # -20 = 1 mod 7, a square
    assert frobenius_class(1, 11, 5) == "nonsplit"   # -43 = 2 mod 5, non-square
    assert frobenius_class(4, 29, 5) == AMBIGUOUS    # 16 - 116 = 0 mod 5
    with pytest.raises(ValueError):
        frobenius_class(1, 11, 11)


def test_histogram_small_run():
    hist = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 3000)
    assert hist.total == sum(st.count for st in hist.stats.values())
    assert set(hist.stats) == {"split", "nonsplit", AMBIGUOUS}
    from fractions import Fraction

    assert hist.stats["split"].expected == Fraction(9, 20)
    assert hist.stats["nonsplit"].expected == Fraction(11, 24)
    assert hist.stats[AMBIGUOUS].expected == Fraction(11, 120)
    for sample in hist.samples:
        assert sample.a_q * sample.a_q <= 4 * sample.q
        assert sample.class_type == frobenius_class(sample.a_q, sample.q, 11)


def test_histogram_deterministic():
    h1 = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 2000)
    h2 = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 2000)
    assert [(s.q, s.a_q, s.class_type) for s in h1.samples] == [
        (s.q, s.a_q, s.class_type) for s in h2.samples
    ]


def test_histogram_workers_match_single_thread():
    h1 = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 2000)
    h2 = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 2000, workers=2)
    assert [(s.q, s.a_q) for s in h1.samples] == [(s.q, s.a_q) for s in h2.samples]


def test_histogram_errors_and_warnings():
    with pytest.raises(ValueError):
        chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 4)  # no good primes
    with pytest.warns(UserWarning):
        chebotarev_histogram(CONDUCTOR_37_CURVE, 5, 500)


def test_resolve_scalar_smoke():
    h = chebotarev_histogram(CONDUCTOR_37_CURVE, 11, 5000, resolve_scalar=True, seed=1)
    kinds = {s.class_type for s in h.samples}
    assert kinds <= {"split", "nonsplit", AMBIGUOUS, "central"}
    # ambiguous + central together are measured against the combined expectation
    combined = h.stats[AMBIGUOUS].count
    raw = sum(1 for s in h.samples if s.class_type in (AMBIGUOUS, "central"))
    assert combined == raw


def test_parse_curve_file():
    curves = parse_curve_file("-16 16 37 37a\n0 1\n# comment\n\n-1 0 # tail comment\n")
    assert len(curves) == 3
    assert curves[0].conductor == 37 and curves[0].label == "37a"
    assert curves[1].conductor is None
    with pytest.raises(ValueError):
        parse_curve_file("5\n")
