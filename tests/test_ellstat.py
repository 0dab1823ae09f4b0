import hashlib
import random
import tracemalloc

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
    # character-sum and BSGS primes of several sizes, in one call and any order
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


@pytest.mark.parametrize(
    "curve",
    # |a|, |b| >= 2^64: a and b must be reduced mod q before they meet int64
    [CONDUCTOR_37_CURVE, Curve(-60, 59), Curve(2**64 + 13, -(2**65) - 7), Curve(-(3**41), 5**28)],
)
def test_character_sums_match_reference(curve):
    small = [int(q) for q in sieve_primes(ellstat.MESTRE_Q) if curve.has_good_reduction(int(q))]
    large = [q for q in (100_003, 100_019, 524_287, 1_000_003) if curve.has_good_reduction(q)]
    qs = small + large
    assert ellstat._character_sums(curve, qs) == [count_points_reference(curve, q) for q in qs]


def test_character_sums_memory_per_residue():
    q = 1_048_573  # the largest prime below 2^20
    assert is_prime(q)
    tracemalloc.start()
    try:
        ellstat._character_sums(CONDUCTOR_37_CURVE, [q])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33 * q + 2**16  # as the docstrings state


BSGS_PRIMES = [int(q) for q in sieve_primes(600) if q > ellstat.MESTRE_Q]


@st.composite
def curves_and_bsgs_primes(draw):
    a = draw(st.integers(-60, 60))
    b = draw(st.integers(-60, 60))
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = Curve(a, b)
    good = [q for q in BSGS_PRIMES if curve.has_good_reduction(q)]
    qs = draw(st.lists(st.sampled_from(good), min_size=1, max_size=6))
    return curve, qs


@settings(max_examples=40, deadline=None)
@given(curves_and_bsgs_primes())
def test_bsgs_counts_match_naive_oracle(case):
    curve, qs = case
    assert point_counts(curve, qs) == [count_points_naive(curve, q) for q in qs]


def next_prime_after(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=25, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.lists(st.integers(ellstat.MESTRE_Q, 5 * 10**4), min_size=1, max_size=40),
)
def test_bsgs_counts_match_character_sum(a, b, starts):
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = Curve(a, b)
    qs = [q for q in (next_prime_after(n) for n in starts) if curve.has_good_reduction(q)]
    assert point_counts(curve, qs) == [count_points_reference(curve, q) for q in qs]


def _good_primes(curve, lo, hi):
    return [int(q) for q in sieve_primes(hi) if q > lo and curve.has_good_reduction(int(q))]


@pytest.mark.parametrize(
    "curve, q",
    # b = 0 mod q: the least x0 with f(x0) != 0 is not 0 (for x^3 - x, not 0, 1, -1)
    [(Curve(-1, 0), 1009), (Curve(5, 0), 4999), (Curve(7, 2 * 1013), 1013),
     (Curve(-3, 3 * 10007), 10007), (Curve(1, -233), 233)],
)
def test_bsgs_point_when_b_vanishes_mod_q(curve, q):
    counts, char_sum_qs = ellstat._point_counts(curve, [q])
    assert counts == [count_points_reference(curve, q)]
    assert char_sum_qs == []


@pytest.mark.parametrize("curve", [Curve(-1, 0), Curve(0, 1), Curve(0, -432), Curve(-11, 14)])
def test_bsgs_small_order_points_retry_then_fall_back(curve, monkeypatch):
    # y^2 = x^3 + 1 starts at (0, 1), of order 3; x^3 - x has full 2-torsion
    # wherever -1 is a square, and CM traces a_q = 0 half the time
    qs = _good_primes(curve, ellstat.MESTRE_Q, 20_000)
    points = []
    kernel = ellstat._unique_trace

    def counting_kernel(q, *args):
        points.append(q.size)
        return kernel(q, *args)

    monkeypatch.setattr(ellstat, "_unique_trace", counting_kernel)
    counts, char_sum_qs = ellstat._point_counts(curve, qs)
    assert counts == [count_points_reference(curve, q) for q in qs]
    assert len(points) > 1  # some lanes needed a second point
    if curve in (Curve(-1, 0), Curve(0, 1)):
        assert char_sum_qs  # and some exhausted every point


def test_small_q_cut():
    curve = CONDUCTOR_37_CURVE
    qs = [227, 229, 233]
    counts, char_sum_qs = ellstat._point_counts(curve, qs)
    assert counts == [count_points_naive(curve, q) for q in qs]
    assert char_sum_qs == [227, 229]


@pytest.mark.parametrize(
    "curve, q",
    # the first five have |a_q| = floor(2 sqrt q); in the last two a second
    # multiple of the point's order lies just outside, at floor(2 sqrt q) + 1
    [(Curve(-20, -20), 337), (Curve(-20, -20), 1831), (Curve(-20, -8), 239),
     (Curve(-20, 0), 257), (Curve(-20, -1), 2927), (Curve(-30, 21), 251), (Curve(-15, 6), 241)],
)
def test_bsgs_resolves_traces_at_the_hasse_edge(curve, q):
    counts, char_sum_qs = ellstat._point_counts(curve, [q])
    assert counts == [count_points_reference(curve, q)]
    assert char_sum_qs == []


def test_bsgs_lanes_independent_of_chunks_and_order(monkeypatch):
    curve = Curve(-7, 10)
    qs = _good_primes(curve, 3, 9_000)
    expected = [count_points_reference(curve, q) for q in qs]
    whole = ellstat._point_counts(curve, qs)
    assert whole[0] == expected
    # small q beside q near MAX_Q in one chunk: each lane's steps follow its own q
    large = [q for q in range(MAX_Q - 2000, MAX_Q) if is_prime(q)]
    mixed = ellstat._point_counts(curve, qs + large)
    assert mixed[0][: len(qs)] == expected and mixed[1][: len(whole[1])] == whole[1]
    monkeypatch.setattr(ellstat, "LANE_CHUNK", 97)  # more than ten chunks
    assert ellstat._point_counts(curve, qs) == whole
    shuffled = qs[:]
    random.Random(3).shuffle(shuffled)
    counts, char_sum_qs = ellstat._point_counts(curve, shuffled)
    assert counts == [expected[qs.index(q)] for q in shuffled]
    assert sorted(char_sum_qs) == whole[1]


def test_point_counts_memory_bounded_per_chunk():
    # three chunks of primes near MAX_Q peak no higher than one chunk does,
    # give or take a few int64 per lane; one chunk stays below 12 MB
    curve = Curve(19, -28)
    qs = [int(q) for q in sieve_primes(MAX_Q - 1)[-3 * ellstat.LANE_CHUNK :]]
    assert all(curve.has_good_reduction(q) for q in qs)
    peaks = []
    for part in (qs[: ellstat.LANE_CHUNK], qs):
        tracemalloc.start()
        try:
            point_counts(curve, part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 12 * 2**20
    assert peaks[1] - peaks[0] < 256 * (len(qs) - ellstat.LANE_CHUNK)


# (bsgs_lanes, char_sum_lanes, char_sum_q) of the first pinned curve, p = 11,
# q_max = 20000: the 46 good primes up to MESTRE_Q go to the character sum
PINNED_WORK = (2211, 46, 5072)


def test_histogram_counting_work_reported():
    curve = pinned_curves()[0]
    hist = chebotarev_histogram(curve, 11, 20_000)
    work = (hist.bsgs_lanes, hist.char_sum_lanes, hist.char_sum_q)
    assert hist.bsgs_lanes + hist.char_sum_lanes == hist.total
    small = [s.q for s in hist.samples if s.q <= ellstat.MESTRE_Q]
    assert hist.char_sum_lanes >= len(small) and hist.char_sum_q >= sum(small)
    again = chebotarev_histogram(curve, 11, 20_000)
    assert (again.bsgs_lanes, again.char_sum_lanes, again.char_sum_q) == work
    assert work == PINNED_WORK


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
    for curve, p in zip(pinned_curves(), (11, 13, 17)):
        hist = chebotarev_histogram(curve, p, 5000)
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


# sha256 of repr([(q, a_q, class_type) per sample] per case), taken before the
# scalar test moved from affine point arithmetic onto the counting kernel's
# Jacobian group law; the counts of "central" samples show every case reaches it
RESOLVE_CASES = [
    (CONDUCTOR_37_CURVE, 11, 30_000, 0, 1),
    (CONDUCTOR_37_CURVE, 5, 20_000, 1, 4),
    (Curve(-1, 1), 7, 20_000, 7, 1),
    (Curve(2, -3), 3, 10_000, 0, 19),
]
RESOLVE_SHA256 = "1dc6445d165e70f6ecb127dbc98bbaa12c354bd9394e334f4ae4d554be71466b"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_resolve_scalar_histograms_pinned():
    samples = []
    for curve, p, q_max, seed, central in RESOLVE_CASES:
        hist = chebotarev_histogram(curve, p, q_max, resolve_scalar=True, seed=seed)
        samples.append([(s.q, s.a_q, s.class_type) for s in hist.samples])
        assert sum(s.class_type == "central" for s in hist.samples) == central
    assert hashlib.sha256(repr(samples).encode()).hexdigest() == RESOLVE_SHA256


def test_parse_curve_file():
    curves = parse_curve_file("-16 16 37 37a\n0 1\n# comment\n\n-1 0 # tail comment\n")
    assert len(curves) == 3
    assert curves[0].conductor == 37 and curves[0].label == "37a"
    assert curves[1].conductor is None
    with pytest.raises(ValueError):
        parse_curve_file("5\n")
