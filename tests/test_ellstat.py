import hashlib
import random
import tracemalloc
from fractions import Fraction

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


def test_naive_oracle_refuses_q_at_its_bound():
    # the bound itself, and the least prime past it, are refused before the O(q^2) loop
    assert is_prime(4099) and ellstat.NAIVE_MAX_Q < 4099
    for q in (ellstat.NAIVE_MAX_Q, 4099):
        with pytest.raises(ValueError, match="NAIVE_MAX_Q = 4096"):
            count_points_naive(CONDUCTOR_37_CURVE, q)


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
    counts, char_sum_qs, _ = ellstat._point_counts(curve, [q])
    assert counts.tolist() == [count_points_reference(curve, q)]
    assert char_sum_qs == []


@pytest.mark.parametrize(
    "curve", [Curve(-1, 0), Curve(0, 1), Curve(0, -432), Curve(-11, 14), Curve(1, 0)]
)
def test_bsgs_small_order_points_retry_then_fall_back(curve, monkeypatch):
    # x^3 - x has full 2-torsion wherever -1 is a square, and CM traces
    # a_q = 0 half the time
    qs = _good_primes(curve, ellstat.MESTRE_Q, 20_000)
    points = []
    kernel = ellstat._unique_trace

    def counting_kernel(q, *args):
        points.append(q.size)
        return kernel(q, *args)

    monkeypatch.setattr(ellstat, "_unique_trace", counting_kernel)
    counts, char_sum_qs, retried = ellstat._point_counts(curve, qs)
    assert counts.tolist() == [count_points_reference(curve, q) for q in qs]
    assert len(points) > 1  # some lanes needed a second point
    assert retried and sum(points[1:]) == (ellstat.POINTS_PER_LANE - 1) * retried
    if curve in (Curve(-1, 0), Curve(0, 1)):
        assert char_sum_qs  # and some exhausted every point


@pytest.mark.parametrize(
    "curve, p, q_max, retried, digest",
    # the digests were taken with every lane started at x = 0, where 1,628
    # and 2,212 lanes went to the second pass
    [(Curve(0, -10), 23, 14_311, 110, "693971433fc8241b8ac98a9940f7650ab8c2cfef627eebedc09feccf139a175c"),
     (Curve(0, 7), 11, 20_000, 115, "ad8a57670422961058ce50e5cbb822aba2ac0f2796ef0d9683c1c3df35a0a0e2")],
)
def test_a_zero_lanes_start_past_the_flex(curve, p, q_max, retried, digest):
    # on y^2 = x^3 + b the point at x = 0 is a flex, of order 3 for every q,
    # so lanes with a = 0 start at x = 1: the routes change, the samples do not
    hist = chebotarev_histogram(curve, p, q_max)
    assert _sample_digest(hist) == digest
    assert hist.bsgs_retry_lanes == retried


def test_x3_plus_x_lanes_start_past_the_order_4_point():
    # on y^2 = x^3 + x the point at x = 1 has 2P = (0, 0) for every q, so
    # those lanes start at x = 2; the digest was taken with them at x = 1,
    # where all 2,239 lanes went to the second pass
    hist = chebotarev_histogram(Curve(1, 0), 19, 20_257)
    assert _sample_digest(hist) == "28e6d17f39e888fbb67f4bf9ff15ccd98b6a5141b1c6908927316ee20691795a"
    assert hist.bsgs_retry_lanes == 222


def _sample_digest(hist):
    samples = [(s.q, s.a_q, s.class_type) for s in hist.samples]
    return hashlib.sha256(repr(samples).encode()).hexdigest()


def test_small_q_cut():
    curve = CONDUCTOR_37_CURVE
    qs = [227, 229, 233]
    counts, char_sum_qs, _ = ellstat._point_counts(curve, qs)
    assert counts.tolist() == [count_points_naive(curve, q) for q in qs]
    assert char_sum_qs == [227, 229]


@pytest.mark.parametrize(
    "curve, q",
    # the first five have |a_q| = floor(2 sqrt q); in the last two a second
    # multiple of the point's order lies just outside, at floor(2 sqrt q) + 1
    [(Curve(-20, -20), 337), (Curve(-20, -20), 1831), (Curve(-20, -8), 239),
     (Curve(-20, 0), 257), (Curve(-20, -1), 2927), (Curve(-30, 21), 251), (Curve(-15, 6), 241)],
)
def test_bsgs_resolves_traces_at_the_hasse_edge(curve, q):
    counts, char_sum_qs, _ = ellstat._point_counts(curve, [q])
    assert counts.tolist() == [count_points_reference(curve, q)]
    assert char_sum_qs == []


def _counting(curve, qs):
    counts, char_sum_qs, retried = ellstat._point_counts(curve, qs)
    return counts.tolist(), char_sum_qs, retried


def _kernel_calls(monkeypatch):
    calls = []
    kernel = ellstat._unique_trace

    def counting_kernel(q, *args):
        calls.append(q.size)
        return kernel(q, *args)

    monkeypatch.setattr(ellstat, "_unique_trace", counting_kernel)
    return calls


def test_bsgs_lanes_independent_of_chunks_and_order(monkeypatch):
    curve = Curve(-7, 10)
    qs = _good_primes(curve, 3, 9_000)
    expected = [count_points_reference(curve, q) for q in qs]
    whole = _counting(curve, qs)
    assert whole[0] == expected
    # small q beside q near MAX_Q in one kernel call (few enough lanes to fit
    # one chunk at MAX_Q's rows): each lane's steps follow its own q
    small, large = qs[:600], [q for q in range(MAX_Q - 2000, MAX_Q) if is_prime(q)]
    seen, kernel = [], ellstat._unique_trace
    monkeypatch.setattr(ellstat, "_unique_trace", lambda q, *args: seen.append(q.copy()) or kernel(q, *args))
    mixed = _counting(curve, small + large)
    assert any(q.min() < 9_000 and q.max() > MAX_Q - 2000 for q in seen)
    assert mixed[0][: len(small)] == expected[: len(small)]
    assert [q for q in mixed[1] if q < 9_000] == [q for q in whole[1] if q <= small[-1]]
    monkeypatch.setattr(ellstat, "_unique_trace", kernel)
    calls = _kernel_calls(monkeypatch)
    monkeypatch.setattr(ellstat, "CHUNK_BYTES", 2**16)
    assert _counting(curve, qs) == whole
    first_pass = np.cumsum(calls).tolist().index(sum(q > ellstat.MESTRE_Q for q in qs))
    assert first_pass + 1 > 10  # more than ten chunks
    shuffled = qs[:]
    random.Random(3).shuffle(shuffled)
    counts, char_sum_qs, retried = _counting(curve, shuffled)
    assert counts == [expected[qs.index(q)] for q in shuffled]
    assert sorted(char_sum_qs) == whole[1] and retried == whole[2]


def test_chunks_fit_the_byte_budget():
    # each chunk's step tables, at ROW_BYTES per row and lane, fit
    # CHUNK_BYTES, and one more lane would not fit
    q = np.array(_good_primes(Curve(-7, 10), ellstat.MESTRE_Q, 40_000)[::-1] + [MAX_Q - 1] * 3000)
    _, m, k = ellstat._steps(q)
    chunks = list(ellstat._chunks(q))
    assert chunks[0].start == 0 and chunks[-1].stop == q.size and len(chunks) > 2
    for part, after in zip(chunks, chunks[1:] + [None]):
        rows = lambda stop: int(m[part.start:stop].max() + 2 * k[part.start:stop].max() + 1)
        assert ellstat.ROW_BYTES * rows(part.stop) * (part.stop - part.start) <= ellstat.CHUNK_BYTES
        if after is not None:
            assert after.start == part.stop
            assert ellstat.ROW_BYTES * rows(part.stop + 1) * (part.stop + 1 - part.start) > ellstat.CHUNK_BYTES


def test_histograms_up_to_20500_take_one_call_per_pass(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    hist = chebotarev_histogram(Curve(-7, 10), 11, 20_500)
    lanes = sum(s.q > ellstat.MESTRE_Q for s in hist.samples)
    assert calls == [lanes, (ellstat.POINTS_PER_LANE - 1) * hist.bsgs_retry_lanes]


def test_point_counts_memory_bounded_per_chunk(monkeypatch):
    # three chunks of primes near MAX_Q peak no higher than one chunk does,
    # give or take a few int64 per lane; one chunk stays below 12 MiB
    curve = Curve(19, -28)
    chunk = next(ellstat._chunks(np.full(10**5, MAX_Q - 1))).stop
    qs = [int(q) for q in sieve_primes(MAX_Q - 1)[-3 * chunk :]]
    assert all(curve.has_good_reduction(q) for q in qs)
    calls = _kernel_calls(monkeypatch)
    peaks = []
    for part, chunks in ((qs[:chunk], 1), (qs, 3)):
        calls.clear()
        tracemalloc.start()
        try:
            point_counts(curve, part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.cumsum(calls).tolist().index(len(part)) == chunks - 1  # first pass
    assert peaks[0] < 12 * 2**20
    assert peaks[1] - peaks[0] < 256 * (len(qs) - chunk)


def _start_at_infinity(curve, q):
    """Whether the giant steps of q's first lane start at T = t G = O: P is
    the first point of the lane, G = (2m + 1) P and t the integer nearest
    (q + 1) / (2m + 1), by the affine group law."""
    x0 = next(x for x in range(q) if (x**3 + curve.a * x + curve.b) % q)
    d = (x0**3 + curve.a * x0 + curve.b) % q
    m = int(ellstat._steps(np.array([q]))[1][0])
    t_step = (q + 1 + m) // (2 * m + 1) * (2 * m + 1)
    return _affine_multiple(t_step, (x0 * d % q, d * d % q), curve.a * d * d % q, q) is None


def test_kernel_matches_character_sums():
    # every good q in (MESTRE_Q, 30000], and the last primes below MAX_Q,
    # where a missing reduction would overflow int64
    large = [q for q in range(MAX_Q - 100, MAX_Q) if is_prime(q)]
    for curve in (Curve(-7, 10), Curve(19, -28), Curve(-1, 0)):  # the last with CM
        qs = _good_primes(curve, ellstat.MESTRE_Q, 30_000)
        assert sum(_start_at_infinity(curve, q) for q in qs) >= 10
        qs += [q for q in large if curve.has_good_reduction(q)]
        counts, char_sum_qs, _ = _counting(curve, qs)
        assert counts == ellstat._character_sums(curve, qs)
        assert len(char_sum_qs) < len(qs) / 20
        assert not set(char_sum_qs) & set(large)  # an overflow would show as a give-up
        # u = q + 1 - t (2m + 1) takes both extremes +-m, where the giant
        # steps reach farthest
        _, m, _ = ellstat._steps(np.array(qs))
        u = np.array(qs) + 1 - (np.array(qs) + 1 + m) // (2 * m + 1) * (2 * m + 1)
        assert (u == m).any() and (u == -m).any() and (np.abs(u) <= m).all()


# (bsgs_lanes, char_sum_lanes, char_sum_q) of the first pinned curve, p = 11,
# q_max = 20000: the 46 good primes up to MESTRE_Q go to the character sum
PINNED_WORK = (2211, 46, 5072)
# lanes of PINNED_WORK that the first point left unresolved: 89 of 2211
PINNED_RETRY_LANES = 89


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
    assert hist.bsgs_retry_lanes == again.bsgs_retry_lanes == PINNED_RETRY_LANES


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
    # a q that no int64 holds is refused like any q <= 3
    with pytest.raises(BadReductionError, match="2 and 3"):
        count_points(CONDUCTOR_37_CURVE, -(2**64))
    with pytest.raises(BadReductionError, match="bad reduction at 37"):
        point_counts(CONDUCTOR_37_CURVE, [5, 37, -(2**64)])


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


def _affine_multiple(k, point, a, q):
    """k * point on y^2 = x^3 + a x + b over F_q in affine coordinates; None is O."""

    def add(u, v):
        if u is None or v is None:
            return v if u is None else u
        (x1, y1), (x2, y2) = u, v
        if x1 == x2 and (y1 + y2) % q == 0:
            return None
        if u == v:
            slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    out = None
    for bit in bin(k)[2:]:
        out = add(out, out)
        if bit == "1":
            out = add(out, point)
    return out


def test_scalar_test_leaves_the_rng_where_a_point_by_point_test_would():
    # the eight points go through one kernel call; the rng stream must still
    # match a loop that stops drawing at the first point that survives
    curve, p = Curve(2, -3), 3
    outcomes = set()
    for q in (q for q in sieve_primes(2000).tolist() if q > 3):
        if curve.discriminant() % q == 0:
            continue
        n_points = count_points(curve, q)
        if (q - 1) % p or n_points % (p * p):
            continue
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            got = ellstat._resolve_ambiguous(curve, q, q + 1 - n_points, p, rng)
            want = "central"
            for drawn in range(1, 9):
                point = ellstat._random_point(curve, q, ref)
                if _affine_multiple(n_points // p, point, curve.a % q, q) is not None:
                    want = AMBIGUOUS
                    break
            assert got == want and rng.getstate() == ref.getstate(), (q, seed)
            outcomes.add((want, drawn))
    # both outcomes, and survivors both at the first draw and later
    assert ("central", 8) in outcomes
    assert {drawn for want, drawn in outcomes if want == AMBIGUOUS} - {1}
    assert (AMBIGUOUS, 1) in outcomes


def test_parse_curve_file():
    curves = parse_curve_file("-16 16 37 37a\n0 1\n# comment\n\n-1 0 # tail comment\n")
    assert len(curves) == 3
    assert curves[0].conductor == 37 and curves[0].label == "37a"
    assert curves[1].conductor is None
    with pytest.raises(ValueError):
        parse_curve_file("5\n")


def test_frobenius_classes_at_p_2():
    # x^2 + x + 1 is irreducible over F_2, and GL2(F_2) has no split class
    assert frobenius_class(1, 5, 2) == "nonsplit"
    assert frobenius_class(2, 5, 2) == AMBIGUOUS
    with pytest.warns(UserWarning, match="p = 2"):
        hist = chebotarev_histogram(CONDUCTOR_37_CURVE, 2, 2000)
    assert hist.total == 300
    assert {s.class_type for s in hist.samples} == {"nonsplit", AMBIGUOUS}
    assert all((s.class_type == "nonsplit") == (s.a_q % 2 == 1) for s in hist.samples)
    assert set(hist.stats) == {"nonsplit", AMBIGUOUS}
    assert hist.stats["nonsplit"].expected == Fraction(1, 3)
    assert all(stat.stderr > 0 for stat in hist.stats.values())
