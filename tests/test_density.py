import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matchdens import density, gl2fp
from matchdens.density import (
    ApproxPlan,
    PlannerBudgetError,
    TooSmallEpsilonError,
    approximate_matching_density,
    approximate_zero_density,
    check_gap_bound,
    nonzero_density,
    preset_matching_plan,
    prime_window,
    twist_density,
    verify_plan,
    verify_plans,
    zero_density,
)
from matchdens.primes import next_prime


def test_window_validation():
    with pytest.raises(ValueError):
        prime_window([])
    with pytest.raises(ValueError):
        prime_window([9])
    with pytest.raises(ValueError):
        prime_window([5, 11])  # 5 <= 7 without the flag
    with pytest.raises(ValueError):
        prime_window([13, 11])
    w = prime_window([11, 13])
    assert w.start_index == 5 and w.m == 1


def test_window_start_bounded_before_any_sieve(monkeypatch):
    assert prime_window([9_999_991]).primes == (9_999_991,)  # largest prime below the bound

    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit} before refusing")

    monkeypatch.setattr(density, "sieve_primes", no_sieve)
    for first in (next_prime(density.MAX_WINDOW_START), 1_000_000_007):
        with pytest.raises(ValueError, match="exceeds"):
            prime_window([first])


def test_prime_bound_refused_before_any_sieve(monkeypatch):
    with pytest.raises(PlannerBudgetError):  # the least bound is accepted
        approximate_zero_density(Fraction(1, 2), Fraction(1, 10), prime_bound=2)

    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit} before refusing")

    monkeypatch.setattr(density, "sieve_primes", no_sieve)
    for bound in (-1, 0, 1, density.MAX_PLANNER_PRIME_BOUND + 1, 10**12):
        for c, eps in ((Fraction(1, 2), Fraction(1, 10)), (Fraction(17, 32), 0)):
            for planner in (approximate_zero_density, approximate_matching_density):
                with pytest.raises(ValueError, match="MAX_PLANNER_PRIME_BOUND"):
                    planner(c, eps, prime_bound=bound)


def test_one_planner_state_at_a_time():
    bounds = [density.DEFAULT_PLANNER_PRIME_BOUND + k for k in range(4)]
    c, eps = Fraction(1, 2), Fraction(1, 10)
    density._planner_state.cache_clear()
    fresh = approximate_matching_density(c, eps, prime_bound=bounds[0])
    tracemalloc.start()
    try:
        for bound in bounds:
            approximate_zero_density(Fraction(1, 2), Fraction(1, 10), prime_bound=bound)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    state = density._planner_state(bounds[-1])
    assert current <= 1.25 * (state.primes.nbytes + state.neglog.nbytes)
    # switching back rebuilds the state, and plans as a fresh one does
    assert approximate_matching_density(c, eps, prime_bound=bounds[0]) == fresh


def test_density_examples():
    assert nonzero_density(prime_window([11])) == Fraction(10, 11)
    assert zero_density(prime_window([11])) == Fraction(1, 11)
    assert nonzero_density(prime_window([11, 13])) == Fraction(120, 143)
    w57 = prime_window([5, 7], allow_small=True)
    assert zero_density(w57) == Fraction(11, 35)


def test_cross_module_consistency_with_gl2():
    w57 = prime_window([5, 7], allow_small=True)
    prod = gl2fp.product_character(
        [gl2fp.steinberg_character_data(5), gl2fp.steinberg_character_data(7)]
    )
    assert zero_density(w57) == prod.zero_fraction()
    assert nonzero_density(w57) == prod.nonzero_fraction()


def test_long_window_stays_exact():
    primes = []
    n = 7
    while len(primes) < 10_000:
        n = next_prime(n)
        primes.append(n)
    w = prime_window(primes)
    value = nonzero_density(w)
    assert 0 < value < 1
    assert value + zero_density(w) == 1
    assert value.denominator % primes[-1] == 0  # nothing collapsed to floats


def test_twist_density_examples():
    assert twist_density(Fraction(0), 2) == Fraction(1, 2)
    assert twist_density(Fraction(3, 4), 2) == Fraction(7, 8)
    for k in range(1, 11):
        base = 1 - Fraction(1, k * k)
        assert twist_density(base, 2) == 1 - Fraction(1, 2 * k * k)
    with pytest.raises(ValueError):
        twist_density(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        twist_density(Fraction(3, 2), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=50),
    st.integers(min_value=1, max_value=40),
)
def test_twist_density_monotone_in_d(w, d):
    t1 = twist_density(w, d)
    t2 = twist_density(w, d + 1)
    if w < 1:
        assert t1 > t2 >= w
    else:
        assert t1 == t2 == 1


def test_complement_identity_on_windows():
    for primes in ([11], [11, 13], [101, 103, 107], [13, 31, 61]):
        w = prime_window(primes)
        assert nonzero_density(w) + zero_density(w) == 1


def test_zero_planner_exact_first_step():
    plan = approximate_zero_density(Fraction(10, 11), Fraction(1, 10))
    assert plan.window.primes == (11,)
    assert plan.predicted_density == Fraction(10, 11)
    assert verify_plan(plan) and check_gap_bound(plan)


def test_zero_planner_half():
    plan = approximate_zero_density(Fraction(1, 2), Fraction(1, 100))
    assert plan.window.primes[0] == 101
    assert Fraction(49, 100) <= plan.predicted_density <= Fraction(51, 100)
    assert verify_plan(plan) and check_gap_bound(plan)
    # consecutive primes, as the construction demands
    ps = plan.window.primes
    assert all(next_prime(a) == b for a, b in zip(ps, ps[1:]))


def test_zero_planner_extends_to_small_targets_within_budget():
    plan = approximate_zero_density(Fraction(1, 10), Fraction(1, 10))
    predicted = plan.predicted_density
    assert Fraction(0) <= predicted <= Fraction(1, 5)
    assert check_gap_bound(plan)


def test_matching_planner_half():
    plan = approximate_matching_density(Fraction(1, 2), Fraction(1, 100))
    assert plan.twist_order >= 2
    assert abs(plan.predicted_density - Fraction(1, 2)) <= Fraction(1, 100)
    assert verify_plan(plan)


def test_matching_planner_at_one():
    plan = approximate_matching_density(Fraction(1), Fraction(1, 10))
    assert plan.twist_order == 2
    assert plan.predicted_density >= 1 - Fraction(1, 20)


def test_planner_budget_refusal():
    with pytest.raises(PlannerBudgetError):
        approximate_zero_density(Fraction(1, 100), Fraction(1, 100))
    with pytest.raises(PlannerBudgetError):
        approximate_matching_density(Fraction(1, 100), Fraction(1, 1000))


def test_target_zero_is_out_of_desk_reach():
    # pushing prod (1 - 1/p) below 1/20 from p_k = 23 needs primes near e^60;
    # the planner must refuse rather than stall, and the refusal certificate
    # is exact (the full in-budget window still sits above the threshold)
    with pytest.raises(PlannerBudgetError):
        approximate_zero_density(Fraction(0), Fraction(1, 20))


def test_matching_plan_for_target_037():
    plan = approximate_matching_density(Fraction(37, 100), Fraction(1, 100))
    assert plan.twist_order >= 2
    assert density._within(
        plan.predicted_num, plan.predicted_den, Fraction(37, 100), Fraction(1, 100)
    )
    assert check_gap_bound(plan)


def test_exact_epsilon_zero():
    plan = approximate_zero_density(Fraction(10, 11), Fraction(0))
    assert plan.window.primes == (11,) and plan.epsilon == 0
    with pytest.raises(TooSmallEpsilonError):
        approximate_zero_density(Fraction(1, 3), Fraction(0))
    with pytest.raises(TooSmallEpsilonError):
        approximate_matching_density(Fraction(2, 5), Fraction(0))


def test_matching_presets():
    plan = approximate_matching_density(Fraction(17, 32), Fraction(0))
    assert plan.preset == "tetrahedral-17-32"
    assert plan.predicted_density == Fraction(17, 32)
    serre = preset_matching_plan(Fraction(17, 18))
    assert serre.preset == "serre-k:3" and serre.twist_order == 2
    assert preset_matching_plan(Fraction(2, 5)) is None
    assert verify_plan(plan)


def test_verify_plan_catches_tampering():
    plan = approximate_zero_density(Fraction(10, 11), Fraction(1, 10))
    tampered = ApproxPlan(
        mode=plan.mode,
        target=plan.target,
        epsilon=plan.epsilon,
        predicted_num=plan.predicted_num * 11 - 1,  # value no longer 10/11
        predicted_den=plan.predicted_den * 11,
        window=plan.window,
    )
    assert not verify_plan(tampered)
    # an equal value in non-lowest terms is still the same prediction
    rescaled = ApproxPlan(
        mode=plan.mode,
        target=plan.target,
        epsilon=plan.epsilon,
        predicted_num=plan.predicted_num * 2,
        predicted_den=plan.predicted_den * 2,
        window=plan.window,
    )
    assert verify_plan(rescaled)


def test_verify_plans_shares_prefixes():
    plans = [
        approximate_zero_density(Fraction(c, 10), Fraction(1, 10))
        for c in (9, 8, 7, 6, 5)
    ]
    assert verify_plans(plans) == len(plans)


def test_window_product_reuses_a_contiguous_inner_run():
    primes = tuple(int(p) for p in density.sieve_primes(3000) if p > 7)

    def direct(w):
        return density._pair_product(w, 0, len(w) - 1)

    inner = primes[40:90]
    for w in (inner, primes[40:200], primes[10:90], primes[0:250]):
        assert density._window_product(w, [(inner, *direct(inner))]) == direct(w)
    # a stand-in product shows which windows go through the inner run
    fake = [(inner, 1, 1)]
    assert density._window_product(primes[40:200], fake) == direct(primes[90:200])
    assert density._window_product(primes[10:90], fake) == direct(primes[10:40])
    gapped = primes[30:60] + primes[61:120]  # skips a prime of the inner run
    assert density._window_product(gapped, fake) == direct(gapped)
    assert density._window_product(primes[41:200], fake) == direct(primes[41:200])


def test_verify_plans_across_nested_starts():
    outer = approximate_zero_density(Fraction(1, 5), Fraction(1, 10))
    plans = [
        outer,
        approximate_zero_density(Fraction(1, 2), Fraction(1, 30)),
        approximate_zero_density(Fraction(3, 5), Fraction(1, 50)),
        approximate_matching_density(Fraction(7, 10), Fraction(1, 20)),
    ]
    starts = [p.window.primes[0] for p in plans]
    assert len(set(starts)) == 4
    assert all(p.window.primes[-1] <= outer.window.primes[-1] for p in plans)
    assert verify_plans(plans) == len(plans)
    tampered = ApproxPlan(
        mode=outer.mode,
        target=outer.target,
        epsilon=outer.epsilon,
        predicted_num=outer.predicted_num * 11 - 1,
        predicted_den=outer.predicted_den * 11,
        window=outer.window,
    )
    with pytest.raises(AssertionError):
        verify_plans(plans[1:] + [tampered])


def test_gap_bound_over_each_plan_step():
    plan = approximate_zero_density(Fraction(3, 10), Fraction(1, 10))
    primes = plan.window.primes
    w = Fraction(1)
    bound = Fraction(1, primes[0])
    for p in primes:
        nxt = w * Fraction(p - 1, p)
        assert w - nxt <= bound  # exact per-step gap bound on a small window
        w = nxt


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=Fraction(3, 5), max_value=1, max_denominator=1000))
def test_planner_soundness_random_targets(c):
    # c >= 3/5 keeps the windows short enough that reducing the exact
    # fraction stays cheap; the acceptance suite covers the heavy range
    plan = approximate_zero_density(c, Fraction(1, 100))
    assert abs(plan.predicted_density - c) <= Fraction(1, 100)
    assert verify_plan(plan)
