import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from matchdens.dirichletden import (
    PrimeIndicatorSeries,
    character_index,
    check_multiplicative,
    difference_weight_series,
    dirichlet_character,
    dirichlet_characters,
    dirichlet_density_estimate,
    exact_matching_density_dirichlet,
    lower_density_diagnostic,
    matching_prime_series,
    natural_density_estimate,
    series_from_predicate,
    sieve_primes,
    unit_group,
)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 12, 16, 24, 45, 50, 97])
def test_unit_group_structure(N):
    group = unit_group(N)
    assert len(group.dlog) == group.order
    # dlog really inverts the generator presentation
    for a, exps in list(group.dlog.items())[:20]:
        value = 1 % N
        for g, e in zip(group.generators, exps):
            value = value * pow(g, e, N) % N
        assert value == a % N


# sha256 of repr([(generators, orders) of unit_group(N) for N = 1 .. 2000]),
# taken while unit_group searched for its own primitive roots mod p^k: pins the
# presentation that character indices are read against
UNIT_GROUPS_SHA256 = "630d98792a6e5d4e41704e1310a74670bb9e03a75cde50de191efa5c2e971ae8"


def test_unit_group_presentations_pinned():
    groups = [(unit_group(N).generators, unit_group(N).orders) for N in range(1, 2001)]
    assert hashlib.sha256(repr(groups).encode()).hexdigest() == UNIT_GROUPS_SHA256


@pytest.mark.parametrize("N", [5, 8, 12, 24])
def test_characters_multiplicative(N):
    for chi in dirichlet_characters(N):
        assert check_multiplicative(chi)


def test_character_orders_mod_5():
    orders = sorted(chi.order for chi in dirichlet_characters(5))
    assert orders == [1, 2, 4, 4]


def test_character_index_round_trip():
    for N in (5, 12, 24):
        for idx in range(unit_group(N).order):
            chi = dirichlet_character(N, idx)
            assert character_index(chi) == idx
    with pytest.raises(ValueError):
        dirichlet_character(5, 4)


def test_exact_matching_examples():
    chars = dirichlet_characters(5)
    x = next(c for c in chars if c.order == 4)
    principal = next(c for c in chars if c.is_principal())
    assert exact_matching_density_dirichlet(x, x) == 1
    assert exact_matching_density_dirichlet(x, principal) == Fraction(1, 4)
    x3 = x.mul(x).mul(x)
    assert exact_matching_density_dirichlet(x, x3) == Fraction(1, 2)


def test_matching_density_denominators_divide_phi():
    for N in (5, 7, 8, 9, 12, 15):
        chars = dirichlet_characters(N)
        phi = unit_group(N).order
        for i, x in enumerate(chars):
            for y in chars[i:]:
                d = exact_matching_density_dirichlet(x, y)
                assert phi % d.denominator == 0


def test_matching_density_across_moduli():
    x3 = next(c for c in dirichlet_characters(3) if not c.is_principal())
    x5 = next(c for c in dirichlet_characters(5) if c.order == 4)
    d = exact_matching_density_dirichlet(x3, x5)
    assert d.denominator <= 8  # phi(15) = 8
    assert 0 <= d < 1


def test_natural_density_estimator():
    series = series_from_predicate(10**5, lambda q: q % 4 == 1)
    est = natural_density_estimate(series)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr
    all_marked = series_from_predicate(10**4, lambda q: True)
    assert natural_density_estimate(all_marked).estimate == 1.0
    none_marked = series_from_predicate(10**4, lambda q: False)
    assert natural_density_estimate(none_marked).estimate == 0.0
    with pytest.raises(ValueError):
        natural_density_estimate(series_from_predicate(100, lambda q: True))


def test_matching_series_agrees_with_exact():
    chars = dirichlet_characters(5)
    x = next(c for c in chars if c.order == 4)
    x3 = x.mul(x).mul(x)
    series = matching_prime_series(x, x3, 10**5)
    est = natural_density_estimate(series)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


def test_dirichlet_density_schedule():
    all_marked = series_from_predicate(10**4, lambda q: True)
    values = dirichlet_density_estimate(all_marked)
    assert all(v == 1.0 for _, v in values)
    empty = series_from_predicate(10**4, lambda q: False)
    assert all(v == 0.0 for _, v in dirichlet_density_estimate(empty))
    one_mod_4 = series_from_predicate(10**5, lambda q: q % 4 == 1)
    ratios = [v for _, v in dirichlet_density_estimate(one_mod_4)]
    assert ratios == sorted(ratios)  # drifts monotonically toward 1/2
    with pytest.raises(ValueError):
        dirichlet_density_estimate(all_marked, [2.5])
    with pytest.raises(ValueError):
        dirichlet_density_estimate(all_marked, [1.2, 1.5])


def test_weight_series_exact_values():
    chars = dirichlet_characters(5)
    x = next(c for c in chars if c.order == 4)
    x3 = x.mul(x).mul(x)
    series = difference_weight_series(x, x3, 10**4)
    assert set(np.unique(series.weights)) <= {0.0, 4.0}
    vs_principal = difference_weight_series(x, chars[0], 10**4)
    assert set(np.unique(vs_principal.weights)) <= {0.0, 2.0, 4.0}


@pytest.mark.parametrize(
    "chars", [((1, 0), (1, 0)), ((1, 0), (7, 1)), ((5, 1), (5, 3)), ((12, 1), (15, 2)), ((60, 3), (60, 5))]
)
def test_series_keep_exactly_the_primes_coprime_to_both_moduli(chars):
    x, y = (dirichlet_character(*c) for c in chars)
    L = math.lcm(x.modulus, y.modulus)
    coprime = [int(q) for q in sieve_primes(20_000) if math.gcd(int(q), L) == 1]
    E = math.lcm(x.order, y.order)

    def aligned(chi, q):
        return chi.value_exponent(q) * (E // chi.order) % E

    match = matching_prime_series(x, y, 20_000)
    weight = difference_weight_series(x, y, 20_000)
    assert match.primes.tolist() == coprime == weight.primes.tolist()
    assert match.marked.tolist() == [aligned(x, q) == aligned(y, q) for q in coprime]
    assert weight.marked.tolist() == [aligned(x, q) != aligned(y, q) for q in coprime]


def test_lower_density_diagnostic():
    chars = dirichlet_characters(5)
    x = next(c for c in chars if c.order == 4)
    x3 = x.mul(x).mul(x)
    series = difference_weight_series(x, x3, 10**5)
    result = lower_density_diagnostic(series, 1, 1.1)
    assert result.inequality_holds
    assert result.implied_lower_bound <= result.marked_partial_ratio + 1e-12
    same = difference_weight_series(x, x, 10**4)
    zero = lower_density_diagnostic(same, 1, 1.5)
    assert zero.weighted_sum == 0 and zero.inequality_holds
    with pytest.raises(ValueError):
        lower_density_diagnostic(series, 1, 2.5)
    with pytest.raises(ValueError):
        lower_density_diagnostic(matching_prime_series(x, x3, 10**4), 1, 1.5)


def test_diagnostic_rejects_non_tempered_weights():
    primes = sieve_primes(10**4)
    bad = PrimeIndicatorSeries(
        x_max=10**4,
        primes=primes,
        marked=np.ones(len(primes), dtype=bool),
        weights=np.full(len(primes), 4.5),
    )
    with pytest.raises(ValueError):
        lower_density_diagnostic(bad, 1, 1.5)
