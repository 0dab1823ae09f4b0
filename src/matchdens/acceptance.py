"""The acceptance suite: ten self-contained checks with pinned tolerances.

Each criterion is a function returning a CriterionResult; `run_acceptance`
executes a selection in order and reports one pass/fail line per criterion.
Everything runs from scratch (no network, no data files) with fixed seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

from . import catalog, density, dirichletden, ellstat, gl2fp, groupcore, presets, sieveshift
from .chartable import character_table_small

PLANNER_SEED = 20260810  # criterion 4's targets
ORACLE_SEED = 5  # criterion 5's random matrices


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.detail}) [{self.seconds:.1f}s]"


def criterion_1_steinberg_zero_density() -> tuple[bool, str]:
    """Exhaustive enumeration gives zero_fraction(Steinberg) = 1/p for p in {5,7,11,13}."""
    details = []
    for p in (5, 7, 11, 13):
        zeros = 0
        order = 0
        for a, b, c, d in iproduct(range(p), repeat=4):
            if (a * d - b * c) % p == 0:
                continue
            order += 1
            m = gl2fp.GL2Element(p, a, b, c, d)
            if gl2fp.steinberg_value_of_matrix(m) == 0:
                zeros += 1
        if order != gl2fp.gl2_order(p):
            return False, f"p={p}: enumeration found {order} elements"
        if Fraction(zeros, order) != Fraction(1, p):
            return False, f"p={p}: zero fraction {Fraction(zeros, order)} != 1/{p}"
        details.append(f"p={p}: {zeros}/{order}")
    return True, "; ".join(details)


def criterion_2_tetrahedral() -> tuple[bool, str]:
    """Fiber product over C3: matching density exactly 17/32."""
    value, details = presets.tetrahedral_matching_density()
    ok = value == Fraction(17, 32) and details["fiber_order"] == 192
    return ok, f"matching density {value} on a group of order {details['fiber_order']}"


def criterion_3_serre_family() -> tuple[bool, str]:
    """twist_density(1 - 1/k^2, 2) = 1 - 1/(2k^2) for k = 1..10; 7/8 at k = 2."""
    for k in range(1, 11):
        got = density.twist_density(1 - Fraction(1, k * k), 2)
        if got != 1 - Fraction(1, 2 * k * k):
            return False, f"k={k}: got {got}"
    if density.twist_density(Fraction(3, 4), 2) != Fraction(7, 8):
        return False, "k=2 value is not 7/8"
    return True, "k = 1..10 exact; k=2 gives 7/8"


def criterion_4_planners() -> tuple[bool, str]:
    """100 pseudo-random targets at eps in {1e-1, 1e-2, 1e-3}: every returned
    plan re-verified exactly, every refusal certified as out of budget, and
    the greedy gap bound checked on every plan."""
    rng = random.Random(PLANNER_SEED)
    eps_levels = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    plans, refusals = [], []
    for i in range(100):
        c = Fraction(rng.randrange(0, 10**6 + 1), 10**6)
        eps = eps_levels[i % 3]
        mode_matching = i % 2 == 1
        try:
            if mode_matching:
                plan = density.approximate_matching_density(c, eps)
            else:
                plan = density.approximate_zero_density(c, eps)
            plans.append(plan)
            if not density.check_gap_bound(plan):
                return False, f"gap bound violated for c={c}, eps={eps}"
        except density.PlannerBudgetError:
            refusals.append((c, eps, mode_matching))
    verified = density.verify_plans(plans)
    if verified != len(plans):
        return False, f"only {verified} of {len(plans)} plans verified"
    # refusal soundness: the full in-budget window must sit above the threshold
    state = density._planner_state(density.DEFAULT_PLANNER_PRIME_BOUND)
    for c, eps, mode_matching in refusals:
        if mode_matching:
            threshold = max(Fraction(0), c - eps / 2) + eps / 2
            i0 = state.start_index(2 / eps)
        else:
            threshold = c + eps
            i0 = state.start_index(1 / eps)
        num, den = state.exact_full(i0)
        if density._le(num, den, threshold):
            return False, f"refusal for c={c}, eps={eps} was not justified"
    per_eps = {str(e): sum(1 for p in plans if p.epsilon == e) for e in eps_levels}
    if any(v == 0 for v in per_eps.values()):
        return False, f"no plans returned at some eps level: {per_eps}"
    return True, f"{len(plans)} plans certified, {len(refusals)} certified refusals ({per_eps})"


def criterion_5_product_oracle() -> tuple[bool, str]:
    """St5 x St7 class-wise fractions equal 11/35 and 24/35, and agree with an
    element-level fixed-point oracle on 10^4 random pairs with zero mismatches."""
    st5 = gl2fp.steinberg_character_data(5)
    st7 = gl2fp.steinberg_character_data(7)
    prod = gl2fp.product_character([st5, st7])
    if prod.zero_fraction() != Fraction(11, 35):
        return False, f"class-wise zero fraction {prod.zero_fraction()}"
    if prod.nonzero_fraction() != Fraction(24, 35):
        return False, f"class-wise nonzero fraction {prod.nonzero_fraction()}"
    rng = random.Random(ORACLE_SEED)
    mismatches = 0
    for _ in range(10_000):
        m5 = _random_gl2(5, rng)
        m7 = _random_gl2(7, rng)
        via_classes = st5.value_of(m5) * st7.value_of(m7)
        via_fixed_points = gl2fp.steinberg_value_by_fixed_points(
            m5
        ) * gl2fp.steinberg_value_by_fixed_points(m7)
        if via_classes != via_fixed_points:
            mismatches += 1
    if mismatches:
        return False, f"{mismatches} oracle mismatches in 10^4 samples"
    return True, "11/35 and 24/35 exact; 10^4-sample oracle, zero mismatches"


def _random_gl2(p: int, rng) -> gl2fp.GL2Element:
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return gl2fp.GL2Element(p, a, b, c, d)


def criterion_6_shifting_lemma() -> tuple[bool, str]:
    """f = x^2 + 1, T in {10, 50}: the shift removes all factors below T
    (verified by trial division for n <= 10^3) and the scan certifies at
    least 10 prime-or-semiprime values with n <= 10^4."""
    f = sieveshift.QuadPoly(1, 0, 1)
    details = []
    for T in (10, 50):
        spec = sieveshift.find_shift(f, T)
        for n in range(1, 1001):
            if sieveshift.has_factor_below(spec.poly(n), T):
                return False, f"T={T}: F({n}) has a prime factor below {T}"
        scan = sieveshift.almost_prime_scan(spec.poly, 10_000)
        if len(scan.hits) < 10:
            return False, f"T={T}: only {len(scan.hits)} hits"
        primes_found = sum(1 for h in scan.hits if len(h.factors) == 1)
        details.append(
            f"T={T}: {len(scan.hits)} hits ({primes_found} prime), "
            f"{len(scan.unresolved)} unresolved"
        )
    return True, "; ".join(details)


def criterion_7_chebotarev() -> tuple[bool, str]:
    """Conductor-37 curve, p = 11, q <= 2e5: split, non-split, and ambiguous
    fractions each within 3 standard errors of 9/20, 11/24, 11/120."""
    hist = ellstat.chebotarev_histogram(ellstat.CONDUCTOR_37_CURVE, 11, 200_000)
    expected = {
        gl2fp.SPLIT: Fraction(9, 20),
        gl2fp.NONSPLIT: Fraction(11, 24),
        ellstat.AMBIGUOUS: Fraction(11, 120),
    }
    pieces = []
    for key, exp in expected.items():
        st = hist.stats[key]
        if st.expected != exp:
            return False, f"{key}: expectation {st.expected} != {exp}"
        if not st.within_3se:
            return False, f"{key}: z = {st.z_score:+.2f} outside 3 standard errors"
        pieces.append(f"{key} z={st.z_score:+.2f}")
    return True, f"n={hist.total}; " + ", ".join(pieces)


def criterion_8_gl1_exactness() -> tuple[bool, str]:
    """All character pairs mod N <= 50: exact density has denominator dividing
    phi(N); empirical natural density at 1e6 within 3 sigma for >= 95% of pairs."""
    import numpy as np

    primes = dirichletden.sieve_primes(10**6)
    total_pairs = 0
    within = 0
    for N in range(3, 51):
        chars = dirichletden.dirichlet_characters(N)
        phi = dirichletden.unit_group(N).order
        counts = np.bincount(primes % N, minlength=N)
        coprime = [a for a in range(N) if gcd(a, N) == 1]
        n_good = int(sum(counts[a] for a in coprime))
        for i, x in enumerate(chars):
            for y in chars[i:]:
                exact = dirichletden.exact_matching_density_dirichlet(x, y)
                if phi % exact.denominator:
                    return False, f"N={N}: denominator {exact.denominator} does not divide {phi}"
                table = dirichletden._match_table(x, y, N)
                marked = int(sum(counts[a] for a in coprime if table[a]))
                f0 = float(exact)
                se = (max(f0 * (1 - f0), 1e-12) / n_good) ** 0.5
                total_pairs += 1
                if abs(marked / n_good - f0) <= 3 * se:
                    within += 1
    share = within / total_pairs
    if share < 0.95:
        return False, f"only {share:.1%} of {total_pairs} pairs within 3 sigma"
    # bind the series-based estimator to the residue-count route on small moduli
    for N in (5, 7, 12):
        chars = dirichletden.dirichlet_characters(N)
        for x in chars:
            series = dirichletden.matching_prime_series(x, chars[0], 10**6)
            est = dirichletden.natural_density_estimate(series)
            exact = dirichletden.exact_matching_density_dirichlet(x, chars[0])
            if abs(est.estimate - float(exact)) > 3 * max(est.stderr, 1e-5):
                return False, f"series route disagrees at N={N}"
    return True, f"{within}/{total_pairs} pairs within 3 sigma ({share:.1%})"


def criterion_9_character_tables() -> tuple[bool, str]:
    """Corpus tables: exact orthogonality, sum d^2 = |G|, and every nonlinear
    irreducible of each nilpotent member vanishing on at least half the group."""
    corpus = ["q8", "d4", "s3", "cyclic:6", "sl2f3", "heisenberg:3"]
    checked = 0
    nilpotent_nonlinear = 0
    for name in corpus:
        group = catalog.named_group(name)
        table = character_table_small(group)
        degrees = [int(cf.degree().as_rational()) for cf in table]
        if sum(d * d for d in degrees) != group.order:
            return False, f"{name}: sum of squared degrees != order"
        for a in range(len(table)):
            for b in range(a, len(table)):
                if groupcore.inner_product(table[a], table[b]) != (1 if a == b else 0):
                    return False, f"{name}: orthogonality fails at ({a},{b})"
        checked += 1
        if groupcore.is_nilpotent(group):
            for cf in table:
                if cf.degree() == 1:
                    continue
                nilpotent_nonlinear += 1
                if groupcore.zero_fraction(cf) < Fraction(1, 2):
                    return False, (
                        f"{name}: nonlinear character vanishes only on "
                        f"{groupcore.zero_fraction(cf)} of the group"
                    )
    return True, (
        f"{checked} tables exactly orthogonal; "
        f"{nilpotent_nonlinear} nonlinear nilpotent characters vanish on >= 1/2"
    )


def criterion_10_lower_density_diagnostic() -> tuple[bool, str]:
    """The truncated weighted-sum inequality holds on the exact GL(1) pairs and
    the per-sample bound (2n)^2 is enforced."""
    chars = dirichletden.dirichlet_characters(5)
    order4 = [c for c in chars if c.order == 4]
    x = order4[0]
    principal = chars[0]
    pairs = [(x, x.mul(x).mul(x)), (x, principal), (x, x)]
    for chi1, chi2 in pairs:
        series = dirichletden.difference_weight_series(chi1, chi2, 10**5)
        result = dirichletden.lower_density_diagnostic(series, 1, 1.1)
        if not result.inequality_holds:
            return False, "truncated inequality failed on an exact pair"
    # identical characters: empty difference set, zero weighted sum
    same = dirichletden.difference_weight_series(x, x, 10**5)
    if dirichletden.lower_density_diagnostic(same, 1, 1.5).weighted_sum != 0:
        return False, "identical characters produced a non-zero weighted sum"
    # the per-sample bound must reject non-tempered input
    bad = dirichletden.PrimeIndicatorSeries(
        x_max=10**3,
        primes=dirichletden.sieve_primes(10**3),
        marked=dirichletden.sieve_primes(10**3) % 2 == 1,
        weights=dirichletden.sieve_primes(10**3) * 0.0 + 5.0,
    )
    try:
        dirichletden.lower_density_diagnostic(bad, 1, 1.5)
        return False, "weight above (2n)^2 was not rejected"
    except ValueError:
        pass
    return True, "inequality holds on exact pairs; bound enforced"


CRITERIA = [
    (1, "Steinberg zero-density by exhaustive enumeration", criterion_1_steinberg_zero_density),
    (2, "tetrahedral fiber-product matching density 17/32", criterion_2_tetrahedral),
    (3, "twisted family 1 - 1/(2k^2)", criterion_3_serre_family),
    (4, "planner soundness on random targets", criterion_4_planners),
    (5, "product-density class-wise vs element-wise oracle", criterion_5_product_oracle),
    (6, "shifting lemma and almost-prime scan", criterion_6_shifting_lemma),
    (7, "empirical Chebotarev for a conductor-37 curve", criterion_7_chebotarev),
    (8, "GL(1) exact vs empirical matching densities", criterion_8_gl1_exactness),
    (9, "character-table orthogonality and nilpotent vanishing", criterion_9_character_tables),
    (10, "truncated lower-density inequality", criterion_10_lower_density_diagnostic),
]


def run_acceptance(numbers=None, progress=None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) and return their results."""
    selected = set(numbers) if numbers else {n for n, _, _ in CRITERIA}
    results = []
    for number, name, fn in CRITERIA:
        if number not in selected:
            continue
        start = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason attached
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CriterionResult(
            number=number,
            name=name,
            passed=passed,
            detail=detail,
            seconds=time.time() - start,
        )
        results.append(result)
        if progress is not None:
            progress(result)
    return results
