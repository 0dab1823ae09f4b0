"""The four benchmark workloads.

Each workload turns a seeded random stream into rounds of requests, makes one
call into matchdens per request, and checks every answer outside the timed
interval by a route that does not reuse the timed code path.  A round has a
fixed mix of request kinds, and a run executes whole rounds, so every run
weights the kinds the same way whatever its seed.

An op may end three ways: an answer that passes its check, a refusal that the
check certifies (the program declined an out-of-range request, which counts
as a failed unit in fail_share but is a correct output), or a fault (the op
raised unexpectedly, the answer failed its check, or a refusal could not be
certified).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from matchdens import catalog, chartable, density, dirichletden, ellstat, gl2fp, groupcore
from matchdens import primes as mprimes
from matchdens import sieveshift


@dataclass
class Outcome:
    units: int = 1  # units attempted: values F(n) for scan, one request otherwise
    failed_units: int = 0  # units refused or left unresolved
    fault: str | None = None


def sieve(limit: int) -> np.ndarray:
    """Primes <= limit; the benchmark's own sieve, independent of matchdens.primes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    mask[4::2] = False
    for i in range(3, math.isqrt(limit) + 1, 2):
        if mask[i]:
            mask[i * i :: 2 * i] = False
    return np.flatnonzero(mask)


def fermat_probable_prime(n: int) -> bool:
    return n in (2, 3) or (n > 3 and pow(3, n - 1, n) == 1 and pow(2, n - 1, n) == 1)


def legendre(a: int, p: int) -> int:
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def totient(n: int) -> int:
    out, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            out -= out // d
        d += 1
    return out - out // m if m > 1 else out


# -- plan: density planners at the default prime bound


class Plan:
    """Planner queries: warm and cold start primes, plans and refusals.

    A query's start prime is the least prime above max(7, 1/eps) for the zero
    planner and max(7, 2/eps) for the matching planner; the generator picks
    the start prime and derives eps from it.  Each round holds two refusals
    at start primes in (3 * 2**20, 3 * 2**20 + 2**14) never used before (each
    pays the exact product over every prime from there to the bound, 68.3k to
    69.4k of them), seven refusals at start primes an earlier refusal used, 64
    plans at fresh start primes and 32 at start primes an earlier plan used.
    Plan windows end between about 2**15.5 and 2**16.5.  A plan at a fresh
    start prime pays for its whole window, one at a used start prime only
    when its window is shorter than the last one there; the fresh plans are
    the majority, so the median op is one of them whatever the seed.  The
    fresh refusals are the slowest ops and more than ten in a run, so the
    tail percentile falls among them, not at the edge of the plans.
    """

    name = "plan"
    KERNEL = ("python", "bigint", "numpy")  # calibrate.py parts that track this work
    trace_rounds = 1
    WARM_UP_START = 11

    def __init__(self, rng):
        self.rng = rng
        self.bound = density.DEFAULT_PLANNER_PRIME_BOUND
        self.plan_pool = [int(p) for p in sieve(10_000) if p > self.WARM_UP_START]
        self.plan_starts = {self.WARM_UP_START}
        self.refusal_starts: list[int] = []
        self.used: set[int] = {self.WARM_UP_START}
        self.queries = 1  # the warm-up query, at a start prime not used before
        self.shared = 0
        self.log_tail: dict[int, float] = {}

    def warm_up(self) -> None:
        density.approximate_zero_density(Fraction(9, 10), Fraction(1, 10))

    def _draw_fresh(self, pool) -> int:
        while True:
            p = int(self.rng.choice(pool))
            if p not in self.used:
                return p

    def next_round(self) -> list:
        kinds = ["warm_refusal"] * 7 + ["cold_plan"] * 64 + ["warm_plan"] * 32
        self.rng.shuffle(kinds)
        # stratified window ends: every round spans the same range of plan sizes
        strata = list(range(96))
        self.rng.shuffle(strata)
        ops = []
        for kind in ["cold_refusal"] * 2 + kinds:
            if kind == "cold_refusal":
                start = self._draw_fresh(self.refusal_pool)
                self.refusal_starts.append(start)
            elif kind == "warm_refusal":
                start = self.rng.choice(self.refusal_starts)
            elif kind == "cold_plan":
                start = self._draw_fresh(self.plan_pool)
                self.plan_starts.add(start)
            else:
                start = self.rng.choice(sorted(self.plan_starts))
            mode = self.rng.choice(("zero", "matching"))
            x = Fraction(start - 1) + Fraction(self.rng.randrange(64), 64)
            eps = (1 if mode == "zero" else 2) / x
            if kind.endswith("refusal"):
                c = Fraction(self.rng.randrange(100_000), 10**6)
            else:
                # the window ends where prod (1 - 1/p) over [start, end] ~ ln start / ln end
                # reaches the planner's threshold (c + eps for zero, c for matching)
                end_bits = 15.5 + (strata.pop() + self.rng.random()) / 96
                threshold = math.log(start) / (math.log(2) * end_bits)
                c = Fraction(round(threshold * 10**6), 10**6) - (eps if mode == "zero" else 0)
            self.queries += 1
            self.shared += start in self.used
            self.used.add(start)
            ops.append((mode, c, eps, start))
        return ops

    def run(self, op):
        mode, c, eps, _ = op
        if mode == "zero":
            return density.approximate_zero_density(c, eps)
        return density.approximate_matching_density(c, eps)

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """The benchmark's own primes up to the planner bound, built after set-up."""
        return sieve(self.bound)

    @functools.cached_property
    def refusal_pool(self) -> np.ndarray:
        lo = 3 << 20
        return self.primes[(self.primes > lo) & (self.primes < lo + (1 << 14))]

    def check(self, op, result, error, rng) -> Outcome:
        mode, c, eps, start = op
        primes = self.primes
        i0 = int(np.searchsorted(primes, start))
        if error is not None:
            if not isinstance(error, density.PlannerBudgetError):
                return Outcome(fault=f"plan raised {error!r}")
            threshold = c + eps if mode == "zero" else max(Fraction(0), c - eps / 2) + eps / 2
            if start not in self.log_tail:
                # each float term is off by a few ulp and fsum adds exactly: the
                # sum is off by about 1e-11, far inside the 1e-9 margin
                terms = np.log1p(-1.0 / primes[i0:].astype(np.float64))
                self.log_tail[start] = math.fsum(terms.tolist())
            if not self.log_tail[start] > math.log(threshold) + 1e-9:
                return Outcome(failed_units=1, fault=f"uncertified refusal c={c} eps={eps}")
            return Outcome(failed_units=1)
        window = result.window.primes
        if window[0] != start:
            return Outcome(fault=f"window starts at {window[0]}, expected {start}")
        if not np.array_equal(np.array(window, dtype=np.int64), primes[i0 : i0 + len(window)]):
            return Outcome(fault="window is not a run of consecutive primes")
        if (result.twist_order is not None) != (mode == "matching"):
            return Outcome(fault="twist order does not match the planner mode")
        if density.verify_plans([result]) != 1:
            return Outcome(fault="verify_plans rejected the plan")
        return Outcome()

    def layer_counts(self) -> dict:
        return {"density.shared_start_share": self.shared / self.queries}


# -- scan: shifting and almost-prime scans


class Scan:
    """One small-T request and three large-T requests per round.

    Small T (8..13) gives values of about 40 bits: the per-request root
    finding over the primes below the trial bound and Miller-Rabin dominate.
    Large T (47..53) gives values of about 140 bits: Pollard rho dominates,
    and about one value in eight resists its budget and stays unresolved.
    The small-T request scans 600 values and takes about a third of the op
    time.  The large-T requests scan 80 values each; they are three ops in
    four, so the median op and the tail percentile fall among them, and a run
    counts some 150 unresolved values.  Each large-T request pays about 0.4 s
    before its first value, so fewer values per request would count fewer
    unresolved values in a run and leave fail_share less steady.
    """

    name = "scan"
    KERNEL = ("python", "bigint", "numpy")  # calibrate.py parts that track this work
    trace_rounds = 2
    SMALL = (range(8, 14), 600)
    LARGE = (range(47, 54), 80)

    def __init__(self, rng):
        self.rng = rng
        self.small_primes = [int(p) for p in sieve(100)]

    def warm_up(self) -> None:
        spec = sieveshift.find_shift(sieveshift.QuadPoly(1, 0, 1), 10)
        sieveshift.almost_prime_scan(spec.poly, 10)

    def _poly(self) -> tuple[int, int, int]:
        rng = self.rng
        while True:
            a, b, c = rng.randint(1, 6), rng.randint(-30, 30), rng.randint(-60, 60)
            disc = b * b - 4 * a * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue  # reducible
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            if c % 2 == 0 and (a + b + c) % 2 == 0:
                continue  # f takes only even values
            return a, b, c

    def next_round(self) -> list:
        kinds = [self.SMALL, self.LARGE, self.LARGE, self.LARGE]
        self.rng.shuffle(kinds)
        return [(self._poly(), self.rng.choice(ts), n_max) for ts, n_max in kinds]

    def run(self, op):
        coeffs, T, n_max = op
        spec = sieveshift.find_shift(sieveshift.QuadPoly(*coeffs), T)
        return spec, sieveshift.almost_prime_scan(spec.poly, n_max)

    def check(self, op, result, error, rng) -> Outcome:
        (a, b, c), T, n_max = op
        if error is not None:
            return Outcome(units=n_max, failed_units=n_max, fault=f"scan raised {error!r}")
        spec, scan = result
        A = math.prod(p for p in self.small_primes if p < T)
        B = spec.B
        if not 0 <= B < A:
            return Outcome(units=n_max, fault=f"shift residue {B} is not reduced mod {A}")
        want = (a * A * A, (2 * a * B + b) * A, (a * B + b) * B + c)
        if spec.A != A or spec.poly.coefficients() != want:
            return Outcome(units=n_max, fault="shift is not f(An + B) with A the primorial below T")
        if math.gcd(want[2], A) != 1:
            return Outcome(units=n_max, fault="f(B) has a prime factor below T")
        fa, fb, fc = want
        for hit in scan.hits:
            value = (fa * hit.n + fb) * hit.n + fc
            if not 1 <= hit.n <= n_max or hit.value != value or len(hit.factors) not in (1, 2):
                return Outcome(units=n_max, fault=f"malformed hit at n={hit.n}")
            if math.prod(hit.factors) != value or math.gcd(value, A) != 1:
                return Outcome(units=n_max, fault=f"factors of F({hit.n}) do not multiply back")
            for p in hit.factors:
                if not (mprimes.is_prime(p) and fermat_probable_prime(p)):
                    return Outcome(units=n_max, fault=f"factor {p} of F({hit.n}) is not prime")
        for n, value in scan.unresolved:
            if value != (fa * n + fb) * n + fc or fermat_probable_prime(value):
                return Outcome(units=n_max, fault=f"unresolved F({n}) is not a composite value")
        return Outcome(units=n_max, failed_units=len(scan.unresolved))


# -- chebotarev: point counting histograms and GL(1) densities


class Chebotarev:
    """Seven histograms per round in three q_max strata, plus two GL(1) requests.

    Histograms use seeded non-singular curves, p in {11, 13, 17, 19, 23} and
    q_max drawn inside narrow strata: one near 8k, three near 14k (the median
    op is one of these whatever the seed) and three near 20k (the slowest,
    more than ten in a run, so the tail percentile falls among them).  Every
    round does about the same counting work.  One GL(1) request asks for the
    exact matching density and the natural-density estimate of a seeded
    character pair mod N <= 300; the other names a modulus above the
    supported range and must be refused.
    """

    name = "chebotarev"
    KERNEL = ("numpy",)  # calibrate.py parts that track this work
    trace_rounds = 2
    STRATA = tuple((q, q + 500) for q in (8_000, *[14_000] * 3, *[20_000] * 3))
    NAIVE_Q = 300  # count_points_naive is O(q^2): the oracle runs on small q only

    def __init__(self, rng):
        self.rng = rng

    @functools.cached_property
    def primes(self) -> np.ndarray:
        return sieve(10**6)

    def warm_up(self) -> None:
        ellstat.chebotarev_histogram(ellstat.Curve(-16, 16), 11, 2000)
        self.run(("gl1", 5, 1, 2, 10**4))

    def _curve(self) -> tuple[int, int]:
        while True:
            a, b = self.rng.randint(-60, 60), self.rng.randint(-60, 60)
            if 4 * a**3 + 27 * b**2 != 0:
                return a, b

    def _gl1(self, lo: int, hi: int) -> tuple:
        N = self.rng.randint(lo, hi)
        phi = totient(N)
        return ("gl1", N, self.rng.randrange(phi), self.rng.randrange(phi), self.rng.randint(2, 10) * 10**5)

    def next_round(self) -> list:
        ops = [("hist", self._curve(), self.rng.choice((11, 13, 17, 19, 23)), self.rng.randrange(lo, hi))
               for lo, hi in self.STRATA]
        ops.append(self._gl1(3, 300))
        ops.append(self._gl1(dirichletden.MAX_MODULUS + 1, 2 * dirichletden.MAX_MODULUS))
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        if op[0] == "hist":
            _, (a, b), p, q_max = op
            return ellstat.chebotarev_histogram(ellstat.Curve(a, b), p, q_max)
        _, N, i, j, x_max = op
        x = dirichletden.dirichlet_character(N, i)
        y = dirichletden.dirichlet_character(N, j)
        exact = dirichletden.exact_matching_density_dirichlet(x, y)
        estimate = dirichletden.natural_density_estimate(dirichletden.matching_prime_series(x, y, x_max))
        return x, y, exact, estimate

    def check(self, op, result, error, rng) -> Outcome:
        if op[0] == "hist":
            if error is not None:
                return Outcome(fault=f"histogram raised {error!r}")
            return self._check_hist(op, result, rng)
        _, N, _, _, _ = op
        if error is not None:
            if isinstance(error, ValueError) and N > dirichletden.MAX_MODULUS:
                return Outcome(failed_units=1)
            return Outcome(fault=f"GL(1) request raised {error!r}")
        return self._check_gl1(op, result)

    def _check_hist(self, op, hist, rng) -> Outcome:
        _, (a, b), p, q_max = op
        disc = 4 * a**3 + 27 * b**2
        good = [int(q) for q in self.primes[self.primes <= q_max] if q > 3 and q != p and disc % q]
        if [s.q for s in hist.samples] != good:
            return Outcome(fault="histogram does not cover exactly the good primes")
        kinds = {1: gl2fp.SPLIT, -1: gl2fp.NONSPLIT, 0: ellstat.AMBIGUOUS}
        for s in hist.samples:
            if s.a_q * s.a_q > 4 * s.q or s.class_type != kinds[legendre(s.a_q * s.a_q - 4 * s.q, p)]:
                return Outcome(fault=f"bad Frobenius sample at q={s.q}")
        expected = {gl2fp.SPLIT: Fraction(p - 2, 2 * (p - 1)), gl2fp.NONSPLIT: Fraction(p, 2 * (p + 1)),
                    ellstat.AMBIGUOUS: Fraction(p, p * p - 1)}
        if {k: st.expected for k, st in hist.stats.items()} != expected:
            return Outcome(fault="class-type expectations are not the exact GL2 fractions")
        if sum(st.count for st in hist.stats.values()) != hist.total:
            return Outcome(fault="class-type counts do not sum to the sample count")
        curve = ellstat.Curve(a, b)
        small = [s for s in hist.samples if s.q <= self.NAIVE_Q]
        for s in rng.sample(small, 3):
            if s.a_q != s.q + 1 - ellstat.count_points_naive(curve, s.q):
                return Outcome(fault=f"a_q at q={s.q} disagrees with count_points_naive")
        last = hist.samples[-1]
        euler = -sum(legendre(x * x * x + a * x + b, last.q) for x in range(last.q))
        if last.a_q != euler:
            return Outcome(fault=f"a_q at q={last.q} disagrees with the Legendre-symbol sum")
        return Outcome()

    def _check_gl1(self, op, result) -> Outcome:
        _, N, _, _, x_max = op
        x, y, exact, estimate = result
        psi = x.mul(y.inverse())
        if exact != Fraction(1, psi.order) or totient(N) % exact.denominator:
            return Outcome(fault=f"exact GL(1) density {exact} is not 1/ord(x/y) mod {N}")
        kernel = np.zeros(N, dtype=bool)
        for r in range(N):
            if math.gcd(r, N) == 1 and psi.value_exponent(r) == 0:
                kernel[r] = True
        ps = self.primes[self.primes <= x_max]
        coprime = np.gcd(ps, N) == 1
        if estimate.total != int(coprime.sum()) or estimate.marked != int(kernel[ps[coprime] % N].sum()):
            return Outcome(fault=f"natural-density counts disagree with a recount mod {N}")
        return Outcome()


# -- exact: character tables, fiber products, GL2 partitions, product characters


def _complex(value) -> complex:
    e = value.conductor
    return sum(float(c) * cmath.exp(2j * math.pi * k / e) for k, c in enumerate(value.power_basis()) if c)


def _gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


class Exact:
    """Thirty-four jobs per round over the group layers.

    Fixed: the gl2fp:5 and gl2fp:3 character tables, the 17/32 fiber product,
    the GL2 conjugacy partitions for p = 7, 11, 13, and every product
    character with 150k..200k class rows twice (22 jobs, the middle of the
    latency distribution, so the median op is one of them whatever the seed).
    Seeded: three small catalog tables, one table request above the
    character-table order bound (refused), and two product characters with
    0.9M..1M class rows, which set the memory peak.  The seeded jobs of a kind
    cost about the same, so the latency percentiles do not depend on which
    were drawn, and the order of the jobs is seeded.
    """

    name = "exact"
    KERNEL = ("python", "bigint", "numpy")  # calibrate.py parts that track this work
    trace_rounds = 1
    LIGHT = ("q8", "d4", "s3", "gl2fp:2", *(f"cyclic:{n}" for n in range(2, 9)))
    PRODUCT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

    def __init__(self, rng):
        self.rng = rng
        sets = [()]
        for p in self.PRODUCT_PRIMES:
            sets += [s + (p,) for s in sets if math.prod(q * q - 1 for q in s) * (p * p - 1) <= 10**6]
        rows = {s: math.prod(q * q - 1 for q in s) for s in sets if len(s) >= 2}
        self.big_sets = sorted(s for s, r in rows.items() if r >= 900_000)
        self.small_sets = sorted(s for s, r in rows.items() if 150_000 <= r <= 200_000)

    def warm_up(self) -> None:
        self.run(("table", "s3"))
        self.run(("product", (5, 7)))

    def next_round(self) -> list:
        rng = self.rng
        ops = [("table", "gl2fp:5"), ("table", "gl2fp:3"), ("fiber",)]
        ops += [("partition", p) for p in (7, 11, 13)]
        ops += [("table", rng.choice(self.LIGHT)) for _ in range(3)]
        ops.append(("table", rng.choice(("gl2fp:7", f"cyclic:{rng.randint(2001, 2300)}"))))
        ops += [("product", rng.choice(self.big_sets)) for _ in range(2)]
        ops += [("product", ps) for ps in self.small_sets * 2]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind = op[0]
        if kind == "table":
            group = catalog.named_group(op[1])
            return group, chartable.character_table_small(group)
        if kind == "fiber":
            g = catalog.named_group("sl2f3")
            chi = chartable.integer_valued_two_dimensional(chartable.character_table_small(g))
            q = groupcore.abelianization(g)
            fiber = groupcore.fiber_product(g, g, q, q)
            left = groupcore.pullback(chi, fiber, lambda pair: pair[0])
            right = groupcore.pullback(chi, fiber, lambda pair: pair[1])
            return fiber.order, groupcore.matching_fraction(left, right)
        if kind == "partition":
            group = catalog.named_group(f"gl2fp:{op[1]}")
            return group.order, group.conjugacy_classes()
        return gl2fp.product_character([gl2fp.steinberg_character_data(p) for p in op[1]])

    def check(self, op, result, error, rng) -> Outcome:
        kind = op[0]
        if error is not None:
            if kind == "table" and isinstance(error, chartable.CharacterTableError):
                name = op[1]
                order = _gl2_order(int(name[6:])) if name.startswith("gl2fp:") else int(name.split(":")[1])
                if order > chartable.MAX_ORDER:
                    return Outcome(failed_units=1)
            return Outcome(fault=f"{kind} job raised {error!r}")
        if kind == "table":
            return self._check_table(*result)
        if kind == "fiber":
            if result != (192, Fraction(17, 32)):
                return Outcome(fault=f"fiber product gave {result}, expected order 192 and 17/32")
            return Outcome()
        if kind == "partition":
            return self._check_partition(op[1], *result)
        ps = op[1]
        if len(result.entries) != math.prod(p * p - 1 for p in ps) or result.group_order != math.prod(
            _gl2_order(p) for p in ps
        ):
            return Outcome(fault=f"product over {ps} has the wrong shape")
        if result.zero_fraction() != 1 - math.prod(1 - Fraction(1, p) for p in ps):
            return Outcome(fault=f"product over {ps} is not zero on 1 - prod(1 - 1/p)")
        return Outcome()

    def _check_table(self, group, table) -> Outcome:
        part = group.conjugacy_classes()
        degrees = [cf.degree().as_rational() for cf in table]
        if len(table) != len(part) or sum(d * d for d in degrees) != group.order:
            return Outcome(fault=f"{group.name}: not |classes| characters with sum d^2 = |G|")
        values = np.array([[_complex(v) for v in cf.values] for cf in table])
        gram = (values * np.array(part.sizes)) @ values.conj().T
        if not np.allclose(gram, group.order * np.eye(len(table)), rtol=0, atol=1e-6):
            return Outcome(fault=f"{group.name}: character rows are not orthogonal")
        return Outcome()

    def _check_partition(self, p, order, part) -> Outcome:
        sizes = sorted(part.sizes)
        want = sorted(
            [1] * (p - 1) + [p * p - 1] * (p - 1) + [p * p + p] * ((p - 1) * (p - 2) // 2)
            + [p * p - p] * (p * (p - 1) // 2)
        )
        if order != _gl2_order(p) or sizes != want or len(part.class_of) != order:
            return Outcome(fault=f"GL2(F_{p}) partition does not have the GL2 class sizes")
        return Outcome()


WORKLOADS = {w.name: w for w in (Plan, Scan, Chebotarev, Exact)}
