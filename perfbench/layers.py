"""Which matchdens functions the traced run wraps, and the per-layer metrics.

Every metric is computed for every workload; a layer that a workload does not
call reports only the fixed calls of probe().  COUNT_METRICS repeat exactly
between two traced runs with the same seed; the rest are times.
"""

from __future__ import annotations

from fractions import Fraction

from matchdens import catalog, chartable, density, dirichletden, ellstat, gl2fp, groupcore, primes, sieveshift

from tracer import SpanRecorder, SpanTable

# count_points materializes, per residue, eight int64 arrays (x, x*x, x2,
# x2*x, a*x, two partial sums, f) and four bool arrays (squares, nonzero,
# squares[f], the mask): 8 * 8 + 4 = 68 bytes.  Computed, not measured.
COUNT_POINTS_BYTES_PER_RESIDUE = 68

QUERIES = ("density.approximate_zero_density", "density.approximate_matching_density")
DIRICHLET = (
    "dirichletden.dirichlet_character",
    "dirichletden.exact_matching_density_dirichlet",
    "dirichletden.matching_prime_series",
    "dirichletden.natural_density_estimate",
)

COUNT_METRICS = (
    "primes.rho_calls",
    "primes.rho_giveup_ratio",
    "primes.is_prime_calls",
    "density.queries",
    "density.refusals",
    "density.window_primes",
    "density.shared_start_share",
    "sieveshift.values",
    "sieveshift.hits",
    "sieveshift.unresolved",
    "ellstat.count_points_calls",
    "ellstat.elements",
    "ellstat.bytes_computed",
    "dirichletden.calls",
    "gl2fp.product_rows",
    "gl2fp.classify_calls",
    "groupcore.elements",
    "chartable.tables",
    "chartable.classes",
)


def _window(rec, args, plan):
    rec.count("density.window_primes", len(plan.window.primes) if plan.window else 0)


def _scan(rec, args, scan):
    rec.count("sieveshift.values", args[1])
    rec.count("sieveshift.hits", len(scan.hits))
    rec.count("sieveshift.unresolved", len(scan.unresolved))


def _table(rec, args, table):
    rec.count("chartable.tables")
    rec.count("chartable.classes", len(table))


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions each layer metric is measured at."""
    rec.instrument(primes, "pollard_rho", "primes.pollard_rho",
                   lambda r, a, d: d is None and r.count("primes.rho_giveups"))
    rec.instrument(primes, "is_prime", "primes.is_prime")
    rec.instrument(primes, "sqrt_mod", "primes.sqrt_mod")
    rec.instrument(primes, "sieve_primes", "primes.sieve_primes")
    rec.instrument(density, "approximate_zero_density", QUERIES[0], _window)
    rec.instrument(density, "approximate_matching_density", QUERIES[1], _window)
    rec.instrument(sieveshift, "find_shift", "sieveshift.find_shift")
    rec.instrument(sieveshift, "almost_prime_scan", "sieveshift.almost_prime_scan", _scan)
    rec.instrument(ellstat, "chebotarev_histogram", "ellstat.chebotarev_histogram")
    rec.instrument(ellstat, "count_points", "ellstat.count_points",
                   lambda r, a, n: r.count("ellstat.elements", a[1]))
    for name in DIRICHLET:
        rec.instrument(dirichletden, name.split(".")[1], name)
    rec.instrument(gl2fp, "product_character", "gl2fp.product_character",
                   lambda r, a, prod: r.count("gl2fp.product_rows", len(prod.entries)))
    rec.instrument(gl2fp, "classify", "gl2fp.classify")
    rec.instrument(groupcore.FiniteGroup, "__init__", "groupcore.FiniteGroup",
                   lambda r, a, _: r.count("groupcore.elements", a[0].order))
    rec.instrument(groupcore.FiniteGroup, "conjugacy_classes", "groupcore.conjugacy_classes")
    rec.instrument(groupcore, "fiber_product", "groupcore.fiber_product")
    rec.instrument(chartable, "character_table_small", "chartable.character_table_small", _table)
    rec.instrument(catalog, "named_group", "catalog.named_group")


def probe() -> None:
    """One small fixed call into every wrapped function.

    A traced run makes these calls after its timed rounds, so every layer is
    measured in every traced run, including layers the workload never calls.
    """
    primes.pollard_rho(1_000_003 * 1_000_033)
    primes.is_prime((1 << 61) - 1)
    primes.sqrt_mod(2, 7)
    primes.sieve_primes(1000)
    density.approximate_zero_density(Fraction(9, 10), Fraction(1, 10))
    density.approximate_matching_density(Fraction(9, 10), Fraction(1, 5))
    try:  # a refusal whose window is the last prime below the bound
        density.approximate_zero_density(Fraction(1, 2), Fraction(1, density.DEFAULT_PLANNER_PRIME_BOUND - 4))
    except density.PlannerBudgetError:
        pass
    spec = sieveshift.find_shift(sieveshift.QuadPoly(1, 0, 1), 10)
    sieveshift.almost_prime_scan(spec.poly, 10)
    ellstat.chebotarev_histogram(ellstat.Curve(-16, 16), 11, 1000)
    x = dirichletden.dirichlet_character(5, 1)
    dirichletden.natural_density_estimate(dirichletden.matching_prime_series(x, x, 10**4))
    dirichletden.exact_matching_density_dirichlet(x, x)
    gl2fp.product_character([gl2fp.steinberg_character_data(5), gl2fp.steinberg_character_data(7)])
    gl2fp.classify(gl2fp.GL2Element(5, 1, 1, 0, 1))
    g = catalog.named_group("s3")
    chartable.character_table_small(g)
    q = groupcore.abelianization(g)
    groupcore.fiber_product(g, g, q, q).conjugacy_classes()


def metrics(rec: SpanRecorder, workload_counts: dict) -> dict:
    """Every per-layer metric except trace.overhead_share, which needs two runs."""
    t = SpanTable(rec)
    n = rec.counts.get
    rho_calls = t.calls("primes.pollard_rho")
    elements = n("ellstat.elements", 0)
    out = {
        "primes.rho_calls": rho_calls,
        "primes.rho_s": t.seconds("primes.pollard_rho"),
        "primes.rho_giveup_ratio": n("primes.rho_giveups", 0) / rho_calls if rho_calls else 0.0,
        "primes.is_prime_calls": t.calls("primes.is_prime"),
        "primes.is_prime_s": t.seconds("primes.is_prime"),
        "primes.sqrt_mod_s": t.seconds("primes.sqrt_mod"),
        "primes.sieve_s": t.seconds("primes.sieve_primes"),
        "density.queries": t.calls(*QUERIES),
        "density.refusals": t.calls(*QUERIES, raised=True),
        "density.query_s": t.seconds(*QUERIES, raised=False),
        "density.refusal_s": t.seconds(*QUERIES, raised=True),
        "density.window_primes": n("density.window_primes", 0),
        "density.shared_start_share": 0.0,
        "sieveshift.scan_s": t.seconds("sieveshift.almost_prime_scan"),
        "sieveshift.scan_self_s": t.self_seconds("sieveshift.almost_prime_scan"),
        "sieveshift.values": n("sieveshift.values", 0),
        "sieveshift.hits": n("sieveshift.hits", 0),
        "sieveshift.unresolved": n("sieveshift.unresolved", 0),
        "ellstat.count_points_calls": t.calls("ellstat.count_points"),
        "ellstat.elements": elements,
        "ellstat.count_points_s": t.seconds("ellstat.count_points"),
        "ellstat.ns_per_element": t.seconds("ellstat.count_points") / elements * 1e9 if elements else 0.0,
        "ellstat.bytes_computed": elements * COUNT_POINTS_BYTES_PER_RESIDUE,
        "ellstat.histogram_self_s": t.self_seconds("ellstat.chebotarev_histogram"),
        "dirichletden.calls": t.calls(*DIRICHLET),
        "dirichletden.busy_s": t.seconds(*DIRICHLET),
        "gl2fp.product_s": t.seconds("gl2fp.product_character"),
        "gl2fp.product_rows": n("gl2fp.product_rows", 0),
        "gl2fp.classify_calls": t.calls("gl2fp.classify"),
        "groupcore.conjugacy_s": t.seconds("groupcore.conjugacy_classes"),
        "groupcore.fiber_s": t.seconds("groupcore.fiber_product"),
        "groupcore.elements": n("groupcore.elements", 0),
        "chartable.table_s": t.seconds("chartable.character_table_small"),
        "chartable.tables": n("chartable.tables", 0),
        "chartable.classes": n("chartable.classes", 0),
        "catalog.build_s": t.seconds("catalog.named_group"),
    }
    out.update(workload_counts)
    return out
