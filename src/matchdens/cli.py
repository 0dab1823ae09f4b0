"""Command-line entry point: every operation behind one executable.

Subcommands: density, approx, gl2, fiber, chartable, shift, ellstat,
dirichlet, verify-all.  Output is a JSON run report (command echo, result
payload, wall time) or an aligned-text table on interactive terminals; exact
rationals are emitted as {"num", "den"} string pairs, never as floats.  Exit
codes: 0 success, 1 computational failure (or failed checks), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__

# integers beyond this many bits are emitted in hex (decimal conversion of
# multi-megabit integers is quadratic and would dominate the run)
_DECIMAL_BIT_LIMIT = 33_000
_WINDOW_INLINE_LIMIT = 10_000


def _int_json(n: int) -> str:
    if abs(n).bit_length() <= _DECIMAL_BIT_LIMIT:
        return str(n)
    return hex(n)


def _rat(q) -> dict:
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _rat_pair(num: int, den: int) -> dict:
    return {"num": _int_json(num), "den": _int_json(den)}


def cyc_value_to_json(v) -> dict:
    return {"conductor": v.conductor, "coeffs": [_rat(c) for c in v.power_basis()]}


def group_to_json(group) -> dict:
    part = group.conjugacy_classes()
    return {
        "kind": "finite_group",
        "name": group.name,
        "order": group.order,
        "class_count": len(part),
        "classes": [
            {
                "representative": repr(group.element(r)),
                "min_element_index": int(r),
                "size": int(s),
            }
            for r, s in zip(part.representatives, part.sizes)
        ],
    }


def class_function_to_json(cf) -> dict:
    return {
        "kind": "class_function",
        "group": cf.group.name,
        "group_order": cf.group.order,
        "name": cf.name,
        "values": [cyc_value_to_json(v) for v in cf.values],
    }


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a rational or decimal") from exc


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(" ", "").split(",") if part]


# -- handlers (each returns (payload, ok)) --


def _cmd_density(args) -> tuple[dict, bool]:
    from . import density

    window = density.prime_window(
        _parse_int_list(args.primes), allow_small=args.allow_small_primes
    )
    w = density.nonzero_density(window)
    return {
        "window": window.describe(),
        "primes": list(window.primes),
        "nonzero_density": _rat(w),
        "zero_density": _rat(1 - w),
    }, True


def _plan_payload(plan, full_window: bool) -> dict:
    payload = {
        "mode": plan.mode,
        "target": _rat(plan.target),
        "epsilon": _rat(plan.epsilon),
        "predicted_density": _rat_pair(plan.predicted_num, plan.predicted_den),
        "predicted_float": plan.predicted_float(),
        "twist_order": plan.twist_order,
        "preset": plan.preset,
    }
    if plan.window is not None:
        payload["window"] = plan.window.describe()
        if full_window or len(plan.window.primes) <= _WINDOW_INLINE_LIMIT:
            payload["window"]["primes"] = list(plan.window.primes)
    if plan.mode == "zero-density":
        payload["zero_density"] = _rat_pair(
            plan.predicted_den - plan.predicted_num, plan.predicted_den
        )
    return payload


def _cmd_approx(args) -> tuple[dict, bool]:
    from . import density

    if args.preset:
        plan = _preset_approx_plan(args.preset)
    else:
        if args.target is None:
            raise ValueError("either --target or --preset is required")
        c = _parse_fraction(args.target)
        eps = _parse_fraction(args.eps) if args.eps is not None else Fraction(1, 100)
        if args.mode == "matching":
            plan = density.approximate_matching_density(c, eps, prime_bound=args.prime_bound)
        else:
            plan = density.approximate_zero_density(c, eps, prime_bound=args.prime_bound)
    ok = density.verify_plan(plan)
    payload = _plan_payload(plan, args.full_window)
    payload["verified"] = ok
    return payload, ok


def _preset_approx_plan(name: str):
    from . import density

    base, _, arg = name.partition(":")
    if name == "tetrahedral-17-32":
        return density.preset_matching_plan(Fraction(17, 32))
    if base == "serre-k":
        k = int(arg)
        if k < 1:
            raise ValueError(f"preset {name!r}: K must be at least 1")
        return density.preset_matching_plan(1 - Fraction(1, 2 * k * k))
    if base == "steinberg":
        p = int(arg)
        window = density.prime_window([p], allow_small=True)
        return density.ApproxPlan(
            mode=density.MODE_ZERO,
            target=Fraction(p - 1, p),
            epsilon=Fraction(0),
            predicted_num=p - 1,
            predicted_den=p,
            window=window,
            preset=f"steinberg:{p}",
        )
    raise ValueError(f"unknown preset {name!r}")


def _cmd_gl2(args) -> tuple[dict, bool]:
    from . import gl2fp

    data = gl2fp.steinberg_character_data(args.p)
    norm = data.norm()
    payload = {
        "p": args.p,
        "group_order": gl2fp.gl2_order(args.p),
        "class_count": data.class_count,
        "class_type_fractions": {k: _rat(v) for k, v in gl2fp.class_type_fractions(args.p).items()},
        "steinberg_zero_fraction": _rat(data.zero_fraction()),
        "steinberg_nonzero_fraction": _rat(data.nonzero_fraction()),
        "steinberg_norm": _rat(norm),
        "norm_check": norm == 1,
    }
    return payload, norm == 1


def _cmd_fiber(args) -> tuple[dict, bool]:
    from . import catalog, groupcore, presets

    if args.preset:
        if args.preset != "tetrahedral-17-32":
            raise ValueError("the only fiber preset is tetrahedral-17-32")
        value, details = presets.tetrahedral_matching_density()
        payload = {
            "preset": args.preset,
            "matching_density": _rat(value),
            **details,
        }
        return payload, value == Fraction(17, 32)
    if not (args.left and args.right):
        raise ValueError("need --preset or both --left and --right")
    left = catalog.named_group(args.left)
    right = catalog.named_group(args.right)
    if args.over == "trivial":
        product = groupcore.direct_product(left, right)
        payload = {
            "left": args.left,
            "right": args.right,
            "over": "trivial",
            "order": product.order,
            "class_count": len(product.conjugacy_classes()),
        }
        return payload, True
    if args.left != args.right:
        raise ValueError("--over abelianization needs identical --left and --right")
    q = groupcore.abelianization(left)
    fiber = groupcore.fiber_product(left, left, q, q)
    payload = {
        "left": args.left,
        "right": args.right,
        "over": "abelianization",
        "quotient_order": q.target.order,
        "order": fiber.order,
        "class_count": len(fiber.conjugacy_classes()),
    }
    return payload, True


def _cmd_chartable(args) -> tuple[dict, bool]:
    from . import catalog
    from .chartable import character_table_small

    group = catalog.named_group(args.group)
    table = character_table_small(group)
    payload = {
        "group": group_to_json(group),
        "degrees": [int(cf.degree().as_rational()) for cf in table],
        "characters": [class_function_to_json(cf) for cf in table],
    }
    return payload, True


def _cmd_shift(args) -> tuple[dict, bool]:
    from . import sieveshift

    coeffs = _parse_int_list(args.poly)
    if len(coeffs) != 3:
        raise ValueError("--poly needs exactly three coefficients a,b,c")
    f = sieveshift.QuadPoly(*coeffs)
    spec = sieveshift.find_shift(f, args.T)
    payload = {
        "T": spec.T,
        "A": _int_json(spec.A),
        "B": _int_json(spec.B),
        "F": [_int_json(c) for c in spec.poly.coefficients()],
    }
    if args.scan:
        scan = sieveshift.almost_prime_scan(
            spec.poly,
            args.scan,
            trial_bound=args.trial_bound,
            rho_iterations=args.rho_iterations,
        )
        payload["hits"] = [
            {
                "n": h.n,
                "value": _int_json(h.value),
                "factors": [_int_json(p) for p in h.factors],
                "proof": h.proof,
            }
            for h in scan.hits
        ]
        payload["unresolved"] = [
            {"n": n, "value": _int_json(v)} for n, v in scan.unresolved
        ]
        payload["hit_count"] = len(scan.hits)
        payload["deterministic_count"] = scan.deterministic_hits
        payload["bpsw_count"] = scan.bpsw_hits
        payload["unresolved_count"] = len(scan.unresolved)
        payload["primes_sieved"] = scan.primes_sieved
        payload["rho_calls"] = scan.rho_calls
        payload["rho_giveups"] = scan.rho_giveups
    return payload, True


def _curve_payload(hist) -> dict:
    from . import ellstat

    stats = {}
    for key, st in hist.stats.items():
        stats[key] = {
            "expected": _rat(st.expected),
            "count": st.count,
            "empirical": st.empirical,
            "stderr": st.stderr,
            "z_score": st.z_score,
            "within_3se": st.within_3se,
        }
    return {
        "curve": {
            "a": hist.curve.a,
            "b": hist.curve.b,
            "conductor": hist.curve.conductor,
            "label": hist.curve.label,
        },
        "p": hist.p,
        "q_max": hist.q_max,
        "sample_count": hist.total,
        "counting": {
            "bsgs_lanes": hist.bsgs_lanes,
            "char_sum_lanes": hist.char_sum_lanes,
            "char_sum_q": hist.char_sum_q,
            "bsgs_retry_lanes": hist.bsgs_retry_lanes,
        },
        "stats": stats,
        "samples": [[s.q, s.a_q, s.class_type] for s in hist.samples],
    }


def _cmd_ellstat(args) -> tuple[dict, bool]:
    from . import ellstat

    if args.curves:
        with open(args.curves, encoding="utf-8") as fh:
            curves = ellstat.parse_curve_file(fh.read())
    else:
        if args.a is None or args.b is None:
            raise ValueError("need --a and --b (or --curves FILE)")
        curves = [ellstat.Curve(a=args.a, b=args.b, conductor=args.conductor)]
    reports = []
    ok = True
    for curve in curves:
        hist = ellstat.chebotarev_histogram(
            curve,
            args.p,
            args.qmax,
            resolve_scalar=args.resolve_scalar,
            seed=args.seed,
        )
        reports.append(_curve_payload(hist))
        ok = ok and all(st.within_3se for st in hist.stats.values())
    payload = reports[0] if len(reports) == 1 else {"curves": reports}
    return payload, ok


def _cmd_dirichlet(args) -> tuple[dict, bool]:
    from . import dirichletden

    chi1 = dirichletden.dirichlet_character(args.modulus, args.chi)
    chi2 = dirichletden.dirichlet_character(args.modulus, args.chi2)
    exact = dirichletden.exact_matching_density_dirichlet(chi1, chi2)
    series = dirichletden.matching_prime_series(chi1, chi2, args.xmax)
    estimate = dirichletden.natural_density_estimate(series)
    s_values = (
        [float(s) for s in args.s_values.split(",")]
        if args.s_values
        else dirichletden.DEFAULT_S_SCHEDULE
    )
    schedule = dirichletden.dirichlet_density_estimate(series, s_values)
    payload = {
        "modulus": args.modulus,
        "chi": {"index": args.chi, "order": chi1.order, "exponents": list(chi1.exponents)},
        "chi2": {"index": args.chi2, "order": chi2.order, "exponents": list(chi2.exponents)},
        "exact_matching_density": _rat(exact),
        "natural_density": {
            "estimate": estimate.estimate,
            "stderr": estimate.stderr,
            "marked": estimate.marked,
            "total": estimate.total,
        },
        "dirichlet_density_partial_sums": [
            {"s": s, "ratio": v} for s, v in schedule
        ],
        "x_max": args.xmax,
    }
    within = abs(estimate.estimate - float(exact)) <= 3 * max(estimate.stderr, 1e-9)
    payload["within_3_sigma"] = within
    return payload, True


def _cmd_verify_all(args) -> tuple[dict, bool]:
    from .acceptance import run_acceptance

    numbers = [args.criterion] if args.criterion else None
    results = run_acceptance(numbers, progress=lambda r: print(r.line(), flush=True))
    payload = {
        "results": [
            {
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return payload, payload["all_passed"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchdens",
        description="exact matching/zero-trace densities, planners, and empirical Chebotarev checks",
    )
    parser.add_argument("--version", action="version", version=f"matchdens {__version__}")
    parser.add_argument(
        "--format",
        choices=["json", "table"],
        default=None,
        help="output format (default: table on a terminal, json otherwise)",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("density", help="exact densities of an explicit prime window")
    p.add_argument("--primes", required=True, help="comma-separated primes, e.g. 11,13")
    p.add_argument(
        "--allow-small-primes",
        action="store_true",
        help="permit primes <= 7 (oracle cross-checks only)",
    )
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("approx", help="plan a window (and twist) near a target density")
    p.add_argument("--target", help="target density, rational or decimal (e.g. 0.37 or 17/32)")
    p.add_argument("--eps", help="tolerance, rational or decimal (default 1/100)")
    p.add_argument("--mode", choices=["zero", "matching"], default="zero")
    p.add_argument("--preset", help="serre-k:<k>, tetrahedral-17-32, or steinberg:<p>")
    p.add_argument("--prime-bound", type=int, default=None, help="planner work bound override")
    p.add_argument("--full-window", action="store_true", help="inline all window primes")
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("gl2", help="class-type fractions and the p-dimensional character")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(handler=_cmd_gl2)

    p = sub.add_parser("fiber", help="fiber/direct products of the named groups")
    p.add_argument("--preset", help="tetrahedral-17-32")
    p.add_argument("--left", help="named group, e.g. sl2f3")
    p.add_argument("--right", help="named group")
    p.add_argument("--over", choices=["trivial", "abelianization"], default="abelianization")
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("chartable", help="exact character table of a named group")
    p.add_argument("--group", required=True, help="trivial|cyclic:n|q8|s3|d4|sl2f3|gl2fp:p|heisenberg:3")
    p.set_defaults(handler=_cmd_chartable)

    p = sub.add_parser("shift", help="shift a quadratic away from small primes and scan")
    p.add_argument("--poly", required=True, help="coefficients a,b,c of a x^2 + b x + c")
    p.add_argument("--T", type=int, required=True, help="exclude prime factors below T")
    p.add_argument("--scan", type=int, default=0, help="scan F(n) for n up to this bound")
    p.add_argument("--trial-bound", type=int, default=1_000_000,
                   help="sieve primes up to this bound (refused above sieveshift.MAX_TRIAL_BOUND)")
    p.add_argument("--rho-iterations", type=int, default=1 << 14)
    p.set_defaults(handler=_cmd_shift)

    p = sub.add_parser("ellstat", help="empirical Chebotarev statistics for a curve")
    p.add_argument("--a", type=int, help="coefficient a of y^2 = x^3 + a x + b")
    p.add_argument("--b", type=int, help="coefficient b")
    p.add_argument("--p", type=int, required=True, help="torsion prime (> 7 expected)")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--conductor", type=int, default=None, help="declared conductor (square-free)")
    p.add_argument("--curves", help="file with one curve per line: a b [conductor] [label]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolve-scalar", action="store_true")
    p.set_defaults(handler=_cmd_ellstat)

    p = sub.add_parser("dirichlet", help="exact vs empirical matching density of two characters")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--chi", type=int, required=True, help="character index (mixed-radix over generator orders)")
    p.add_argument("--chi2", type=int, required=True)
    p.add_argument("--xmax", type=int, default=10**6)
    p.add_argument("--s-values", help="comma-separated s schedule, e.g. 1.5,1.2,1.1")
    p.set_defaults(handler=_cmd_dirichlet)

    p = sub.add_parser("verify-all", help="run the acceptance criteria and report pass/fail")
    p.add_argument("--criterion", type=int, default=None, help="run a single criterion")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def _print_table(payload, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{indent}{key}: [{len(value)} entries]")
        else:
            print(f"{indent}{key} = {value}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    started = time.time()
    try:
        payload, ok = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": "matchdens " + " ".join(argv),
        "result": payload,
        "elapsed_seconds": round(time.time() - started, 3),
        "ok": ok,
    }
    fmt = args.format or ("table" if sys.stdout.isatty() else "json")
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        _print_table(report)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
