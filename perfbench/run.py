"""Run one matchdens benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its sources in src/.  With --trace 0 the run reports the
end-to-end metrics: the median set-up time of several fresh interpreters and,
from one timed process, throughput, median and tail op latency, the share of
failed units and peak memory.  Times are in reference seconds: raw times
scaled by a kernel that tracks the shared host's speed (see calibrate.py);
the raw figures are printed beside them.  With --trace 1 it runs a fixed number of
rounds three times (once untraced, twice traced), reports the per-layer
metrics of the first traced run and checks that both traced runs counted
exactly the same work.

Every output is checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every check passed, 1 when a check failed or a process did not finish,
and 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh interpreters per run whose median is setup_s
TIME_LIMIT_S = 170  # the whole invocation, all processes included


class BenchmarkFault(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float, *, seconds: float = 0, trace: int = 0,
          spans: str = "") -> dict:
    """Start worker.py in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    env.pop("MATCHDENS_PLANNER_PRIME_BOUND", None)  # the planner's default bound is measured
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # identical runs must count identical work
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace), "--t0", repr(t0)]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkFault("time limit reached before the next process could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkFault(f"{workload} {mode} process exceeded the {TIME_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkFault(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it, and that percentile."""
    s = sorted(latencies)
    if len(s) < 11:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def setup_time(run: dict) -> float:
    """setup_s in reference seconds, priced by the kernel sample taken right after set-up."""
    return run["setup_s"] * calibrate.reference(run["kernel"]) / run["calibration"][0][1]


def op_times(run: dict) -> list[float]:
    return calibrate.rescale(run["latencies"], run["calibration"], run["kernel"])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    probes = [spawn(workload, seed, "probe", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(workload, seed, "timed", deadline, seconds=seconds)
    setups = [setup_time(r) for r in (*probes, run)]
    lat = op_times(run)
    tail_s, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "fail_share": run["failed_units"] / run["units"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = run["latencies"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{statistics.median(r['setup_s'] for r in (*probes, run)):.4g} s",
        "ops_per_s": f"{len(lat)} ops, {run['rounds']} rounds; raw {len(raw) / run['timed_s']:.4g} 1/s "
                     f"in {run['timed_s']:.2f} s of op time",
        "op_p50_s": f"raw {statistics.median(raw):.4g} s",
        "op_tail_s": f"p{tail_pct:.1f} of {len(lat)} ops; raw {tail(raw)[0]:.4g} s",
        "fail_share": f"{run['failed_units']} of {run['units']} units refused or unresolved",
    }
    return values, notes, [run]


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    base = spawn(workload, seed, "rounds", deadline)
    traced = [spawn(workload, seed, "rounds", deadline, trace=1, spans=str(out / f"spans-{workload}-{seed}-{tag}.npz"))
              for tag in "ab"]
    first, second = traced
    if first["counts"] != second["counts"]:
        diff = {k: (v, second["counts"].get(k)) for k, v in first["counts"].items() if second["counts"].get(k) != v}
        first["faults"].append(f"benchmark fault: two traced runs with seed {seed} counted different work: {diff}")
        first["fault_count"] += 1
    values = dict(first["layers"])
    rate = len(first["latencies"]) / sum(op_times(first))
    base_rate = len(base["latencies"]) / sum(op_times(base))
    values["trace.overhead_share"] = 1 - rate / base_rate
    notes = {"trace.overhead_share": f"{len(first['latencies'])} ops, traced vs untraced ops_per_s"}
    return values, notes, [base, *traced]


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int, deadline: float):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values, notes, runs = (per_layer(workload, seed, deadline) if trace
                           else end_to_end(workload, seed, seconds, deadline))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{workload:<11} {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']:<6}"
              + (f"  ({note})" if note else ""))
    faults = [f for r in runs for f in r["faults"]]
    for f in faults:
        print(f"FAULT {workload}: {f}", file=sys.stderr)
    failed = sum(r["fault_count"] for r in runs)
    return metrics, len(runs[-1]["latencies"]), failed


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "matchdens" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no matchdens sources (src/matchdens) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    selected = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for w in selected:
            deadline = time.monotonic() + TIME_LIMIT_S
            m, a, f = run_workload(spec, w, args.seed, args.seconds, args.trace, deadline)
            metrics.update(m if len(selected) == 1 else {f"{w}.{k}": v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchmarkFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
