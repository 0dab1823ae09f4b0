"""Summarize one set of benchmark runs, or compare two.

    python3 perfbench/compare.py runs/a.jsonl              # spread of each metric
    python3 perfbench/compare.py runs/a.jsonl runs/b.jsonl # A = parent, B = change

Input files are written by sweep.py.  Every (metric, workload) pair gets its
own row with each side's median and quartiles.

One set: the spread is (q3 - q1) / median; a row is flagged when the spread
exceeds a third of the metric's bound, or the bound itself.

Two sets: runs are paired by workload and seed.  B wins a pair when it reads
better than A.  The verdict follows the rule for claiming a gain in a small
sandbox:
  better      B wins at least 9/10 of the pairs (ties count for neither) and
              the medians differ by more than A's quartile distance
  worse       for an end-to-end metric, B's median is worse than A's by more
              than the metric's bound; for a per-layer metric (no bound), A
              wins 9/10 of the pairs by more than A's quartile distance
  unresolved  for an end-to-end metric, A's own spread is wider than the
              bound, unless every run of B reads better than every run of A;
              for a per-layer metric, the medians differ by more than A's
              quartile distance without either side winning 9/10 of the pairs
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """(workload, metric) -> {seed: value}; runs that failed or printed no result are reported."""
    table: dict = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        res = rec["result"]
        if rec["exit"] != 0 or not res or not res["correct"]:
            print(f"{path}: {rec['workload']} seed {rec['seed']} failed (exit {rec['exit']})", file=sys.stderr)
            continue
        for name, m in res["metrics"].items():
            table[(rec["workload"], name)][rec["seed"]] = m["value"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric: str, x: float, y: float) -> bool:
    """x reads better than y."""
    return x < y if METRICS[metric]["better"] == "lower" else x > y


def spread(path: str) -> int:
    table = load(path)
    print(f"{'workload':<11} {'metric':<30} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (w, name), by_seed in sorted(table.items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        rel = (q3 - q1) / abs(med) if med else 0.0
        bound = METRICS[name].get("bound")
        flag = ""
        if bound is not None:
            flag = "OVER" if rel > bound else ("wide" if rel > bound / 3 else "")
        print(f"{w:<11} {name:<30} {len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>7.3f} "
              f"{bound if bound is not None else '':>6} {flag}")
    return 0


def verdict(name: str, a: dict, b: dict) -> tuple[str, str]:
    seeds = sorted(set(a) & set(b))
    wins_b = sum(better(name, b[s], a[s]) for s in seeds)
    wins_a = sum(better(name, a[s], b[s]) for s in seeds)
    qa1, ma, qa3 = quartiles(list(a.values()))
    _, mb, _ = quartiles(list(b.values()))
    iqr = qa3 - qa1
    gain = (ma - mb) if METRICS[name]["better"] == "lower" else (mb - ma)
    pairs = f"{wins_b}/{wins_a}/{len(seeds) - wins_a - wins_b}"
    bound = METRICS[name].get("bound")
    if seeds and wins_b >= 0.9 * len(seeds) and gain > iqr:
        return "better", pairs
    if bound is None:
        if seeds and wins_a >= 0.9 * len(seeds) and -gain > iqr:
            return "worse", pairs
        return ("unchanged" if abs(gain) <= iqr else "unresolved"), pairs
    if ma and iqr / abs(ma) > bound:
        every = all(better(name, vb, va) for vb in b.values() for va in a.values())
        return ("unchanged" if every else "unresolved"), pairs
    return ("worse" if -gain > bound * abs(ma) else "unchanged"), pairs


def compare(path_a: str, path_b: str) -> int:
    ta, tb = load(path_a), load(path_b)
    print(f"{'workload':<11} {'metric':<30} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
          f"{'B/A/tie':>8}  verdict")
    for key in sorted(set(ta) & set(tb)):
        w, name = key
        rows = []
        for side in (ta[key], tb[key]):
            q1, med, q3 = quartiles(list(side.values()))
            rows.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        v, pairs = verdict(name, ta[key], tb[key])
        print(f"{w:<11} {name:<30} {rows[0]:>36} {rows[1]:>36} {pairs:>8}  {v}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="+", help="one or two JSONL files from sweep.py")
    args = ap.parse_args(argv)
    if len(args.runs) == 1:
        return spread(args.runs[0])
    if len(args.runs) == 2:
        return compare(*args.runs)
    ap.error("give one or two files")


if __name__ == "__main__":
    sys.exit(main())
