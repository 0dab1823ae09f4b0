"""Run the benchmark over many seeds, for one tree or alternating between two.

    python3 perfbench/sweep.py --out /tmp/runs --seeds 1-10 TREE [TREE2]

TREE and TREE2 are checkouts (for example a parent and a child commit), each
with its own perfbench/run.py.  For every seed and workload the trees run one
after the other, and the order alternates from seed to seed.  Each tree's runs
go to OUT/a.jsonl and OUT/b.jsonl, one JSON record per run; compare.py reads
them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="+", help="one or two checkouts to run")
    ap.add_argument("--out", required=True, help="directory for a.jsonl (and b.jsonl)")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="a range such as 1-10")
    ap.add_argument("--workloads", type=lambda s: s.split(","), help="comma-separated; default: all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")

    trees = [Path(t).resolve() for t in args.trees]
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {t: open(out / f"{label}.jsonl", "a") for t, label in zip(trees, "ab")}
    try:
        for i, seed in enumerate(args.seeds):
            for w in workloads:
                order = trees if i % 2 == 0 else trees[::-1]
                for tree in order:
                    cmd = [sys.executable, *spec["command"][1:], "--workload", w, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                    t = time.monotonic()
                    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
                    wall = time.monotonic() - t
                    lines = proc.stdout.strip().splitlines()
                    try:
                        result = json.loads(lines[-1])
                    except (IndexError, json.JSONDecodeError):
                        result = None
                    record = {"tree": str(tree), "workload": w, "seed": seed, "trace": args.trace,
                              "exit": proc.returncode, "wall_s": wall, "result": result}
                    files[tree].write(json.dumps(record) + "\n")
                    files[tree].flush()
                    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                    print(f"seed {seed} {w:<11} {tree.name:<20} {wall:6.1f} s  {status}", flush=True)
                    if proc.returncode != 0:
                        print(proc.stderr[-2000:], file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
