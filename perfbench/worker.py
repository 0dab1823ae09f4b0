"""One benchmark process: set up, run whole rounds of one workload, check.

run.py starts this in a fresh interpreter and reads the JSON object it prints
as its last line.  Modes:

  probe   set up and stop; reports setup_s only
  timed   run rounds until the op time reaches --seconds
  rounds  run the workload's trace_rounds rounds (traced runs: counts repeat)

setup_s runs from --t0, the parent's monotonic clock just before it started
this interpreter, to the moment the first timed op could start: it covers
interpreter start, the import of matchdens and a fixed warm-up request of
each kind, which triggers the program's lazy set-up such as sieves.

Ops run one at a time (a closed loop with one client).  Each op's latency is
the time inside its one call into matchdens; the output check, and the
generation of the next round, run outside those intervals, and ops_per_s is
ops divided by the summed latencies.  Between ops, about every
calibrate.CALIBRATE_EVERY_S seconds of op time, the worker times the
reference kernel; run.py turns raw times into reference seconds with it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from time import perf_counter

import calibrate
from tracer import SpanRecorder

PROBE_OP = -2  # op id of the layer probe that ends a traced run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "rounds"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default="", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    import workloads  # imports matchdens

    rec = None
    if args.trace:
        import layers

        rec = SpanRecorder()
        layers.install(rec)
    wl = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"))
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    calibrate.settle(wl.KERNEL)
    # (ops done before the sample, kernel seconds); the first one prices set-up
    calibration = [(0, calibrate.sample(wl.KERNEL))]
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s, "kernel": wl.KERNEL, "calibration": calibration}))
        return 0

    check_rng = random.Random(f"{args.workload}/{args.seed}/check")
    latencies: list[float] = []
    units = failed_units = 0
    faults: list[str] = []
    timed = 0.0
    since_calibration = 0.0
    rounds = 0
    while True:
        if rec is not None:
            rec.enabled = False  # generation and checks stay out of the trace
        for op in wl.next_round():
            if rec is not None:
                rec.op_id = len(latencies)
                rec.enabled = True
            result = error = None
            t = perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # refusals are certified by the check
                error = exc
            dt = perf_counter() - t
            if rec is not None:
                rec.enabled = False
            latencies.append(dt)
            timed += dt
            since_calibration += dt
            if since_calibration >= calibrate.CALIBRATE_EVERY_S:
                calibration.append((len(latencies), calibrate.sample(wl.KERNEL)))
                since_calibration = 0.0
            try:
                outcome = wl.check(op, result, error, check_rng)
            except Exception:
                outcome = workloads.Outcome(fault="check raised:\n" + traceback.format_exc())
            if outcome.fault and error is not None:
                outcome.fault += "\n" + "".join(traceback.format_exception(error))
            units += outcome.units
            failed_units += outcome.failed_units
            if outcome.fault:
                faults.append(f"op {len(latencies) - 1} {op!r:.200}: {outcome.fault}")
            del result, error
        rounds += 1
        if args.mode == "timed" and timed >= args.seconds:
            break
        if args.mode == "rounds" and rounds >= wl.trace_rounds:
            break

    calibration.append((len(latencies), calibrate.sample(wl.KERNEL)))
    payload = {
        "setup_s": setup_s,
        "kernel": wl.KERNEL,
        "calibration": calibration,
        "rounds": rounds,
        "latencies": latencies,
        "timed_s": timed,
        "units": units,
        "failed_units": failed_units,
        "faults": faults[:20],
        "fault_count": len(faults),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        rec.op_id = PROBE_OP
        rec.enabled = True
        layers.probe()
        rec.enabled = False
        payload["layers"] = layers.metrics(rec, getattr(wl, "layer_counts", dict)())
        payload["counts"] = {k: payload["layers"][k] for k in layers.COUNT_METRICS}
        payload["counts"].update(ops=len(latencies), units=units, failed_units=failed_units)
        if args.spans:
            rec.save(args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
