"""A reference kernel that tracks the host's speed during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-30% within seconds, for every process alike: the same planner query can
take 1.0 s in one round and 2.3 s in the next.  Raw op times of runs made
minutes apart therefore differ by more than any change worth detecting.

So the worker times a small fixed kernel between ops, about every
CALIBRATE_EVERY_S seconds of op time, and every time the benchmark reports is
in reference seconds: the raw time multiplied by the kernel's reference time
over its time at that moment (the median of the WINDOW samples nearest the
op).  The kernel runs no matchdens code, so a program that gets faster shows
in full; a host that gets slower slows the kernel alike and cancels out.

The kernel is built from parts, one for each kind of work the workloads do:
interpreter-bound small-int arithmetic with a dict and 128-bit pow, a product
tree of many-limb integers, and whole-array int64 arithmetic with boolean
indexing.  Each workload names the parts that slow down with its own ops
(Workload.KERNEL): all three for the interpreter-bound workloads, numpy alone
for chebotarev, whose vectorized counting the host's contention slows far
less than it slows the interpreter.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

CALIBRATE_EVERY_S = 0.25  # op time between two kernel samples
WINDOW = 4  # samples whose median prices an op: two before it, two after
SETTLE_RUNS = 5  # untimed kernel runs before the first sample

# typical part times on the machine the benchmark was defined on (2 cores,
# Python 3.11, numpy 2.4): reported times read as if the host ran at that speed
REFERENCE_S = {"python": 0.008, "bigint": 0.0065, "numpy": 0.0085}


def _python() -> int:
    table: dict[int, tuple[int, int]] = {}
    m = (1 << 127) - 1
    x = 3
    for i in range(10_000):
        x = pow(x, 5, m) if i % 16 == 0 else (x * x + i) % m
        k = (x ^ i) & 1023
        a, b = table.get(k, (0, 1))
        table[k] = (b, (a + b + i) % 65521)
    return sum(b for _, b in table.values()) + x


_BIG_FACTORS = list(range(10_001, 10_001 + 2 * 10_240, 2))


def _bigint() -> int:
    xs = _BIG_FACTORS
    while len(xs) > 1:
        xs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) & ~1 :]
    return xs[0].bit_length()


_ARRAY = np.arange(1, 250_001, dtype=np.int64)


def _numpy() -> int:
    x = _ARRAY
    f = (x * x % 100_003 * x + 7 * x + 11) % 100_003
    squares = np.zeros(100_003, dtype=bool)
    squares[x * x % 100_003] = True
    return int(squares[f].sum())


PARTS = {"python": _python, "bigint": _bigint, "numpy": _numpy}


def sample(parts) -> float:
    """Seconds the kernel made of these parts takes now.

    The collector is off meanwhile: a collection would traverse the
    workload's live objects and time its heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        for name in parts:
            PARTS[name]()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def settle(parts) -> None:
    """Run the kernel SETTLE_RUNS times, untimed.

    The first runs in a fresh process read slow (up to 40% here) for reasons
    of their own, such as fresh pages for the kernel's arrays, and would
    misprice set-up and the first ops.
    """
    for _ in range(SETTLE_RUNS):
        sample(parts)


def reference(parts) -> float:
    return sum(REFERENCE_S[name] for name in parts)


def rescale(latencies: list[float], samples: list[tuple[int, float]], parts) -> list[float]:
    """Op times in reference seconds.

    samples holds (ops done before the sample, kernel seconds) in run order;
    op i lies between the last sample with i or fewer ops done and the next.
    """
    ref = reference(parts)
    positions = [n for n, _ in samples]
    kernel = [s for _, s in samples]
    out = []
    j = 0  # index of the last sample taken before op i
    for i, t in enumerate(latencies):
        while j + 1 < len(positions) and positions[j + 1] <= i:
            j += 1
        near = kernel[max(0, j - WINDOW // 2 + 1) : j + WINDOW // 2 + 1]
        out.append(t * ref / statistics.median(near))
    return out
