"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the matchdens modules from the
benchmark's side: every module attribute that refers to a wrapped function is
replaced, so calls between layers (for example sieveshift -> primes.is_prime)
are recorded without touching the program.  Spans live in compact in-memory
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1  # op id of spans recorded before the first timed op


class SpanRecorder:
    """Spans as parallel arrays: name id, parent span, op id, start, end, raised."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[str, int] = {}
        self.stack = [-1]
        self.op_id = SETUP_OP
        self.enabled = True

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, on_result=None):
        """A traced stand-in for fn; on_result(recorder, args, result) adds counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.op.append(rec.op_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.raised.append(0)
            rec.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised[sid] = 1
                raise
            finally:
                rec.end[sid] = perf_counter()
                rec.start[sid] = t0
                rec.stack.pop()
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return traced

    def instrument(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap owner.attr and rebind every matchdens module alias of it."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, on_result)
        setattr(owner, attr, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("matchdens"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals, with self time = duration minus the direct children's."""

    def __init__(self, recorder: SpanRecorder):
        a = recorder.arrays()
        self.names = recorder.names
        self.name_id = a["name_id"]
        self.raised = a["raised"].astype(bool)
        self.duration = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        self.child_time = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(parent)
        )

    def _mask(self, name: str, raised: bool | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if raised is not None:
            mask &= self.raised == raised
        return mask

    def calls(self, *names: str, raised: bool | None = None) -> int:
        return int(sum(self._mask(n, raised).sum() for n in names))

    def seconds(self, *names: str, raised: bool | None = None) -> float:
        return float(sum(self.duration[self._mask(n, raised)].sum() for n in names))

    def self_seconds(self, name: str) -> float:
        mask = self._mask(name)
        return float((self.duration[mask] - self.child_time[mask]).sum())
