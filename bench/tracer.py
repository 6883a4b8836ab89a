"""In-memory span tracer that wraps library functions from outside the package.

A span is (name, start, end, parent, op id).  Spans are appended to flat
arrays so a traced pass of a million calls stays small; `table()` turns them
into numpy arrays with durations and self times, where a span's self time is
its duration minus the time its child spans cover.  Calls on one thread nest
strictly, so the children of a span never overlap and the covered time is the
sum of their durations.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, variant=None):
        """Return fn wrapped so that each call records one span.

        `variant(*args, **kwargs)`, when given, appends a suffix to the span
        name from the call's arguments (e.g. the boundary type)."""
        base = self._id(name)
        names, starts, ends, parents, ops = (
            self._name, self._start, self._end, self._parent, self._op,
        )
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = base if variant is None else self._id(f"{name}.{variant(*args, **kwargs)}")
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, variant=None) -> None:
        """Replace owner.attr by its traced wrapper until restore()."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, variant))

    def patch_everywhere(self, fn, name: str, prefixes: tuple[str, ...], variant=None) -> None:
        """Wrap fn in every loaded module under `prefixes` that binds it by
        name (e.g. `from .metric import as_vector`)."""
        traced = self.wrap(name, fn, variant)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(prefixes):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        op = np.frombuffer(self._op, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return SpanTable(list(self.names), name, parent, op, dur, dur - covered)


@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    dur: np.ndarray
    self_time: np.ndarray

    def select(self, prefix: str, ops=None) -> np.ndarray:
        """Mask of spans whose name starts with `prefix`, optionally only
        those recorded during the op ids in `ops`."""
        ids = [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]
        mask = np.isin(self.name, ids)
        if ops is not None:
            mask &= np.isin(self.op, np.asarray(list(ops), dtype=np.int64))
        return mask

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans with a span named `ancestor` (or a variant of it)
        somewhere above them."""
        anc = self.select(ancestor)
        out = np.zeros(len(self.name), dtype=bool)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return out
            out[live] |= anc[cur[live]]
            cur[live] = self.parent[cur[live]]

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        n = len(self.names)
        calls = np.bincount(self.name, minlength=n)
        total = np.bincount(self.name, weights=self.dur, minlength=n)
        own = np.bincount(self.name, weights=self.self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
