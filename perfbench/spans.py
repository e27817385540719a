"""In-memory spans around calls into dsltopo's layers.

A span is (layer, start, end, parent, count). Spans are kept in flat
arrays while the run lasts and summarised or written out when it ends.
Calls into a layer are caught by rebinding, for the traced run only, the
module-level names through which one layer calls the next; `restore`
puts the original functions back.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._codes: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._layer = array("q")
        self._parent = array("q")
        self._count = array("q")
        self._stack: list[int] = []
        self._depth: Counter = Counter()  # open spans per layer code
        self._restore: list[tuple[object, str, object]] = []
        self.untraced: list[str] = []

    def _code(self, layer: str) -> int:
        if layer not in self._codes:
            self._codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self._codes[layer]

    def _begin(self, code: int) -> int:
        i = len(self._start)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._layer.append(code)
        self._count.append(0)
        self._end.append(0.0)
        self._stack.append(i)
        self._depth[code] += 1
        self._start.append(perf_counter())
        return i

    def _finish(self, i: int, count: int) -> None:
        self._end[i] = perf_counter()
        self._count[i] = count
        self._stack.pop()
        self._depth[self._layer[i]] -= 1

    @contextmanager
    def span(self, layer: str):
        i = self._begin(self._code(layer))
        try:
            yield
        finally:
            self._finish(i, 0)

    def wrap(self, fn, layer: str, count=None):
        """fn with a span around each call; count(args, result) adds work done.

        A call made while a span of the same layer is open is not recorded
        again, so a layer reached through two names is counted once.
        """
        code = self._code(layer)

        def traced(*args, **kwargs):
            if self._depth[code]:
                return fn(*args, **kwargs)
            i = self._begin(code)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = int(count(args, result))
                return result
            finally:
                self._finish(i, n)

        return traced

    def install(self, bindings) -> None:
        """Rebind (module, name, layer, count) entries that exist.

        A layer none of whose names exists is listed in `untraced`.
        """
        found: dict[str, bool] = {}
        for module_name, name, layer, count in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            found.setdefault(layer, False)
            if original is None:
                continue
            found[layer] = True
            setattr(module, name, self.wrap(original, layer, count))
            self._restore.append((module, name, original))
        self.untraced = sorted(layer for layer, ok in found.items() if not ok)

    def restore(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: total seconds, self seconds, calls and summed count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so children never overlap one another.
        """
        n = len(self._start)
        out = {layer: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0} for layer in self.layers}
        if n == 0:
            return out
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        layer = np.frombuffer(self._layer, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.layers)
        total = np.bincount(layer, weights=dur, minlength=k)
        self_total = np.bincount(layer, weights=dur - children, minlength=k)
        calls = np.bincount(layer, minlength=k)
        counts = np.bincount(layer, weights=np.frombuffer(self._count, dtype=np.int64), minlength=k)
        for code, name in enumerate(self.layers):
            out[name] = {
                "s": float(total[code]),
                "self_s": float(self_total[code]),
                "calls": int(calls[code]),
                "count": int(counts[code]),
            }
        return out

    def write(self, path: str, **header) -> None:
        """Write the spans as columns: layer code, start and end in ns from
        the first span's start, parent index (-1 for none), count."""
        t0 = self._start[0] if self._start else 0.0
        doc = dict(header)
        doc["layers"] = self.layers
        doc["untraced"] = self.untraced
        doc["spans"] = {
            "layer": self._layer.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self._start],
            "end_ns": [round((t - t0) * 1e9) for t in self._end],
            "parent": self._parent.tolist(),
            "count": self._count.tolist(),
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
