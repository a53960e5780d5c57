"""In-memory spans for the traced run, and the wrapping that records them.

A span is (name, parent span, operation id, start, end) with times from
``time.perf_counter``. Spans live in flat arrays (about 28 bytes each) and
are written out once, when the run ends. A layer's self time is its
spans' duration minus the part covered by their child spans.

``installed`` replaces every binding of each traced public function in
the ``prevthresh`` modules with a recording wrapper, so a call is seen
where another module makes it (``prevthresh.bounds.mcc_ratio`` as
``verify_bounds`` looks it up, ``prevthresh.dataio.ppv_at`` as the curve
emitter looks it up). ``Rate`` construction is counted without a span.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Public functions traced per module of src/prevthresh.
TRACED = {
    "bounds": (
        "verify_bounds",
        "f1_ratio",
        "f_beta_ratio",
        "fm_ratio",
        "mcc_ratio",
        "mcc_at_threshold",
        "accuracy_divergence_curve",
    ),
    "thresholds": ("positive_threshold", "negative_threshold", "curvature_argmax", "curvature_at"),
    "metrics": ("ppv_at", "npv_at", "f1_at", "f_beta_at", "fm_at", "mcc_from_rates"),
    "report": ("analyze_counts",),
    "simulate": ("simulate_population",),
    "dataio": ("emit_curves", "emit_ratio_curves", "write_predictions", "ingest_predictions"),
}


class Tracer:
    """Records nested spans; ``operation`` opens a root span with a fresh operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self.rate_calls = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; yields its span index."""
        self._op += 1
        i = self._open(self._id(name))
        try:
            yield i
        finally:
            self._close(i)

    def add(self, name: str, parent: int, start: float, end: float) -> None:
        """A span measured elsewhere, such as inside a child process (same clock)."""
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.op.append(self.op[parent])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(name)):
            d = end[i] - start[i]
            k = name[i]
            calls[k] += 1
            own[k] += d
            p = parent[i]
            if p >= 0:
                own[name[p]] -= d
        return {n: (calls[k], own[k]) for k, n in enumerate(self.names)}

    def write(self, prefix: Path) -> None:
        """Write ``<prefix>.json`` (names, layout) and ``<prefix>.bin`` (the arrays, in that order)."""
        fields = ("name", "parent", "op", "start", "end")
        with open(prefix.with_suffix(".bin"), "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)
        header = {
            "count": len(self.name),
            "names": self.names,
            "fields": [[field, getattr(self, field).typecode] for field in fields],
            "clock": "time.perf_counter seconds",
        }
        with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as f:
            json.dump(header, f, indent=1)


@contextmanager
def installed(tracer: Tracer):
    """Route the traced functions and ``Rate`` construction through ``tracer``."""
    modules = [m for n, m in sys.modules.items() if n == "prevthresh" or n.startswith("prevthresh.")]
    wrappers = {}
    for module_name, functions in TRACED.items():
        module = sys.modules[f"prevthresh.{module_name}"]
        for fname in functions:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{module_name}.{fname}", fn))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    rate = sys.modules["prevthresh.metrics"].Rate
    original_new = rate.__dict__["__new__"]
    new = original_new.__func__

    def counting_new(cls, value):
        tracer.rate_calls += 1
        return new(cls, value)

    rate.__new__ = staticmethod(counting_new)
    try:
        yield
    finally:
        rate.__new__ = original_new
        for module, attr, value in patched:
            setattr(module, attr, value)
