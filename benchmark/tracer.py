"""Spans recorded from outside the program, around the calls into each layer.

``install`` replaces every public module-level function of every ``geoxray``
submodule, plus a few named methods, by a wrapper that records a span.  The
wrapper is put at every name that is bound to the original function, in
every ``geoxray`` module, so a call is recorded whichever module makes it:
``trace_geodesic`` is wrapped in ``cli``, ``recovery`` and ``transform`` as
well as in ``geometry``.  New modules and functions are picked up without
changes here, so no layer goes unmeasured after a refactor.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1.  Spans are kept in memory and written when the run
ends.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

import numpy as np

# Methods that are layer boundaries but are not module-level functions.
METHODS = (
    ("tiling", "Tiling", "validate"),
    ("recovery", "SyntheticOracle", "query"),
    ("foliation", "FoliationFunction", "certify"),
)


class Tracer:
    """Span recorder; records only while ``enabled`` is true."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list = []
        self.results: list = []   # per span: the count the result carries, or None
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        spans, results, stack, clock = self.spans, self.results, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            results.append(None)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                results[index] = count(out)
            return out

        return wrapper

    def mark(self):
        """Index from which the spans of the next traced section start."""
        return len(self.spans)

    def write(self, path, sections):
        """Write the spans as JSON lines, one per span, tagged with their section."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, lo, hi in sections:
                for i in range(lo, hi):
                    name, start, end, parent = self.spans[i]
                    fh.write(json.dumps({"run": self.run_id, "section": label, "id": i,
                                         "name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _len_or_zero(out):
    try:
        return len(out)
    except TypeError:
        return 0


# Counts read from results, by span name: samples per traced path, pieces per
# clip, candidate chords per batch and admissible chords per reconstruction.
COUNTS = {
    "geometry.trace_geodesic": lambda path: int(getattr(path, "n_samples", 0)),
    "geometry.trace_forward": lambda path: int(getattr(path, "n_samples", 0)),
    "tiling.clip_path": _len_or_zero,
    "recovery.batch_descriptors": _len_or_zero,
    "recovery.reconstruct": lambda report: int(sum(getattr(report, "geodesics_per_batch", []))),
}


def geoxray_modules():
    import geoxray

    names = sorted(m.name for m in pkgutil.iter_modules(geoxray.__path__))
    return [geoxray] + [importlib.import_module(f"geoxray.{n}") for n in names]


def install(tracer: Tracer):
    """Wrap the public functions and the named methods."""
    modules = geoxray_modules()
    wrapped = {}
    for mod in modules[1:]:
        short = mod.__name__.split(".")[-1]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or id(obj) in wrapped):
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = tracer.wrap(name, obj, COUNTS.get(name))
    for mod in modules:
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            if id(obj) in wrapped:
                namespace[attr] = wrapped[id(obj)]
    for short, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"geoxray.{short}"), cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if inspect.isfunction(fn):
            name = f"{short}.{meth}"
            setattr(cls, meth, tracer.wrap(name, fn, COUNTS.get(name)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans, lo, hi):
    """Per-span self time for spans ``lo:hi`` (children lie in the same range)."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        _name, start, end, parent = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
    return [spans[i][2] - spans[i][1] - child[i - lo] for i in range(lo, hi)]


def tail(samples):
    """``(percentile, value)`` at the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return 50.0, 0.0
    pct = 50.0
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
            break
    return pct, float(np.percentile(samples, pct))


class Section:
    """The spans ``lo:hi`` of one traced set-up and command, with aggregates.

    ``coverage`` is the share of the command's ``wall`` time spent below its
    own ``root`` span, that is, in the self time of some layer.
    """

    def __init__(self, tracer: Tracer, lo: int, hi: int, root: str = "", wall: float = 0.0):
        self.spans = tracer.spans
        self.results = tracer.results
        self.lo, self.hi = lo, hi
        self.self_time = self_times(self.spans, lo, hi)
        roots = self._select(root)
        self.coverage = 1.0 - self.self_time[roots[0] - lo] / wall if roots and wall > 0 else 0.0

    def _select(self, names):
        names = (names,) if isinstance(names, str) else names
        return [i for i in range(self.lo, self.hi) if self.spans[i][0] in names]

    def durations(self, names):
        return [self.spans[i][2] - self.spans[i][1] for i in self._select(names)]

    def total(self, names):
        return float(sum(self.durations(names)))

    def own(self, names):
        return float(sum(self.self_time[i - self.lo] for i in self._select(names)))

    def calls(self, names):
        return len(self._select(names))

    def counted(self, name):
        return int(sum(self.results[i] or 0 for i in self._select(name)))

    def counts(self):
        """Every call count and result count: two runs of one build must agree."""
        out = {}
        for i in range(self.lo, self.hi):
            name = self.spans[i][0]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            if self.results[i] is not None:
                out[name + ".count"] = out.get(name + ".count", 0) + self.results[i]
        return out
