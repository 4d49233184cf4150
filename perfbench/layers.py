"""Layer boundaries, timed from outside the package.

Everything here runs inside an operation process.  `Recorder.install`
replaces the public entry points of the report, predictions, equivalence
and sweep modules with timing wrappers (in every psimoments module that
imported them by name), and `traced_events` builds an EventSource subclass
that times each range request.  Nothing under src/ changes.

Without tracing only the sweep calls are recorded (duration, pieces,
length sum), which the end-to-end metrics need; with tracing every layer
call also becomes a span: name, start, end, parent, run id and counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

# module -> span name; every public function defined in the module is wrapped
TRACED_MODULES = {
    "psimoments.report": "report",
    "psimoments.predictions": "predictions",
    "psimoments.equivalence": "equivalence",
}


def replace_everywhere(original, replacement):
    """Rebind every psimoments module attribute that is ``original``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "psimoments" or name.startswith("psimoments.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Recorder:
    """Sweep-call records and, when tracing, spans of one operation."""

    def __init__(self, run_id: str, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.spans = []
        self.sweeps = []
        self._ids = itertools.count()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict):
        """Record a span; a worker thread's top-level span gets the main
        thread's open span as parent (the sweep that submitted it)."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(dict(run=self.run_id, id=sid, parent=parent, name=name,
                                   start=start, end=end, **attrs))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, {"call": fn.__name__}):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_sweep(self, fn):
        @functools.wraps(fn)
        def sweep_moments(window, pairs, **kwargs):
            attrs = {}
            ctx = self.span("sweep", attrs) if self.trace else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                results, diag = fn(window, pairs, **kwargs)
                t1 = time.perf_counter()
                attrs.update(pieces=diag.piece_count, pairs=len(pairs), chunks=diag.chunks)
            self.sweeps.append(dict(seconds=t1 - t0, pieces=diag.piece_count,
                                    pairs=len(pairs), chunks=diag.chunks,
                                    length_sum=diag.length_sum))
            return results, diag

        return sweep_moments

    def install(self):
        """Wrap the layer entry points; call once, after importing psimoments."""
        import psimoments.sweep

        original = psimoments.sweep.sweep_moments
        replace_everywhere(original, self.wrap_sweep(original))
        if not self.trace:
            return
        for modname, span_name in TRACED_MODULES.items():
            mod = sys.modules[modname]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                replace_everywhere(fn, self.wrap(span_name, fn))


def traced_events(recorder: Recorder, limit: int):
    """An EventSource that records a 'sieve' span for every range/arrays call."""
    from psimoments.sieve import EventSource

    class TracedEventSource(EventSource):
        def arrays(self):
            attrs = {"call": "arrays", "lo": 2, "hi": self.limit + 1}
            with recorder.span("sieve", attrs):
                out = super().arrays()
                attrs["events"] = int(out[0].size)
            return out

        def range(self, lo, hi):
            attrs = {"call": "range", "lo": int(lo), "hi": int(hi)}
            with recorder.span("sieve", attrs):
                ns, ws = super().range(lo, hi)
                attrs["events"] = int(ns.size)
            return ns, ws

        def count(self, lo, hi):
            """Events in [lo, hi), from the preloaded table or a fresh sieve."""
            if self.preload:
                ns = EventSource.arrays(self)[0]
                return int(np.searchsorted(ns, hi) - np.searchsorted(ns, lo))
            return int(EventSource.range(self, lo, hi)[0].size)

    return TracedEventSource(limit)


def _union(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _covered(start, end, intervals):
    """Length of [start, end) covered by the union of ``intervals``."""
    return sum(
        max(0.0, min(hi, end) - max(lo, start)) for lo, hi in _union(intervals)
    )


def distinct_events(source, sieve_spans):
    """Distinct events over all outermost sieve calls, counting each event
    once however many requests returned it: each request adds its events
    minus those in its overlap with the requests sorted before it."""
    seen = []
    total = 0
    for s in sorted(sieve_spans, key=lambda s: (s["lo"], s["hi"])):
        total += s["events"]
        for lo, hi in _union(seen):
            lo, hi = max(lo, s["lo"]), min(hi, s["hi"])
            if lo < hi:
                total -= source.count(lo, hi)
        seen.append((s["lo"], s["hi"]))
    return total


def layer_metrics(spans, sweeps, source=None):
    """Per-layer numbers of one traced operation.

    Busy times sum the outermost spans of a layer (sieve spans of pool
    workers overlap, so sieve.s may exceed wall time).  Self time is a
    span's duration minus the part of it its direct children cover.
    sieve.events counts events returned, sieve.events_per_s distinct ones.
    """
    by_id = {s["id"]: s for s in spans}

    def outermost(name):
        return [s for s in spans if s["name"] == name
                and (s["parent"] is None or by_id[s["parent"]]["name"] != name)]

    def self_time(name):
        total = 0.0
        for s in outermost(name):
            kids = [(c["start"], c["end"]) for c in spans if c["parent"] == s["id"]]
            total += (s["end"] - s["start"]) - _covered(s["start"], s["end"], kids)
        return total

    sieve = outermost("sieve")
    sieve_s = sum(s["end"] - s["start"] for s in sieve)
    returned = sum(s["events"] for s in sieve)
    distinct = distinct_events(source, sieve) if sieve else 0
    return {
        "sieve.s": sieve_s,
        "sieve.calls": len(sieve),
        "sieve.events": returned,
        "sieve.events_per_s": distinct / sieve_s if sieve_s else 0.0,
        "sieve.useful_ratio": distinct / returned if returned else 0.0,
        "sweep.self_s": self_time("sweep"),
        "sweep.pieces": sum(c["pieces"] for c in sweeps),
        "sweep.chunks": sum(c["chunks"] for c in sweeps),
        "kernel.piece_pairs": sum(c["pieces"] * c["pairs"] for c in sweeps),
        "predictions.s": sum(s["end"] - s["start"] for s in outermost("predictions")),
        "equivalence.s": self_time("equivalence"),
        "report.self_s": self_time("report"),
    }
