"""One benchmark step in a fresh process.

    python3 child.py '<json request>'

run.py starts this once per operation (and per oracle or kernel split)
and reads one JSON object from the last line of stdout.
``ready`` is the CLOCK_MONOTONIC reading at which set-up ended; run.py
subtracts its own reading from just before the process started.

Exit codes: 0 with a result (an operation that raised reports ``error``),
3 when psimoments cannot be imported from the checkout's src/.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import KERNEL_PAIRS, STREAM_PAIRS, WIDTH_ORDER, WIDTH_PAIRS  # noqa: E402


def _import_psimoments(src_dir):
    sys.path.insert(0, src_dir)
    try:
        import psimoments  # noqa: F401
        import psimoments.equivalence
        import psimoments.predictions
        import psimoments.report
        import psimoments.sieve
        import psimoments.sweep
    except ImportError:
        traceback.print_exc()
        sys.exit(3)
    if not os.path.abspath(psimoments.__file__).startswith(os.path.abspath(src_dir)):
        print(f"psimoments imported from {psimoments.__file__}, not {src_dir}", file=sys.stderr)
        sys.exit(3)
    return psimoments


def _desk_window(ps):
    scale = ps.report.DESK_SCALE
    return ps.sweep.WindowSpec(scale["X"], ps.sweep.Scaled(scale["delta"]))


def _stream_window(ps, inp):
    return ps.sweep.WindowSpec(inp["X"], ps.sweep.Fixed(Fraction(inp["h"])))


def _width_limit(inp):
    # covers x + h for the widest h and x(1 + delta) for every averaging delta
    return int(inp["X"] * (1.0 + 2.0 * inp["Delta"])) + max(inp["widths"])


# -- operations: each runs the workload once through the public API ---------


def op_desk(ps, inp, events):
    tables = ps.report.reproduce_tables("desk", threads=inp["threads"], events=events)
    text = ps.report.format_tables(tables)
    rows = [dict(order=r.order, kind=r.kind.value, computed=r.computed, reference=r.reference)
            for t in tables for r in t.rows]
    return dict(rows=rows, X=float(ps.report.DESK_SCALE["X"]), text_lines=len(text.splitlines()))


def op_stream(ps, inp, events):
    results, _ = ps.sweep.sweep_moments(
        _stream_window(ps, inp), STREAM_PAIRS, events=events, threads=inp["threads"]
    )
    return dict(values=[r.value for r in results])


def op_width(ps, inp, events):
    X, order = inp["X"], WIDTH_ORDER
    per_width = []
    for h in inp["widths"]:
        window = ps.sweep.WindowSpec(X, ps.sweep.Fixed(Fraction(h)))
        results, diag = ps.sweep.sweep_moments(window, WIDTH_PAIRS, events=events)
        per_width.append(dict(
            values=[r.value for r in results],
            pieces=diag.piece_count,
            length_sum=diag.length_sum,
            main=ps.predictions.fixed_main_term(X, float(h), order),
            refined=ps.predictions.fixed_refined_term(X, float(h), order),
        ))
    avg = ps.equivalence.saffari_vaughan_average(
        X, inp["Delta"], int(order), grid_points=inp["grid_points"], events=events
    )
    return dict(per_width=per_width, average=dict(lhs=avg.lhs, rhs=avg.rhs))


OPS = {"desk-scaled": op_desk, "stream-fixed": op_stream, "width-scan": op_width}


def _events_limit(ps, workload, inp):
    if workload == "desk-scaled":
        return _desk_window(ps).limit()
    if workload == "stream-fixed":
        return _stream_window(ps, inp).limit()
    return _width_limit(inp)


def run_op(ps, req):
    """Set up, then run the operation once; ``ready`` marks the first layer call."""
    from layers import Recorder, layer_metrics, traced_events

    workload, inp, trace = req["workload"], req["inputs"], req["trace"]
    recorder = Recorder(req["run_id"], trace)
    recorder.install()
    events = None
    if trace:
        events = traced_events(recorder, _events_limit(ps, workload, inp))
    elif workload == "width-scan":
        events = ps.sieve.EventSource(_width_limit(inp))
    ready = time.monotonic()
    t0 = time.perf_counter()
    try:
        out = OPS[workload](ps, inp, events)
    except Exception:
        return dict(ready=ready, error=traceback.format_exc())
    wall = time.perf_counter() - t0
    out.update(ready=ready, wall_s=wall, sweeps=recorder.sweeps)
    if trace:
        out["spans"] = recorder.spans
        out["layers"] = layer_metrics(recorder.spans, recorder.sweeps, events)
    return out


# -- oracles: independent of the sweep, computed once per invocation --------


def run_oracle(ps, req):
    workload, inp = req["workload"], req["inputs"]
    if workload == "desk-scaled":
        return dict(first_moment=ps.sweep.first_moment_exact(_desk_window(ps)))
    if workload == "stream-fixed":
        return dict(first_moment=ps.sweep.first_moment_exact(_stream_window(ps, inp)))
    # piece count per width: distinct breakpoints n - h and n strictly inside
    # (1, X), plus one; valid while X = 1e6 is swept as a single chunk
    import numpy as np

    X = inp["X"]
    limit = _width_limit(inp)
    ns, _ = ps.sieve.EventSource(limit).range(2, limit + 1)
    pieces = []
    for h in inp["widths"]:
        keys = np.concatenate([ns - h, ns])
        keys = keys[(keys > 1) & (keys < X)]
        pieces.append(int(np.unique(keys).size) + 1)
    return dict(pieces=pieces)


# -- kernel split -------------------------------------------------------------


def run_kernels(ps, req):
    """ns/piece of every (order, kind) pair the workloads run.

    Each pair is timed repeated `repeat` times in one sweep, minus a sweep
    with no pairs (merge/sort, cumsum, residuals, length sum), over a
    preloaded event table; medians of `runs` interleaved rounds.
    """
    p = req["inputs"]
    windows = {
        "scaled": ps.sweep.WindowSpec(p["X"], ps.sweep.Scaled(Fraction(p["delta"]))),
        "fixed": ps.sweep.WindowSpec(p["X"], ps.sweep.Fixed(Fraction(p["h"]))),
    }
    out = {}
    for geometry, window in windows.items():
        events = ps.sieve.EventSource(window.limit())
        events.arrays()
        pairs = KERNEL_PAIRS[geometry]
        base, per_pair, pieces = [], [[] for _ in pairs], 0
        for _ in range(p["runs"]):
            t0 = time.perf_counter()
            _, diag = ps.sweep.sweep_moments(window, [], events=events)
            base.append(time.perf_counter() - t0)
            pieces = diag.piece_count
            for j, pair in enumerate(pairs):
                t0 = time.perf_counter()
                ps.sweep.sweep_moments(window, [pair] * p["repeat"], events=events)
                per_pair[j].append(time.perf_counter() - t0)
        t_base = statistics.median(base)
        prefix = "sweep" if geometry == "scaled" else "sweep.fixed"
        out[f"{prefix}.setup_ns_per_piece"] = t_base / pieces * 1e9
        for (order, kind), times in zip(pairs, per_pair):
            name = f"kernel.{geometry}.{kind}.{order:g}.ns_per_piece"
            out[name] = (statistics.median(times) - t_base) / (p["repeat"] * pieces) * 1e9
    return out


def main():
    req = json.loads(sys.argv[1])
    ps = _import_psimoments(req["src"])
    inp = req["inputs"]
    if req.get("workload") == "desk-scaled" and "delta" in inp:
        # tiny self-test size: reproduce_tables reads DESK_SCALE at call time
        ps.report.DESK_SCALE = dict(X=inp["X"], delta=Fraction(inp["delta"]))
    mode = req["mode"]
    if mode == "op":
        out = run_op(ps, req)
    elif mode == "oracle":
        out = run_oracle(ps, req)
    else:
        out = run_kernels(ps, req)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
