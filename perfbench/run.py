"""Benchmark entry point for psimoments.

    python3 perfbench/run.py --workload desk-scaled --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the package is imported from ./src.
Workloads are described in workloads.py.

Closed loop, one client: one operation at a time, each in a fresh process
(child.py), until --seconds have passed (the last operation may run past
the mark).  Before the loop an oracle process computes the independent
reference values.  Every operation's output is checked; an operation that
raises or misses a gate counts as failed.  setup_s is the median over the
operations' processes, from just before the start to the first layer call.

--trace 0 prints the end-to-end metrics: medians over the operations, with
quartiles and sample counts in the lines above the final JSON line.
--trace 1 does fixed work instead of looping: one untraced and one traced
operation (spans written to perfbench/out/), the kernel split and the
thread-pool speed-up, and prints the per-layer metrics.  trace.overhead_s
is the traced minus the untraced operation's wall_s, so noise can make it
negative.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is nonzero, with no JSON line, when the package is
missing or a measurement step itself breaks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    KERNEL_PAIRS,
    SIZES,
    WORKLOADS,
    Gates,
    check_operation,
    make_inputs,
)

CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pair_pieces_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sieve.s": "s",
    "sieve.calls": "count",
    "sieve.events": "count",
    "sieve.events_per_s": "1/s",
    "sieve.useful_ratio": "ratio",
    "sweep.self_s": "s",
    "sweep.pieces": "count",
    "sweep.chunks": "count",
    "sweep.setup_ns_per_piece": "ns",
    "sweep.fixed.setup_ns_per_piece": "ns",
    "kernel.piece_pairs": "count",
    **{
        f"kernel.{geometry}.{kind}.{order:g}.ns_per_piece": "ns"
        for geometry, pairs in KERNEL_PAIRS.items()
        for order, kind in pairs
    },
    "pool.speedup": "ratio",
    "pool.efficiency": "ratio",
    "predictions.s": "s",
    "equivalence.s": "s",
    "report.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A measurement step broke; the run prints no result."""


def run_child(request: dict) -> tuple[float, dict]:
    """Run child.py on ``request`` in a fresh process; (spawn time, result)."""
    request = dict(request, src=SRC)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{request['mode']} step exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return spawned, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """Operations of one invocation and their gate results."""

    def __init__(self, args):
        self.args = args
        self.inputs = make_inputs(args.workload, args.seed, args.size)
        self.attempted = 0
        self.failed = 0
        self.gates = Gates()
        self.notes = []
        self.oracle = run_child(dict(mode="oracle", workload=args.workload,
                                     inputs=self.inputs))[1]

    def expected_pieces(self):
        offset = self.args.piece_offset
        if self.args.workload == "width-scan":
            return [p + offset for p in self.oracle["pieces"]]
        return SIZES[self.args.size][self.args.workload]["pieces"] + offset

    def operation(self, run_id, trace=False):
        """One operation in a fresh process, gated; returns its output, or
        None if it raised.  An output that misses a gate is still returned
        (its timings stand) but counts as failed."""
        spawned, out = run_child(dict(
            mode="op", workload=self.args.workload, inputs=self.inputs,
            trace=trace, run_id=run_id,
        ))
        out["setup_s"] = out["ready"] - spawned
        self.attempted += 1
        failures_before = len(self.gates.failures)
        if "error" in out:
            self.gates.failures.append(f"{run_id} raised:\n{out['error']}")
            self.failed += 1
            return None
        self.notes = check_operation(
            self.args.workload, self.inputs, self.oracle, out, self.expected_pieces(),
            self.gates, gate_references=self.args.size == "full",
        )
        if len(self.gates.failures) > failures_before:
            self.failed += 1
        return out

    def report(self, metrics, units, samples=None):
        """Human-readable lines, then the JSON result line."""
        for name, value in metrics.items():
            spread = ""
            if samples and name in samples:
                q1, _, q3 = quartiles(samples[name])
                spread = f"  [q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}]"
            print(f"{name}: {value:.6g} {units[name]}{spread}")
        for label, (value, limit) in sorted(self.gates.worst.items()):
            print(f"{label}: {value:.3e} ratio  (gate {limit:g})")
        print(f"failed_frac: {self.failed / max(self.attempted, 1):.6g} ratio"
              f"  ({self.failed} of {self.attempted} operations)")
        for line in self.notes:
            print(line)
        for line in self.gates.failures:
            print(f"FAILED {line}", file=sys.stderr)
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))


def end_to_end(run: Run):
    args = run.args
    ops = []
    deadline = time.monotonic() + args.seconds
    for i in itertools.count():
        out = run.operation(f"{args.workload}-seed{args.seed}-op{i}")
        if out is not None:
            ops.append(out)
        if time.monotonic() >= deadline:
            break
    if not ops:
        run.report({}, END_TO_END_UNITS)
        return
    calls_ms = [c["seconds"] * 1e3 for o in ops for c in o["sweeps"]]
    samples = {
        "wall_s": [o["wall_s"] for o in ops],
        "setup_s": [o["setup_s"] for o in ops],
        "pair_pieces_per_s": [
            sum(c["pieces"] * c["pairs"] for c in o["sweeps"]) / o["wall_s"] for o in ops
        ],
        "call_p50_ms": calls_ms,
        "peak_rss_mb": [o["rss_mb"] for o in ops],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["call_p90_ms"] = (
        statistics.quantiles(calls_ms, n=10, method="inclusive")[-1]
        if len(calls_ms) > 1 else calls_ms[0]
    )
    print(f"sweep calls timed: {len(calls_ms)}")
    run.report(metrics, END_TO_END_UNITS, samples)


def per_layer(run: Run):
    args = run.args
    base = f"{args.workload}-seed{args.seed}"
    plain = run.operation(f"{base}-untraced")
    traced = run.operation(f"{base}-traced", trace=True)
    if plain is None or traced is None:
        raise BenchError("an operation of the traced run raised")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics.update(run_child(dict(mode="kernels", inputs=SIZES[args.size]["kernels"]))[1])
    metrics.pop("rss_mb")
    pool = {}
    for threads in (1, 2):
        inputs = dict(make_inputs("stream-fixed", args.seed, args.size), threads=threads)
        _, out = run_child(dict(mode="op", workload="stream-fixed", inputs=inputs,
                                trace=False, run_id=f"{base}-pool{threads}"))
        if "error" in out:
            raise BenchError(f"pool measurement raised:\n{out['error']}")
        pool[threads] = out["sweeps"][0]["seconds"]
    metrics["pool.speedup"] = pool[1] / pool[2]
    metrics["pool.efficiency"] = metrics["pool.speedup"] / 2
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{base}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "clock": "perf_counter s",
                   "spans": traced["spans"]}, f)
    print(f"spans: {len(traced['spans'])} written to {os.path.relpath(path, ROOT)}")
    run.report({k: metrics[k] for k in PER_LAYER_UNITS}, PER_LAYER_UNITS)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test only: small inputs, and a deliberately wrong expected piece count
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--piece-offset", type=int, default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psimoments", "__init__.py")):
        print(f"no psimoments package under {SRC}", file=sys.stderr)
        return 2
    try:
        run = Run(args)
        (per_layer if args.trace else end_to_end)(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
