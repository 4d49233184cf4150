"""Workload inputs and correctness gates.

This module is imported by the run.py process, which never imports
psimoments itself: it only builds inputs from the seed and checks the plain
numbers the operation processes send back.

Why these three workloads:

* desk-scaled is ``psimoments reproduce-tables --scale desk --threads 1``,
  the paper's own table (X=1e8, delta=1/10000, nine order/kind pairs in one
  preloaded sweep).  The power kernels do most of the work, and it is the
  plain single-thread baseline.
* stream-fixed is the full-scale code path at a size that runs in seconds:
  fixed h=10000 at X=3e8, whose event limit lies above PRELOAD_LIMIT, so
  every chunk re-sieves its own span, on a two-thread pool.  Its kernels are
  cheap numpy paths, so chunk setup and the sieve dominate; a kernel change
  should not move it.
* width-scan makes 112 short sweeps over one shared event source (64 seeded
  widths, then a 48-point Saffari-Vaughan width average), so per-call
  overhead shows.  It is the only workload that runs the positive-part and
  negative-part kernels, the fixed-window predictions and the equivalence
  layer.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("desk-scaled", "stream-fixed", "width-scan")

# (order, kind) pairs each workload integrates; the kernel split in the
# traced run times every one of them.
DESK_PAIRS = [(o, "absolute") for o in (1.0, 2.1, 3.2, 4.3, 5.4, 6.5)] + [
    (o, "signed") for o in (1.0, 3.0, 5.0)
]
STREAM_PAIRS = [(2.0, "absolute"), (1.0, "signed")]
WIDTH_ORDER = 3.0
WIDTH_PAIRS = [
    (WIDTH_ORDER, "absolute"),
    (WIDTH_ORDER, "signed"),
    (WIDTH_ORDER, "positive_part"),
    (WIDTH_ORDER, "negative_part"),
    (2.1, "absolute"),
]
AVERAGE_PAIRS = [(WIDTH_ORDER, "positive_part")]
KERNEL_PAIRS = {
    "scaled": DESK_PAIRS + AVERAGE_PAIRS,
    "fixed": STREAM_PAIRS + WIDTH_PAIRS,
}

# Sizes.  "full" is the benchmark; "tiny" runs the same code on small X so
# the self-test finishes in seconds.  Piece counts are the ones the sweep
# produced at the seed commit; the gate requires them exactly.
SIZES = {
    "full": {
        "desk-scaled": {"threads": 1, "pieces": 11526275},
        "stream-fixed": {
            "X": 3e8, "h": 10000, "threads": 2, "pieces": 30952347,
        },
        "width-scan": {
            "X": 1e6, "h_range": (50, 1000), "widths": 64,
            "Delta": 1e-2, "grid_points": 48,
        },
        "kernels": {"X": 2e7, "delta": "1/10000", "h": 10000, "repeat": 8, "runs": 3},
    },
    "tiny": {
        "desk-scaled": {"X": 2e4, "delta": "1/100", "threads": 1, "pieces": 4679},
        "stream-fixed": {
            "X": 5e4, "h": 100, "threads": 2, "pieces": 9444,
        },
        "width-scan": {
            "X": 2e4, "h_range": (10, 50), "widths": 8,
            "Delta": 1e-2, "grid_points": 8,
        },
        "kernels": {"X": 2e4, "delta": "1/100", "h": 20, "repeat": 8, "runs": 3},
    },
}

FIRST_MOMENT_RTOL = 1e-9
LENGTH_RTOL = 1e-9
DECOMPOSITION_RTOL = 1e-9
REFERENCE_RTOL = 2e-2


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Operation inputs; the same (workload, seed, size) gives the same dict."""
    params = dict(SIZES[size][workload])
    params.pop("pieces", None)
    if workload == "width-scan":
        rng = random.Random(seed)
        lo, hi = params.pop("h_range")
        params["widths"] = [rng.randint(lo, hi) for _ in range(params["widths"])]
    return params


class Gates:
    """Gate outcomes of the operations of one run."""

    def __init__(self):
        self.failures = []
        self.worst = {}  # label -> (largest value seen, limit)

    def check(self, label, value, limit):
        """Require value <= limit (NaN fails)."""
        worst = self.worst.get(label, (value, limit))[0]
        self.worst[label] = (max(worst, value), limit)
        if not value <= limit:
            self.failures.append(f"{label}: {value!r} > {limit!r}")

    def equal(self, label, value, expected):
        if value != expected:
            self.failures.append(f"{label}: {value} != {expected}")


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a - b)


def check_operation(workload, inputs, oracle, out, expected_pieces, gates,
                    gate_references=True):
    """Apply the workload's correctness gates to one operation's output.

    ``expected_pieces`` is the total piece count, or for width-scan the list
    of per-width counts.  ``max_rel_err`` is taken over the gates with an
    independent oracle (first moment, length sum, decomposition).  The
    stored desk references are gated separately, and only at full size
    (``gate_references``).  Returns the ungated lines to print.
    """
    notes = []
    calls = out["sweeps"]
    if workload == "desk-scaled":
        rows = {(r["order"], r["kind"]): r for r in out["rows"]}
        X = out["X"]
        gates.check("max_rel_err", _rel(rows[(1.0, "signed")]["computed"],
                                        oracle["first_moment"]), FIRST_MOMENT_RTOL)
        for order, kind in DESK_PAIRS:
            r = rows[(order, kind)]
            if kind == "absolute" and gate_references:
                gates.check("reference_abs_dev", _rel(r["computed"], r["reference"]),
                            REFERENCE_RTOL)
            if kind == "signed":
                notes.append(
                    f"ungated: desk signed n={order:g} deviates from REFERENCE_ODD "
                    f"by {_rel(r['computed'], r['reference']):.3e}"
                )
        gates.equal("pieces", sum(c["pieces"] for c in calls), expected_pieces)
        gates.check("max_rel_err", abs(calls[0]["length_sum"] - (X - 1.0)) / X, LENGTH_RTOL)
    elif workload == "stream-fixed":
        X = inputs["X"]
        signed = out["values"][STREAM_PAIRS.index((1.0, "signed"))]
        gates.check("max_rel_err", _rel(signed, oracle["first_moment"]), FIRST_MOMENT_RTOL)
        gates.equal("pieces", calls[0]["pieces"], expected_pieces)
        gates.check("max_rel_err", abs(calls[0]["length_sum"] - (X - 1.0)) / X, LENGTH_RTOL)
    else:
        X = inputs["X"]
        for h, row, pieces in zip(inputs["widths"], out["per_width"], expected_pieces):
            a, s, p, n, _ = row["values"]
            gates.check("max_rel_err", abs(a + s - 2.0 * p) / a, DECOMPOSITION_RTOL)
            gates.check("max_rel_err", abs(s - (p + n)) / a, DECOMPOSITION_RTOL)
            gates.check("max_rel_err", abs(row["length_sum"] - (X - 1.0)) / X, LENGTH_RTOL)
            gates.equal(f"pieces h={h}", row["pieces"], pieces)
            for label in ("main", "refined"):
                if not (math.isfinite(row[label]) and row[label] > 0):
                    gates.failures.append(f"prediction {label} h={h}: {row[label]!r}")
        avg = out["average"]
        if not all(math.isfinite(avg[k]) and avg[k] > 0 for k in ("lhs", "rhs")):
            gates.failures.append(f"saffari-vaughan average not positive: {avg}")
        notes.append(f"ungated: saffari-vaughan ratio {avg['lhs'] / avg['rhs']:.6f}")
    return notes
