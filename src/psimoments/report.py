"""Run orchestration and result serialization.

A RunConfig names a window, the orders and kinds to sweep, and optionally
prediction formulas to put alongside.  Results come back as ReportRow
records and can be emitted as CSV (17 significant digits) or JSON (float
repr), so a parse of the output reproduces every float bit for bit.

reproduce_tables recomputes the bundled reference values: absolute scaled
moments for lambda in {1.0, 2.1, 3.2, 4.3, 5.4, 6.5} and signed odd
moments with their normalizers, at the desk scale (X = 1e8, delta = 1e-4)
and the full scale (X = 1e10, delta = 1e-5).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .errors import ConfigError
from .predictions import (
    even_main_b_fixed,
    even_main_b_scaled,
    fixed_main_term,
    fixed_refined_term,
    odd_normalizer,
    scaled_main_term,
    scaled_refined_term,
)
from .sieve import EventSource
from .sweep import Fixed, Kind, Scaled, WindowSpec, sweep_moments

CSV_HEADER = "lambda,kind,actual,formula,predicted,ratio,rel_err,piece_count,wall_seconds"

FORMULA_NAMES = (
    "fixed-main",
    "scaled-main",
    "fixed-refined",
    "scaled-refined",
    "odd-normalizer",
    "even-b-fixed",
    "even-b-scaled",
)


def parse_rational(text) -> Fraction:
    """Exact rational from 'p/q', a decimal literal, or a number.

    Decimal strings convert exactly ('1e-4' is 1/10000, not the float64
    nearest to it); bare floats convert via their exact binary value.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational from {text!r}: {exc}") from None


@dataclass
class RunConfig:
    X: float
    h: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    orders: Sequence[float] = ()
    kinds: Sequence[Kind] = (Kind.ABSOLUTE,)
    formulas: Sequence[str] = ()
    threads: int = 1

    def __post_init__(self):
        if (self.h is None) == (self.delta is None):
            raise ConfigError("exactly one of h and delta must be given")
        if not self.orders:
            raise ConfigError("at least one order is required")
        self.kinds = tuple(Kind(k) for k in self.kinds)
        for f in self.formulas:
            if f not in FORMULA_NAMES:
                raise ConfigError(
                    f"unknown formula {f!r}; valid: {', '.join(FORMULA_NAMES)}"
                )

    @classmethod
    def from_dict(cls, data: Dict) -> "RunConfig":
        known = {"x", "h", "delta", "orders", "kinds", "formulas", "threads"}
        unknown = set(k.lower() for k in data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = {k.lower(): v for k, v in data.items()}
        if "x" not in data:
            raise ConfigError("config needs an 'x' entry")
        try:
            x = float(data["x"])
        except (TypeError, ValueError):
            raise ConfigError(f"bad X value {data['x']!r}") from None
        kwargs = dict(
            X=x,
            orders=[float(o) for o in data.get("orders", [])],
            kinds=[Kind(k) for k in data.get("kinds", ["absolute"])],
            formulas=list(data.get("formulas", [])),
            threads=int(data.get("threads", 1)),
        )
        if "h" in data:
            kwargs["h"] = parse_rational(data["h"])
        if "delta" in data:
            kwargs["delta"] = parse_rational(data["delta"])
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def window(self) -> WindowSpec:
        geometry = Fixed(self.h) if self.h is not None else Scaled(self.delta)
        return WindowSpec(self.X, geometry)


@dataclass(frozen=True)
class ReportRow:
    order: float
    kind: Kind
    actual: Optional[float]
    formula: Optional[str]
    predicted: Optional[float]
    ratio: Optional[float]
    rel_err: Optional[float]
    piece_count: int
    wall_seconds: float


def _formula_value(name: str, window: WindowSpec, order: float) -> float:
    X = float(window.X)
    fixed = isinstance(window.geometry, Fixed)
    width = float(window.geometry.h) if fixed else float(window.geometry.delta)
    table: Dict[str, Callable[[], float]] = {
        "fixed-main": lambda: fixed_main_term(X, width, order),
        "scaled-main": lambda: scaled_main_term(X, width, order),
        "fixed-refined": lambda: fixed_refined_term(X, width, order),
        "scaled-refined": lambda: scaled_refined_term(X, width, order),
        "odd-normalizer": lambda: odd_normalizer(X, width, int(order)),
        "even-b-fixed": lambda: even_main_b_fixed(X, width, int(order)),
        "even-b-scaled": lambda: even_main_b_scaled(X, width, int(order)),
    }
    wants_fixed = name in ("fixed-main", "fixed-refined", "even-b-fixed")
    wants_scaled = name in (
        "scaled-main",
        "scaled-refined",
        "odd-normalizer",
        "even-b-scaled",
    )
    if wants_fixed and not fixed:
        raise ConfigError(f"formula {name} needs a fixed window")
    if wants_scaled and fixed:
        raise ConfigError(f"formula {name} needs a scaled window")
    return table[name]()


def run(config: RunConfig) -> List[ReportRow]:
    """Sweep every (order, kind) pair, pair each with requested formulas."""
    window = config.window()
    pairs = [(o, k) for k in config.kinds for o in config.orders]
    t0 = time.monotonic()
    results, diag = sweep_moments(window, pairs, threads=config.threads)
    wall = time.monotonic() - t0
    rows: List[ReportRow] = []
    for res in results:
        if config.formulas:
            for name in config.formulas:
                predicted = _formula_value(name, window, res.order)
                ratio = res.value / predicted if predicted else None
                rel_err = (
                    abs(res.value - predicted) / abs(predicted) if predicted else None
                )
                rows.append(
                    ReportRow(
                        order=res.order,
                        kind=res.kind,
                        actual=res.value,
                        formula=name,
                        predicted=predicted,
                        ratio=ratio,
                        rel_err=rel_err,
                        piece_count=res.piece_count,
                        wall_seconds=wall,
                    )
                )
        else:
            rows.append(
                ReportRow(
                    order=res.order,
                    kind=res.kind,
                    actual=res.value,
                    formula=None,
                    predicted=None,
                    ratio=None,
                    rel_err=None,
                    piece_count=res.piece_count,
                    wall_seconds=wall,
                )
            )
    return rows


def predict_rows(config: RunConfig) -> List[ReportRow]:
    """Formula values only; no sieve, no sweep."""
    window = config.window()
    if not config.formulas:
        raise ConfigError("predict needs at least one formula")
    rows = []
    for kind in config.kinds:
        for order in config.orders:
            for name in config.formulas:
                t0 = time.monotonic()
                predicted = _formula_value(name, window, float(order))
                rows.append(
                    ReportRow(
                        order=float(order),
                        kind=kind,
                        actual=None,
                        formula=name,
                        predicted=predicted,
                        ratio=None,
                        rel_err=None,
                        piece_count=0,
                        wall_seconds=time.monotonic() - t0,
                    )
                )
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def emit_csv(rows: Sequence[ReportRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.order),
                    r.kind.value,
                    _fmt(r.actual),
                    r.formula or "",
                    _fmt(r.predicted),
                    _fmt(r.ratio),
                    _fmt(r.rel_err),
                    str(r.piece_count),
                    _fmt(r.wall_seconds),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_json(rows: Sequence[ReportRow]) -> str:
    """JSON array of row objects; float repr round-trips every value exactly."""
    objs = [
        {
            "lambda": r.order,
            "kind": r.kind.value,
            "actual": r.actual,
            "formula": r.formula,
            "predicted": r.predicted,
            "ratio": r.ratio,
            "rel_err": r.rel_err,
            "piece_count": r.piece_count,
            "wall_seconds": r.wall_seconds,
        }
        for r in rows
    ]
    return json.dumps(objs, indent=2) + "\n"


def emit(rows: Sequence[ReportRow], fmt: str = "csv", path: Optional[str] = None) -> str:
    if fmt == "csv":
        text = emit_csv(rows)
    elif fmt == "json":
        text = emit_json(rows)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def parse_rows(text: str, fmt: str = "csv") -> List[ReportRow]:
    """Inverse of emit, used to verify bit-exact roundtrips."""
    rows = []
    if fmt == "csv":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if lines[0] != CSV_HEADER:
            raise ConfigError("unexpected CSV header")
        for ln in lines[1:]:
            parts = ln.split(",")
            rows.append(
                ReportRow(
                    order=float(parts[0]),
                    kind=Kind(parts[1]),
                    actual=float(parts[2]) if parts[2] else None,
                    formula=parts[3] or None,
                    predicted=float(parts[4]) if parts[4] else None,
                    ratio=float(parts[5]) if parts[5] else None,
                    rel_err=float(parts[6]) if parts[6] else None,
                    piece_count=int(parts[7]),
                    wall_seconds=float(parts[8]),
                )
            )
        return rows
    for obj in json.loads(text):
        rows.append(
            ReportRow(
                order=obj["lambda"],
                kind=Kind(obj["kind"]),
                actual=obj["actual"],
                formula=obj["formula"],
                predicted=obj["predicted"],
                ratio=obj["ratio"],
                rel_err=obj["rel_err"],
                piece_count=obj["piece_count"],
                wall_seconds=obj["wall_seconds"],
            )
        )
    return rows


# Reference values for the two published scales, used for regression
# comparison by reproduce_tables and the acceptance suite.
DESK_SCALE = dict(X=1e8, delta=Fraction(1, 10000))
FULL_SCALE = dict(X=1e10, delta=Fraction(1, 100000))

REFERENCE_ABSOLUTE = {
    "desk": {
        1.0: (1.5009e10, 1.4851e10),
        2.1: (7.1441e12, 6.9344e12),
        3.2: (4.8737e15, 4.6213e15),
        4.3: (4.1913e18, 3.8864e18),
        5.4: (4.2519e21, 3.8768e21),
        6.5: (4.8884e24, 4.4213e24),
    },
    "full": {
        1.0: (5.3464e12, 5.3452e12),
        2.1: (1.0218e16, 1.0210e16),
        3.2: (2.7871e19, 2.7835e19),
        4.3: (9.5892e22, 9.5764e22),
        5.4: (3.9120e26, 3.9079e26),
        6.5: (1.8248e30, 1.8232e30),
    },
}

REFERENCE_ODD = {
    "desk": {
        1: (-4.9574e7, 1.6143e10),
        3: (-2.0632e13, 1.7842e15),
        5: (-3.3174e18, 4.6952e20),
    },
    "full": {
        1: (7.2371e8, 5.7074e12),
        3: (-1.3468e16, 7.8851e18),
        5: (-2.5587e23, 2.5937e25),
    },
}


@dataclass(frozen=True)
class TableRow:
    order: float
    kind: Kind
    computed: Optional[float]
    reference: Optional[float]
    predicted: float
    reference_predicted: float

    @property
    def deviation(self) -> Optional[float]:
        if self.computed is None or self.reference is None:
            return None
        return abs(self.computed - self.reference) / abs(self.reference)

    @property
    def predicted_deviation(self) -> float:
        return abs(self.predicted - self.reference_predicted) / abs(
            self.reference_predicted
        )


@dataclass
class Table:
    name: str
    X: float
    delta: Fraction
    rows: List[TableRow] = field(default_factory=list)


def reproduce_tables(
    scale: str = "desk",
    *,
    include_actual: bool = True,
    threads: int = 1,
    events: Optional[EventSource] = None,
) -> List[Table]:
    """Recompute the bundled reference tables at the given scale.

    scale 'desk' covers X = 1e8; 'full' adds X = 1e10 (long run).  With
    include_actual=False only the formula columns are evaluated, which
    needs no sieve and finishes in well under a second.
    """
    if scale not in ("desk", "full"):
        raise ConfigError(f"scale must be 'desk' or 'full', got {scale!r}")
    scales = ["desk"] if scale == "desk" else ["desk", "full"]
    tables = []
    for sc in scales:
        params = DESK_SCALE if sc == "desk" else FULL_SCALE
        X = params["X"]
        delta = params["delta"]
        window = WindowSpec(X, Scaled(delta))
        abs_orders = sorted(REFERENCE_ABSOLUTE[sc])
        odd_orders = sorted(REFERENCE_ODD[sc])
        actep = {}
        if include_actual:
            src = events if events is not None and events.limit >= window.limit() else None
            if src is None:
                src = EventSource(window.limit())
            pairs = [(o, Kind.ABSOLUTE) for o in abs_orders] + [
                (float(o), Kind.SIGNED) for o in odd_orders
            ]
            results, _ = sweep_moments(window, pairs, events=src, threads=threads)
            for res in results:
                actep[(res.order, res.kind)] = res.value
        t_abs = Table(f"absolute-{sc}", X, delta)
        for o in abs_orders:
            ref_act, ref_pred = REFERENCE_ABSOLUTE[sc][o]
            t_abs.rows.append(
                TableRow(
                    order=o,
                    kind=Kind.ABSOLUTE,
                    computed=actep.get((o, Kind.ABSOLUTE)),
                    reference=ref_act if include_actual else None,
                    predicted=scaled_refined_term(X, float(delta), o),
                    reference_predicted=ref_pred,
                )
            )
        t_odd = Table(f"signed-odd-{sc}", X, delta)
        for o in odd_orders:
            ref_act, ref_norm = REFERENCE_ODD[sc][o]
            t_odd.rows.append(
                TableRow(
                    order=float(o),
                    kind=Kind.SIGNED,
                    computed=actep.get((float(o), Kind.SIGNED)),
                    reference=ref_act if include_actual else None,
                    predicted=odd_normalizer(X, float(delta), o),
                    reference_predicted=ref_norm,
                )
            )
        tables.extend([t_abs, t_odd])
    return tables


def format_tables(tables: Sequence[Table]) -> str:
    out = []
    for t in tables:
        out.append(f"{t.name}  (X={t.X:g}, delta={t.delta})")
        out.append(
            f"  {'order':>6} {'kind':>12} {'computed':>13} {'reference':>13} "
            f"{'dev':>9} {'predicted':>13} {'ref pred':>13} {'dev':>9}"
        )
        for r in t.rows:
            comp = f"{r.computed:.5e}" if r.computed is not None else "-"
            ref = f"{r.reference:.5e}" if r.reference is not None else "-"
            dev = f"{r.deviation:.2e}" if r.deviation is not None else "-"
            out.append(
                f"  {r.order:>6g} {r.kind.value:>12} {comp:>13} {ref:>13} "
                f"{dev:>9} {r.predicted:>13.5e} {r.reference_predicted:>13.5e} "
                f"{r.predicted_deviation:>9.2e}"
            )
    return "\n".join(out) + "\n"
