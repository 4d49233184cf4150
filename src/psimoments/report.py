"""Run orchestration and result serialization.

A RunConfig names a window, the orders and kinds to sweep, and optionally
prediction formulas to put alongside.  Results come back as ReportRow
records and can be emitted as CSV (17 significant digits) or JSON (float
repr), so reading a cell back with float() reproduces it bit for bit.

reproduce_tables recomputes the bundled reference values: absolute scaled
moments for lambda in {1.0, 2.1, 3.2, 4.3, 5.4, 6.5} and signed odd
moments with their normalizers, at the desk scale (X = 1e8, delta = 1e-4)
and the full scale (X = 1e10, delta = 1e-5).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import ConfigError, RangeLimitError
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
from .sweep import MAX_THREADS, Fixed, Kind, Scaled, WindowSpec, _validate_pairs, sweep_moments

# name -> (window geometry it needs, value at (X, width, order))
FORMULAS = {
    "fixed-main": (Fixed, fixed_main_term),
    "scaled-main": (Scaled, scaled_main_term),
    "fixed-refined": (Fixed, fixed_refined_term),
    "scaled-refined": (Scaled, scaled_refined_term),
    "odd-normalizer": (Scaled, odd_normalizer),
    "even-b-fixed": (Fixed, even_main_b_fixed),
    "even-b-scaled": (Scaled, even_main_b_scaled),
}
FORMULA_NAMES = tuple(FORMULAS)

_CONFIG_KEYS = {"x", "h", "delta", "orders", "kinds", "formulas", "threads"}
# the longest rational string and the largest decimal exponent parse_rational
# reads: Fraction builds 10^exponent in full, which takes seconds past 10^6,
# and no window keys an integer past 2^63 anyway
_RATIONAL_CHARS = 100
_RATIONAL_EXPONENT = 400


def parse_rational(text) -> Fraction:
    """Exact rational from 'p/q', a decimal literal, or a number.

    Decimal strings convert exactly ('1e-4' is 1/10000, not the float64
    nearest to it); bare floats convert via their exact binary value.  A
    string longer than _RATIONAL_CHARS, or with a decimal exponent past
    _RATIONAL_EXPONENT, is refused before any digit is built.
    """
    if not isinstance(text, (Fraction, int, float)):
        text = str(text).strip()
        if len(text) > _RATIONAL_CHARS:
            raise ConfigError(f"rational {text[:20]!r}... has over {_RATIONAL_CHARS} characters")
        try:
            exponent = abs(int(text.lower().partition("e")[2]))
        except ValueError:  # no exponent, or one that Fraction refuses below
            exponent = 0
        if exponent > _RATIONAL_EXPONENT:
            raise ConfigError(f"rational {text!r} has a decimal exponent past {_RATIONAL_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse rational from {text!r}: {exc}") from None


def parse_threads(value) -> int:
    """A worker count: an integer from 0 to MAX_THREADS or its digits; 0
    means one per usable core."""
    if isinstance(value, str) and value.strip().isdecimal():
        value = int(value)
    if type(value) is not int or not 0 <= value <= MAX_THREADS:  # a bool is an int too
        raise ConfigError(f"threads must be an integer from 0 to {MAX_THREADS}, got {value!r}")
    return value


@dataclass
class RunConfig:
    X: float
    h: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    orders: Sequence[float] = ()
    kinds: Sequence[Kind] = (Kind.ABSOLUTE,)
    formulas: Sequence[str] = ()
    threads: int = 0  # 0: one per usable core, as for --threads

    def __post_init__(self):
        if (self.h is None) == (self.delta is None):
            raise ConfigError("exactly one of h and delta must be given")
        if not self.orders:
            raise ConfigError("at least one order is required")
        self.kinds = tuple(Kind(k) for k in self.kinds)
        _validate_pairs([(o, k) for k in self.kinds for o in self.orders])
        for f in self.formulas:
            if f not in FORMULAS:
                raise ConfigError(
                    f"unknown formula {f!r}; valid: {', '.join(FORMULA_NAMES)}"
                )
        # a repeat would sweep or evaluate the same thing twice, one row each
        for what, values in (
            ("order", [float(o) for o in self.orders]),
            ("kind", [k.value for k in self.kinds]),
            ("formula", list(self.formulas)),
        ):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]!r} is given more than once")

    @classmethod
    def from_dict(cls, data: Dict) -> "RunConfig":
        """RunConfig from a config-file object.

        The CLI turns its flags into the same object, so every outside
        value is converted here: anything malformed raises ConfigError.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"config must be an object, got {type(data).__name__}")
        names = {}
        for key in data:
            first = names.setdefault(key.lower(), key)
            if first != key:
                raise ConfigError(f"config keys {first!r} and {key!r} differ only in case")
        data = {k.lower(): v for k, v in data.items()}
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "x" not in data:
            raise ConfigError("X is required: an 'x' config entry or --x")
        for key in ("orders", "kinds", "formulas"):
            if not isinstance(data.get(key, []), list):
                raise ConfigError(f"config {key!r} must be a list, got {data[key]!r}")
        numbers = [(key, data.get(key)) for key in ("x", "h", "delta")]
        for key, value in numbers + [("orders", o) for o in data.get("orders", [])]:
            if isinstance(value, bool):  # float(True) is 1.0
                raise ConfigError(f"config {key!r} takes numbers, not {value!r}")
        try:
            return cls(
                X=float(data["x"]),
                h=parse_rational(data["h"]) if "h" in data else None,
                delta=parse_rational(data["delta"]) if "delta" in data else None,
                orders=[float(o) for o in data.get("orders", [])],
                kinds=data.get("kinds", ["absolute"]),
                formulas=data.get("formulas", []),
                threads=parse_threads(data.get("threads", 0)),
            )
        except OverflowError:  # float() of an integer past float64
            raise ConfigError("config 'x' and 'orders' take numbers within float64") from None
        except (TypeError, ValueError) as exc:
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

    def __post_init__(self):
        object.__setattr__(self, "kind", Kind(self.kind))


# Output columns: the ReportRow fields in order, ``order`` named lambda.
COLUMNS = tuple("lambda" if f.name == "order" else f.name for f in fields(ReportRow))
CSV_HEADER = ",".join(COLUMNS)


def _formula_value(name: str, window: WindowSpec, order: float) -> float:
    """The formula's value; one past float64 raises RangeLimitError, as a
    swept moment does."""
    geometry, formula = FORMULAS[name]
    if not isinstance(window.geometry, geometry):
        raise ConfigError(f"formula {name} needs a {geometry.__name__.lower()} window")
    try:
        value = formula(float(window.X), float(window.geometry.width), float(order))
    except OverflowError:  # a float power or an int factor past float64
        value = math.inf
    if not math.isfinite(value):
        raise RangeLimitError(f"formula {name} at order {order:g} is not finite in float64")
    return value


def _predictions(window: WindowSpec, formulas: Sequence[str], order: float):
    """Yield (formula, value, seconds taken) per formula; one bare triple if none."""
    for name in formulas or (None,):
        t0 = time.monotonic()
        predicted = None if name is None else _formula_value(name, window, order)
        yield name, predicted, time.monotonic() - t0


def _rows(
    predictions: Iterable[tuple],
    order: float,
    kind: Kind,
    actual: Optional[float] = None,
    piece_count: int = 0,
    wall: Optional[float] = None,
) -> List[ReportRow]:
    """One row per prediction; with ``wall`` None each times its formula."""
    rows = []
    for name, predicted, seconds in predictions:
        compare = actual is not None and bool(predicted)
        rows.append(
            ReportRow(
                order=order,
                kind=kind,
                actual=actual,
                formula=name,
                predicted=predicted,
                ratio=actual / predicted if compare else None,
                rel_err=abs(actual - predicted) / abs(predicted) if compare else None,
                piece_count=piece_count,
                wall_seconds=seconds if wall is None else wall,
            )
        )
    return rows


def run(config: RunConfig) -> List[ReportRow]:
    """Sweep every (order, kind) pair, pair each with requested formulas."""
    window = config.window()
    # first, so a formula that does not fit the window fails before any sieve
    predictions = {o: list(_predictions(window, config.formulas, o)) for o in config.orders}
    pairs = [(o, k) for k in config.kinds for o in config.orders]
    results, diag = sweep_moments(window, pairs, threads=config.threads)
    return [
        row
        for res in results
        for row in _rows(
            predictions[res.order], res.order, res.kind, res.value,
            diag.piece_count, diag.wall_seconds,
        )
    ]


def predict_rows(config: RunConfig) -> List[ReportRow]:
    """Formula values only; no sieve, no sweep."""
    window = config.window()
    if not config.formulas:
        raise ConfigError("predict needs at least one formula")
    return [
        row
        for kind in config.kinds
        for order in map(float, config.orders)
        for row in _rows(_predictions(window, config.formulas, order), order, kind)
    ]


def _cells(row: ReportRow) -> list:
    """Row values in COLUMNS order, the kind as its string value."""
    return [v.value if isinstance(v, Kind) else v for v in astuple(row)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return format(x, ".17g")


def emit_csv(rows: Sequence[ReportRow]) -> str:
    lines = [CSV_HEADER] + [",".join(_fmt(v) for v in _cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def emit_json(rows: Sequence[ReportRow]) -> str:
    """JSON array of row objects; float repr round-trips every value exactly."""
    return json.dumps([dict(zip(COLUMNS, _cells(r))) for r in rows], indent=2) + "\n"


def emit(rows: Sequence[ReportRow], fmt: str = "csv") -> str:
    if fmt == "csv":
        return emit_csv(rows)
    if fmt == "json":
        return emit_json(rows)
    raise ConfigError(f"unknown output format {fmt!r}")


# Reference values for the two published scales, used for regression
# comparison by reproduce_tables and the acceptance suite: (actual, predicted)
# per order.  The actuals are psi moments as the sweep computes them, at full
# float64 precision: desk from one reproduce_tables("desk"), full from one
# sweep of the nine pairs on 2 workers.  Their last bits rest on numpy's log
# and exp, which differ between CPUs (see the sweep module).  The full signed
# n = 1 value is 2 ulps from first_moment_exact, which shares only the events
# with the sweep.  The predicted values are the refined main term (absolute)
# and the odd normalizer (signed), to 5 significant digits.
DESK_SCALE = dict(X=1e8, delta=Fraction(1, 10000))
FULL_SCALE = dict(X=1e10, delta=Fraction(1, 100000))

REFERENCE_ABSOLUTE = {
    "desk": {
        1.0: (15007839279.45383, 1.4851e10),
        2.1: (7143251212074.976, 6.9344e12),
        3.2: (4872052050050856.0, 4.6213e15),
        4.3: (4.188005758563787e18, 3.8864e18),
        5.4: (4.2454480692592163e21, 3.8768e21),
        6.5: (4.87594026563716e24, 4.4213e24),
    },
    "full": {
        1.0: (5346354313440.125, 5.3452e12),
        2.1: (1.02180700265234e16, 1.0210e16),
        3.2: (2.7869916206547083e19, 2.7835e19),
        4.3: (9.58865805808612e22, 9.5764e22),
        5.4: (3.911568861031493e26, 3.9079e26),
        6.5: (1.824432240724475e30, 1.8232e30),
    },
}

REFERENCE_ODD = {
    "desk": {
        1: (-14797634.029955447, 1.6143e10),
        3: (-15572668471146.336, 1.7842e15),
        5: (-1.8028037709160136e18, 4.6952e20),
    },
    "full": {
        1: (4117795634.8050165, 5.7074e12),
        3: (-7287144562356882.0, 7.8851e18),
        5: (-2.3333217275753874e23, 2.5937e25),
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
    rows: List[TableRow]


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
    needs no sieve and finishes in well under a second.  ``events`` serves
    the sweep of every scale, so it must cover the largest one; without it
    each sweep sieves its own.
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
        references = {Kind.ABSOLUTE: REFERENCE_ABSOLUTE[sc], Kind.SIGNED: REFERENCE_ODD[sc]}
        computed = {}
        if include_actual:
            pairs = [(float(o), k) for k, ref in references.items() for o in sorted(ref)]
            results, _ = sweep_moments(window, pairs, events=events, threads=threads)
            computed = {(res.order, res.kind): res.value for res in results}
        for kind, ref in references.items():
            rows = []
            for o in sorted(ref):
                ref_act, ref_pred = ref[o]
                if kind == Kind.ABSOLUTE:
                    predicted = scaled_refined_term(X, float(delta), o)
                else:
                    predicted = odd_normalizer(X, float(delta), o)
                rows.append(
                    TableRow(
                        order=float(o),
                        kind=kind,
                        computed=computed.get((float(o), kind)),
                        reference=ref_act if include_actual else None,
                        predicted=predicted,
                        reference_predicted=ref_pred,
                    )
                )
            name = "absolute" if kind == Kind.ABSOLUTE else "signed-odd"
            tables.append(Table(f"{name}-{sc}", X, delta, rows))
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
