"""Exact piecewise evaluation of moments of psi(x + width) - psi(x) - width.

The integrand is driven by the step function
    S(x) = sum of weights of prime powers n inside the window at x,
which only changes where an event enters or leaves.  For a fixed window of
width h the event n is inside iff x < n <= x + h, so it enters at n - h and
leaves at n.  For a scaled window the event is inside iff x < n <= x(1+delta),
entering at n/(1+delta) and leaving at n.

With h = hp/hq and delta = p/q rational, every breakpoint is an integer
multiple of 1/K (K = hq resp. p+q).  All breakpoints are therefore kept as
int64 keys n*hq - hp / n*hq resp. n*q / n*(p+q) and ordered by integer
comparison; floats only enter when a piece is integrated.

On a piece [a, b) the residual u(x) = S - h is constant (fixed) or
u(x) = S - delta x falls linearly (scaled).  Scaled pieces are integrated
in closed form through antiderivatives G with G' = g:
    signed    g(u) = u^m        G(u) = u^(m+1)/(m+1)
    absolute  g(u) = |u|^m      G(u) = sgn(u)|u|^(m+1)/(m+1)
    pos part  g(u) = max(u,0)^m G(u) = max(u,0)^(m+1)/(m+1)
    neg part  g(u) = min(u,0)^m G(u) = min(u,0)^(m+1)/(m+1)
each continuous at u = 0, so a piece whose residual changes sign is handled
exactly without an explicit split: the two half-piece integrals telescope.

For an integer order n the difference G(ul) - G(ur) is not formed: ul - ur
is delta times the piece length, tiny next to |u|, so the subtraction would
cancel.  Instead the piece integral is the exact divided difference
    length * h_n(ul, ur) / (n+1),  h_n(a, b) = sum_j a^j b^(n-j),
evaluated by products, e.g. (a+b)(a^2+b^2) for n = 3; for n = 1 it is the
midpoint rule.  Positive and negative parts clip u at 0 first, and over a
sign change the clipped part covers (a - b)/delta of the piece instead of
its length.  Absolute orders other than even integers keep the closed
form, with G(u) = copysign(|u|^(m+1), u)/(m+1).  Fixed pieces raise the
constant residual to integer orders by products too.  No ``**`` ever takes
a negative base: numpy's power leaves its vectorised path there and costs
an order of magnitude more per element.

Piece lengths are exact integer key differences divided by K once.

The key range [K, ceil(X K)] is cut at two levels.  Outer chunks hold
about ``chunk_events`` events each; each is one event range request (which
a streamed source answers by sieving that span) and one task for the
thread pool.  Inside an outer chunk the sweep integrates sub-chunks, cut
at the exit key of every _SUB_EVENTS-th loaded event, so the setup and
kernel temporaries of a sub-chunk (about 2 _SUB_EVENTS pieces) stay in
cache.  An exit key inside the chunk is already a breakpoint, so the cuts
add no piece.  The events overlapping a sub-chunk are one contiguous slice
of the chunk's events, as entry and exit keys both rise with n.  Those
already inside the window at its left end only set the starting value of
S, and those leaving at its right end or later never step it, so a window
wider than a sub-chunk costs one sum, not a larger sort.  Both levels of
cuts depend only on the window, ``chunk_events`` and the events, never on
the thread count, and the results are combined in a fixed order, so they
do not depend on the thread count either.  Within a sub-chunk the running
sum for S is carried in extended precision and the per-piece contributions
are summed pairwise (``np.sum``); the sums of all sub-chunks are combined
with ``math.fsum``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    InvalidOrderError,
    InvalidWindowError,
    RangeLimitError,
)
from .sieve import PSI_SPAN, EventSource

MAX_DELTA_DENOMINATOR = 10**9
_KEY_LIMIT = 1 << 62
DEFAULT_CHUNK_EVENTS = 1 << 20
# events per integration sub-chunk, so that its setup temporaries stay in cache
_SUB_EVENTS = 1 << 14


class Kind(str, Enum):
    ABSOLUTE = "absolute"
    SIGNED = "signed"
    POSITIVE_PART = "positive_part"
    NEGATIVE_PART = "negative_part"


@dataclass(frozen=True)
class Fixed:
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        if self.h <= 0:
            raise InvalidWindowError(f"window width must be positive, got {self.h}")


@dataclass(frozen=True)
class Scaled:
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.delta < 1:
            raise InvalidWindowError(f"delta must lie in (0, 1), got {self.delta}")
        if self.delta.denominator > MAX_DELTA_DENOMINATOR:
            raise InvalidWindowError(
                f"delta denominator {self.delta.denominator} exceeds "
                f"{MAX_DELTA_DENOMINATOR}"
            )


@dataclass(frozen=True)
class WindowSpec:
    X: float
    geometry: Fixed | Scaled

    def __post_init__(self):
        if not 1 <= self.X < math.inf:
            raise InvalidWindowError(f"X must be finite and at least 1, got {self.X}")
        if isinstance(self.geometry, Fixed) and self.X > 1:
            if self.geometry.h >= Fraction(self.X):
                raise InvalidWindowError(
                    f"fixed width h={self.geometry.h} must be below X={self.X}"
                )

    def limit(self) -> int:
        """Largest n any window position can contain."""
        xf = Fraction(self.X)
        if isinstance(self.geometry, Fixed):
            top = xf + self.geometry.h
        else:
            top = xf * (1 + self.geometry.delta)
        return int(math.floor(top))


@dataclass(frozen=True)
class MomentResult:
    order: float
    kind: Kind
    value: float
    piece_count: int


@dataclass
class SweepDiagnostics:
    piece_count: int = 0
    length_sum: float = 0.0
    wall_seconds: float = 0.0
    chunks: int = 0


def _validate_pairs(pairs: Sequence[Tuple[float, Kind]]):
    for order, kind in pairs:
        if not 0 < order < math.inf:
            raise InvalidOrderError(f"order must be positive and finite, got {order}")
        if kind != Kind.ABSOLUTE and not float(order).is_integer():
            raise InvalidOrderError(
                f"kind {kind.value} needs an integer order, got {order}"
            )


@dataclass(frozen=True)
class _Geometry:
    kind: str  # "fixed" | "scaled"
    K: int  # common key denominator; event n leaves at key n*K
    entry_mul: int  # and enters at key n*entry_mul - entry_sub
    entry_sub: int
    width64: float  # h or delta, rounded to float64 once


def _prepare_geometry(window: WindowSpec) -> _Geometry:
    g = window.geometry
    if isinstance(g, Fixed):
        hp, hq = g.h.numerator, g.h.denominator
        return _Geometry("fixed", hq, hq, hp, hp / hq)
    p, q = g.delta.numerator, g.delta.denominator
    return _Geometry("scaled", p + q, q, 0, p / q)


def _power(u: np.ndarray, n: int) -> np.ndarray:
    """u**n for an integer n >= 1 by binary powering.

    Only products, so a negative base costs no more than a positive one.
    The result may be ``u`` itself; callers must not write into it.
    """
    result = None
    while True:
        if n & 1:
            result = u if result is None else result * u
        n >>= 1
        if not n:
            return result
        u = u * u


def _divided_power(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """h_n(a, b) = (a^(n+1) - b^(n+1)) / (a - b) = sum_j a^j b^(n-j).

    Odd n factor as (a + b) h_{(n-1)/2}(a^2, b^2), even n as
    a^n + b h_{n-1}(a, b); n = 3 gives (a + b)(a^2 + b^2).
    """
    if n % 2 == 0:
        return _power(a, n) + b * _divided_power(a, b, n - 1)
    s = a + b
    if n == 1:
        return s
    return s * _divided_power(a * a, b * b, n // 2)


def _by_products(order: float, kind: Kind) -> bool:
    """Whether g(u) is a plain integer power of the clipped residual: all
    kinds but absolute (their orders are integers), and even absolute
    orders, where |u|^n = u^n."""
    return kind != Kind.ABSOLUTE or (order == int(order) and int(order) % 2 == 0)


def _clip(u: np.ndarray, kind: Kind) -> np.ndarray:
    """The part of the residual a kind raises to its order."""
    if kind == Kind.POSITIVE_PART:
        return np.maximum(u, 0.0)
    if kind == Kind.NEGATIVE_PART:
        return np.minimum(u, 0.0)
    return u


def _integrand(u: np.ndarray, order: float, kind: Kind) -> np.ndarray:
    """g(u) pointwise: integer orders by products, others by ** on |u|."""
    if _by_products(order, kind):
        return _power(_clip(u, kind), int(order))
    u = np.abs(u)
    if order == int(order):
        return _power(u, int(order))
    return u**order


def _piece_integrals(
    ul: np.ndarray,
    ur: np.ndarray | None,
    lengths: np.ndarray,
    order: float,
    kind: Kind,
    inv_delta: float,
) -> np.ndarray:
    """Integral of g(u) over each piece, u falling linearly from ul to ur.

    ``ur`` is None for fixed-window pieces, where u = ul is constant.
    """
    if ur is None:
        return _integrand(ul, order, kind) * lengths
    if not _by_products(order, kind):
        m = order + 1.0
        ga = np.copysign(np.abs(ul) ** m, ul)
        gb = np.copysign(np.abs(ur) ** m, ur)
        return (ga - gb) * (inv_delta / m)
    n = int(order)
    a, b = _clip(ul, kind), _clip(ur, kind)
    # where a clipped part starts or ends inside the piece, it covers
    # (a - b) / delta of it instead of the whole length
    if kind == Kind.POSITIVE_PART:
        lengths = np.where(ur >= 0.0, lengths, a * inv_delta)
    elif kind == Kind.NEGATIVE_PART:
        lengths = np.where(ul <= 0.0, lengths, -b * inv_delta)
    return lengths * (1.0 / (n + 1)) * _divided_power(a, b, n)


def _chunk_moments(
    geom: _Geometry,
    entry: np.ndarray,
    exit_: np.ndarray,
    weights: np.ndarray,
    ka: int,
    kb: int,
    pairs: Sequence[Tuple[float, Kind]],
    x_end: float | None,
):
    """Integrate all requested (order, kind) pairs over x in [ka/K, kb/K).

    entry/exit_/weights hold exactly the events overlapping [ka, kb).
    x_end, when given, replaces the right endpoint of the final piece, so
    the sweep ends at X itself even when X*K is not an integer.
    """
    K = geom.K
    # events entered by ka only set the starting value of S, and events
    # leaving at kb or later never step it, so only the keys strictly
    # inside are sorted; a window wider than the chunk costs one sum
    inside = int(np.searchsorted(entry, ka, side="right"))
    leaving = int(np.searchsorted(exit_, kb, side="left"))
    s0 = np.sum(weights[:inside], dtype=np.longdouble)
    keys = np.concatenate([entry[inside:], exit_[:leaving]])
    deltas = np.concatenate([weights[inside:], -weights[:leaving]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    running = np.cumsum(np.concatenate([[s0], deltas[order].astype(np.longdouble)]))

    # pieces [points[i], points[i+1]); once the empty ones are dropped the
    # rest tile [ka, kb), so each piece ends where the next one starts
    points = np.concatenate([[ka], keys, [kb]])
    keep = points[1:] > points[:-1]
    svals = running[keep]
    points = np.append(points[:-1][keep], kb)
    piece_count = int(svals.size)

    # exact integer differences, rounded once
    lengths = np.diff(points) / K
    if x_end is not None:
        lengths[-1] = float(Fraction(x_end) - Fraction(int(points[-2]), K))
    length_sum = float(np.sum(lengths))

    if geom.kind == "fixed":
        ul = (svals - np.longdouble(geom.width64)).astype(np.float64)
        ur = None
    else:
        dx = np.longdouble(geom.width64) * (points.astype(np.longdouble) / K)
        if x_end is not None:
            dx[-1] = np.longdouble(geom.width64) * np.longdouble(x_end)
        ul = (svals - dx[:-1]).astype(np.float64)
        ur = (svals - dx[1:]).astype(np.float64)
    inv_delta = 1.0 / geom.width64
    values = [
        float(np.sum(_piece_integrals(ul, ur, lengths, o, k, inv_delta)))
        for o, k in pairs
    ]
    return values, piece_count, length_sum


def sweep_moments(
    window: WindowSpec,
    pairs: Sequence[Tuple[float, Kind]],
    *,
    events: EventSource | None = None,
    threads: int = 1,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Tuple[list, SweepDiagnostics]:
    """All requested (order, kind) moments in one pass over the pieces.

    Returns (results, diagnostics); results align with ``pairs``.
    ``threads`` <= 0 means one thread per core, up to 8.
    """
    pairs = [(float(o), Kind(k)) for o, k in pairs]
    _validate_pairs(pairs)
    if threads <= 0:
        threads = default_threads()
    start = time.monotonic()
    X = float(window.X)
    geom = _prepare_geometry(window)
    limit = window.limit()
    if limit * geom.K >= _KEY_LIMIT or limit * geom.entry_mul >= _KEY_LIMIT:
        raise RangeLimitError(
            f"keys for X={X} with denominator {geom.K} overflow 64-bit range"
        )
    if events is None:
        events = EventSource(limit)

    a_key = geom.K
    # no breakpoint falls strictly between floor and ceil of X*K, so rounding
    # up and trimming the final piece to X keeps the sweep exact; on the key
    # grid the trim reproduces the untrimmed bits
    b_key = math.ceil(Fraction(window.X) * geom.K)

    est_events = max(64, int(limit / max(math.log(max(limit, 3)), 1.0)))
    n_chunks = max(1, math.ceil(est_events / chunk_events))
    span = max(1, (b_key - a_key + n_chunks - 1) // n_chunks)
    bounds = [min(a_key + i * span, b_key) for i in range(n_chunks)] + [b_key]

    def run_chunk(i: int):
        ka, kb = bounds[i], bounds[i + 1]
        if ka >= kb:
            return []
        # events overlapping [ka, kb): exit > ka and entry < kb
        n_lo = ka // geom.K + 1  #  n*K > ka
        n_hi = (kb + geom.entry_sub + geom.entry_mul - 1) // geom.entry_mul
        ns, ws = events.range(n_lo, min(n_hi, limit + 1))
        entry = ns * geom.entry_mul - geom.entry_sub
        exit_ = ns * geom.K
        cuts = exit_[_SUB_EVENTS - 1 :: _SUB_EVENTS]
        edges = [ka, *cuts[cuts < kb].tolist(), kb]  # every exit key is > ka
        lo = np.searchsorted(exit_, edges[:-1], side="right")
        hi = np.searchsorted(entry, edges[1:], side="left")
        return [
            _chunk_moments(
                geom, entry[l:h], exit_[l:h], ws[l:h], ca, cb, pairs,
                X if cb == b_key else None,
            )
            for l, h, ca, cb in zip(lo.tolist(), hi.tolist(), edges[:-1], edges[1:])
        ]

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_lists = list(pool.map(run_chunk, range(n_chunks)))
    else:
        chunk_lists = [run_chunk(i) for i in range(n_chunks)]
    chunk_results = [r for rs in chunk_lists for r in rs]

    piece_count = max(1, sum(r[1] for r in chunk_results))
    length_sum = math.fsum(r[2] for r in chunk_results)
    results = []
    for j, (order, kind) in enumerate(pairs):
        value = math.fsum(r[0][j] for r in chunk_results)
        results.append(MomentResult(order, kind, value, piece_count))
    diag = SweepDiagnostics(
        piece_count=piece_count,
        length_sum=length_sum,
        wall_seconds=time.monotonic() - start,
        chunks=n_chunks,
    )
    return results, diag


def first_moment_exact(window: WindowSpec, events: EventSource | None = None) -> float:
    """Signed first moment by direct per-event accounting.

    Each event n contributes weight(n) times the measure of x in [1, X]
    whose window contains n, and the linear part integrates in closed form.
    Events stream in PSI_SPAN-wide range requests, like psi's.
    Shares nothing with the sweep except the event list, so it serves as an
    independent oracle for it.
    """
    X = float(window.X)
    geom = _prepare_geometry(window)
    limit = window.limit()
    if events is None:
        events = EventSource(limit)

    def span_sum(lo: int) -> float:
        ns, ws = events.range(lo, min(lo + PSI_SPAN, limit + 1))
        entry = (ns * geom.entry_mul - geom.entry_sub).astype(np.float64) / geom.K
        exit_ = (ns * geom.K).astype(np.float64) / geom.K
        overlap = np.minimum(exit_, X) - np.maximum(entry, 1.0)
        return float(np.sum(ws * np.maximum(overlap, 0.0)))

    positive = math.fsum(span_sum(lo) for lo in range(2, limit + 1, PSI_SPAN))
    if geom.kind == "fixed":
        linear = geom.width64 * (X - 1.0)
    else:
        linear = geom.width64 * (X * X - 1.0) / 2.0
    return positive - linear


def grid_oracle(
    window: WindowSpec,
    orders: Sequence[float],
    kind: Kind,
    step: float,
    events: EventSource | None = None,
) -> list:
    """Midpoint-rule approximation sampling psi directly, one value per
    order; converges to the sweep value as step -> 0.  Slow, only for
    modest X.

    The residual u(x) = S(x) - width at a sample point reads S(x) off a
    longdouble prefix sum of the weights by binary search, so sampling
    shares nothing with the sweep's piece machinery.
    """
    X = float(window.X)
    orders = [float(o) for o in orders]
    kind = Kind(kind)
    _validate_pairs([(o, kind) for o in orders])
    if X <= 1.0:
        return [0.0] * len(orders)
    if not 0 < step <= (X - 1.0) / 10.0:
        raise InvalidWindowError(f"step must lie in (0, (X-1)/10], got {step}")
    geom = _prepare_geometry(window)
    if events is None:
        events = EventSource(window.limit())
    ns, ws = events.range(2, window.limit() + 1)
    prefix = np.concatenate(
        [np.zeros(1, dtype=np.longdouble), np.cumsum(ws.astype(np.longdouble))]
    )
    n_cells = int(math.ceil((X - 1.0) / step))
    width = (X - 1.0) / n_cells
    totals = np.zeros(len(orders), dtype=np.float64)
    block = 1 << 20
    for start_idx in range(0, n_cells, block):
        count = min(block, n_cells - start_idx)
        x = 1.0 + (start_idx + np.arange(count) + 0.5) * width
        if geom.kind == "fixed":
            hi, lin = x + geom.width64, geom.width64
        else:
            hi, lin = x * (1.0 + geom.width64), geom.width64 * x
        S = prefix[np.searchsorted(ns, hi, side="right")] - prefix[
            np.searchsorted(ns, x, side="right")
        ]
        u = S.astype(np.float64) - lin
        for j, o in enumerate(orders):
            totals[j] += np.sum(_integrand(u, o, kind))
    return [float(t * width) for t in totals]


def default_threads() -> int:
    return min(8, os.cpu_count() or 1)
