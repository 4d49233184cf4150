"""Structural checks connecting signed, absolute, and one-sided moments.

For odd integer order n the pointwise identity |u|^n + u^n = 2 max(u,0)^n
lifts to the moments: Absolute + Signed = 2 PositivePart.  The one-sided
moment therefore carries the size of the absolute moment whenever the
signed moment is comparatively small; decomposition_check reports the
signed moment against the scaled main term at order n.

saffari_vaughan_average probes the same mechanism after averaging over the
width: the left side integrates the positive-part moment over delta in
(0, Delta], the right side is the closed-form width integral predicted for
it.  Their ratio should sit near 1 at leading order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .errors import DomainError, InvariantError
from .predictions import _check_odd_order, fixed_main_term, odd_normalizer
from .sieve import KEY_LIMIT, EventSource
from .specfun import gaussian_abs_moment, upper_gamma
from .sweep import MAX_DELTA_DENOMINATOR, Kind, Scaled, WindowSpec, sweep_moments

DECOMPOSITION_RTOL = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    order: int
    window: WindowSpec
    signed: float
    absolute: float
    positive_part: float
    normalizer: float
    ratio: float  # signed / normalizer


@dataclass(frozen=True)
class AverageReport:
    order: int
    X: float
    Delta: float
    lhs: float
    rhs: float
    ratio: float
    head_bound: float  # size bound for the omitted (0, Delta/100) head
    grid: Tuple[float, ...]


def decomposition_check(
    window: WindowSpec,
    n: int,
    *,
    events: EventSource | None = None,
    threads: int = 1,
) -> EquivalenceReport:
    """Verify Absolute + Signed = 2 PositivePart at odd order n.

    Raises InvariantError when the identity fails beyond 1e-9 of the
    absolute moment.  The three moments come from one sweep, so the check
    reads exactly the events that sweep reads.
    """
    _check_odd_order(n)
    results, _ = sweep_moments(
        window,
        [(n, Kind.ABSOLUTE), (n, Kind.SIGNED), (n, Kind.POSITIVE_PART)],
        events=events,
        threads=threads,
    )
    absolute, signed, positive = (r.value for r in results)
    residual = abs(absolute + signed - 2.0 * positive)
    scale = max(absolute, 1e-300)
    if residual > DECOMPOSITION_RTOL * scale:
        raise InvariantError(
            f"absolute + signed - 2 positive = {residual:.3e} "
            f"exceeds {DECOMPOSITION_RTOL} of {absolute:.6e}"
        )

    main = odd_normalizer if isinstance(window.geometry, Scaled) else fixed_main_term
    normalizer = main(float(window.X), float(window.geometry.width), n)
    return EquivalenceReport(
        order=n,
        window=window,
        signed=signed,
        absolute=absolute,
        positive_part=positive,
        normalizer=normalizer,
        ratio=signed / normalizer,
    )


def width_grid(X: float, Delta: float, grid_points: int = 16) -> List[Fraction]:
    """The widths saffari_vaughan_average sweeps: log-spaced over
    [Delta/100, Delta], each rationalized as finely as the exact-key range
    allows.  The widest of them sets the event limit the average needs.
    Rationalized widths that do not rise strictly from 0 raise DomainError.
    """
    if not 1 <= X < math.inf:
        raise DomainError(f"X must be finite and at least 1, got {X}")
    if not 1.0 / X < Delta < 1:
        raise DomainError(f"Delta must lie in (1/X, 1), got {Delta}")
    if grid_points < 8:
        raise DomainError("grid_points must be at least 8")
    # WindowSpec.limit needs limit * (p + q) < KEY_LIMIT for a width p/q < 1,
    # where p + q < 2q, and top bounds the limit of any width below Delta + 1/X
    top = math.floor(Fraction(X) * (1 + Fraction(Delta))) + 1
    cap = min(MAX_DELTA_DENOMINATOR, KEY_LIMIT // (2 * top))
    if cap < 1:
        raise DomainError(f"X={X:g} leaves no width denominator within the key range")
    widths = np.geomspace(Delta / 100.0, Delta, grid_points)
    fracs = [Fraction(float(d)).limit_denominator(cap) for d in widths]
    if not all(a < b for a, b in zip([0, *fracs], fracs)):
        raise DomainError(
            f"width grid over [{Delta / 100:g}, {Delta:g}] collapses at X={X:g}: "
            f"keys allow width denominators up to {cap} only"
        )
    return fracs


def average_event_limit(X: float, Delta: float, grid_points: int = 16) -> int:
    """The event limit saffari_vaughan_average needs: that of the widest
    window on its width grid, which any source it is given must cover."""
    return WindowSpec(X, Scaled(max(width_grid(X, Delta, grid_points)))).limit()


def _width_integral(X: float, d: float, n: int) -> float:
    """Predicted positive-part moment integrated over widths in (0, d]:
    (1/2) C_n int_0^(d X) h^(n/2) (log(X/h))^(n/2) dh, C_n = mu(n)/(n/2+1).

    With h = X e^(-u) and v = s u, s = n/2+1, this is
    (1/2) C_n X^s s^(-s) Gamma(s, s log(1/d)).
    """
    s = n / 2.0 + 1.0
    c = gaussian_abs_moment(n) / s
    return 0.5 * c * X**s * s ** (-s) * upper_gamma(s, -s * math.log(d))


def saffari_vaughan_average(
    X: float,
    Delta: float,
    n: int,
    *,
    grid_points: int = 16,
    events: EventSource | None = None,
    threads: int = 1,
) -> AverageReport:
    """Width-averaged positive-part moment against its predicted integral.

    lhs: int_0^Delta PositivePart(X, delta, n) d delta, approximated by
    trapezoids on a log-spaced delta grid over [Delta/100, Delta]; the
    omitted head is bounded by the rhs form taken up to Delta/100 and reported.
    rhs: (1/2) C_n int_0^(Delta X) h^(n/2) (log(X/h))^(n/2) dh with
    C_n = mu(n)/(n/2+1), in closed form (see _width_integral).
    """
    _check_odd_order(n)
    fracs = width_grid(X, Delta, grid_points)
    rhs = _width_integral(X, Delta, n)
    head_bound = _width_integral(X, Delta / 100.0, n)
    if events is None:
        events = EventSource(average_event_limit(X, Delta, grid_points))

    vals = []
    xs = []
    for f in fracs:
        window = WindowSpec(X, Scaled(f))
        results, _ = sweep_moments(
            window, [(n, Kind.POSITIVE_PART)], events=events, threads=threads
        )
        vals.append(results[0].value)
        xs.append(float(f))
    vals = np.asarray(vals)
    lhs = float((np.diff(xs) * (vals[1:] + vals[:-1]) / 2.0).sum())
    return AverageReport(
        order=n,
        X=float(X),
        Delta=float(Delta),
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        head_bound=head_bound,
        grid=tuple(xs),
    )
