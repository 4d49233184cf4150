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
from scipy.integrate import quad, trapezoid

from .errors import DomainError, InvariantError
from .predictions import fixed_main_term, odd_normalizer
from .sieve import EventSource
from .specfun import gamma
from .sweep import (
    Kind,
    Scaled,
    WindowSpec,
    residual_sampler,
    sweep_moments,
)

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


def _pointwise_clip_bound(residuals: np.ndarray):
    """Sampled check of |max(a,0) - max(b,0)| <= |a - b| on residual pairs."""
    a = residuals[:-1]
    b = residuals[1:]
    lhs = np.abs(np.maximum(a, 0.0) - np.maximum(b, 0.0))
    rhs = np.abs(a - b)
    bad = lhs > rhs + 1e-12 * np.maximum(1.0, rhs)
    if np.any(bad):
        raise InvariantError("clip bound |max(a,0)-max(b,0)| <= |a-b| failed")


def _sample_residuals(window: WindowSpec, events: EventSource, count: int = 4096):
    X = float(window.X)
    x = np.linspace(1.0, X, count, endpoint=False) + (X - 1.0) / (2.0 * count)
    return residual_sampler(window, events)(x)


def decomposition_check(
    window: WindowSpec,
    n: int,
    *,
    events: EventSource | None = None,
    threads: int = 1,
) -> EquivalenceReport:
    """Verify Absolute + Signed = 2 PositivePart at odd order n.

    Raises InvariantError when the identity fails beyond 1e-9 of the
    absolute moment.  Also spot-checks the elementary clip bound on
    sampled residual values.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError(f"decomposition needs odd order, got {n}")
    if events is None:
        events = EventSource(window.limit())
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
    _pointwise_clip_bound(_sample_residuals(window, events))

    X = float(window.X)
    if isinstance(window.geometry, Scaled):
        normalizer = odd_normalizer(X, float(window.geometry.delta), n)
    else:
        normalizer = fixed_main_term(X, float(window.geometry.h), float(n))
    return EquivalenceReport(
        order=n,
        window=window,
        signed=signed,
        absolute=absolute,
        positive_part=positive,
        normalizer=normalizer,
        ratio=signed / normalizer,
    )


def _width_integrand_constant(n: int) -> float:
    return gamma(n + 1.0) / (gamma(n / 2.0 + 2.0) * 2.0 ** (n / 2.0))


def width_grid(X: float, Delta: float, grid_points: int = 16) -> List[Fraction]:
    """The widths saffari_vaughan_average sweeps: log-spaced over
    [Delta/100, Delta], each rationalized as finely as the exact-key range
    allows.  The widest of them sets the event limit the average needs.
    """
    if not 1.0 / X < Delta < 1:
        raise DomainError(f"Delta must lie in (1/X, 1), got {Delta}")
    if grid_points < 8:
        raise DomainError("grid_points must be at least 8")
    cap = min(10**9, max(10**4, (1 << 62) // (8 * (int(X) + 1))))
    fracs = []
    for d in np.geomspace(Delta / 100.0, Delta, grid_points):
        f = Fraction(float(d)).limit_denominator(cap)
        if f <= 0:
            f = Fraction(1, cap)
        fracs.append(f)
    return fracs


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
    omitted head is bounded by the main-term integral and reported.
    rhs: (1/2) C_n int_0^(Delta X) h^(n/2) (log(X/h))^(n/2) dh with
    C_n = Gamma(n+1) / (Gamma(n/2+2) 2^(n/2)).
    """
    if n < 1 or n != int(n) or int(n) % 2 == 0:
        raise DomainError(f"order must be an odd positive integer, got {n}")
    fracs = width_grid(X, Delta, grid_points)
    if events is None:
        top = WindowSpec(X, Scaled(max(fracs))).limit()
        events = EventSource(top)

    vals = []
    xs = []
    for f in fracs:
        window = WindowSpec(X, Scaled(f))
        results, _ = sweep_moments(
            window, [(n, Kind.POSITIVE_PART)], events=events, threads=threads
        )
        vals.append(results[0].value)
        xs.append(float(f))
    lhs = float(trapezoid(np.asarray(vals), x=np.asarray(xs)))

    c = _width_integrand_constant(n)
    half = n / 2.0
    head_bound, _ = quad(
        lambda d: 0.5 * c * X ** (half + 1.0) * d**half * math.log(1.0 / d) ** half,
        0.0,
        Delta / 100.0,
        epsabs=0.0,
        epsrel=1e-8,
        limit=200,
    )
    rhs, _ = quad(
        lambda h: 0.5 * c * h**half * math.log(X / h) ** half,
        0.0,
        Delta * X,
        epsabs=0.0,
        epsrel=1e-8,
        limit=200,
    )
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
