"""Predicted sizes of the moments.

Two families of windows: fixed width h at scale X, and scaled width
delta * x.  For each there is a leading main term, a refined version with
the secondary constant E = 2 pi e^(C0 - 1) folded into the logarithm, and
for even integer orders the classical double-factorial form built on
B = 1 - C0 - log(2 pi).  All constants derive from C0 alone.

A width far outside the regime where the formulas are meaningful gets a
WidthRangeWarning attached, never an error: the formula value is still
well defined and callers may want it.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import quad

from .errors import DomainError
from .specfun import gaussian_abs_moment

# Euler's constant, single source of truth for B and E
C0 = 0.57721566490153286061
B_CONSTANT = 1.0 - C0 - math.log(2.0 * math.pi)
E_CONSTANT = 2.0 * math.pi * math.exp(C0 - 1.0)

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-12, limit=200)


class WidthRangeWarning(UserWarning):
    """Width outside the band where the asymptotic is expected to apply."""


def _check_fixed_width(X: float, h: float):
    if not 0 < h < X:
        raise DomainError(f"need 0 < h < X, got h={h}, X={X}")
    if X > 8 and not math.log(X) <= h <= X / math.log(X):
        warnings.warn(
            f"h={h} outside [log X, X/log X] at X={X}; the prediction "
            "is extrapolated beyond its expected range",
            WidthRangeWarning,
            stacklevel=3,
        )


def _check_scaled_width(X: float, delta: float):
    if not 0 < delta < 1:
        raise DomainError(f"need 0 < delta < 1, got {delta}")
    if X > 8 and not math.log(X) / X <= delta <= 1 / math.log(X):
        warnings.warn(
            f"delta={delta} outside [log X / X, 1/log X] at X={X}; the "
            "prediction is extrapolated beyond its expected range",
            WidthRangeWarning,
            stacklevel=3,
        )


def fixed_main_term(X: float, h: float, order: float) -> float:
    """Leading prediction for the fixed-window moment of given order:
    mu(order) X h^(order/2) (log(X/h))^(order/2)."""
    _check_fixed_width(X, h)
    mu = gaussian_abs_moment(order)
    return mu * X * h ** (order / 2.0) * math.log(X / h) ** (order / 2.0)


def scaled_main_term(X: float, delta: float, order: float) -> float:
    """Leading prediction for the scaled-window moment:
    mu(order)/(order/2+1) X^(order/2+1) delta^(order/2) (log(1/delta))^(order/2)."""
    _check_scaled_width(X, delta)
    mu = gaussian_abs_moment(order) / (order / 2.0 + 1.0)
    return (
        mu
        * X ** (order / 2.0 + 1.0)
        * delta ** (order / 2.0)
        * math.log(1.0 / delta) ** (order / 2.0)
    )


def fixed_refined_term(X: float, h: float, order: float) -> float:
    """Refined fixed-window prediction:
    mu(order) h^(order/2+1) int_E^(X/h) (log(x/E))^(order/2) dx.

    After t = log(x/E) the integrand is E t^(order/2) e^t on [0, T] with
    T = log(X/(hE)); evaluated by adaptive quadrature to 1e-10 relative.
    """
    _check_fixed_width(X, h)
    if X / h <= E_CONSTANT:
        raise DomainError(
            f"refined form needs X/h > E = {E_CONSTANT:.6f}, got X/h = {X / h}"
        )
    a = order / 2.0
    T = math.log(X / (h * E_CONSTANT))
    integral, _ = quad(lambda t: t**a * math.exp(t), 0.0, T, **_QUAD_OPTS)
    integral *= E_CONSTANT
    mu = gaussian_abs_moment(order)
    return mu * h ** (a + 1.0) * integral


def scaled_refined_term(X: float, delta: float, order: float) -> float:
    """Refined scaled-window prediction:
    mu(order)/(order/2+1) X^(order/2+1) delta^(order/2) (log(1/(E delta)))^(order/2)."""
    _check_scaled_width(X, delta)
    if delta * E_CONSTANT >= 1.0:
        raise DomainError(
            f"refined form needs delta < 1/E = {1.0 / E_CONSTANT:.6f}, got {delta}"
        )
    mu = gaussian_abs_moment(order) / (order / 2.0 + 1.0)
    return (
        mu
        * X ** (order / 2.0 + 1.0)
        * delta ** (order / 2.0)
        * math.log(1.0 / (E_CONSTANT * delta)) ** (order / 2.0)
    )


def odd_normalizer(X: float, delta: float, n: int) -> float:
    """Reference scale against which the signed odd moments are judged small:
    the scaled main term at order n."""
    if n < 1 or n != int(n) or int(n) % 2 == 0:
        raise DomainError(f"normalizer defined for odd integer orders, got {n}")
    return scaled_main_term(X, delta, float(n))


def double_factorial(m: int) -> int:
    """(m)!! for odd m >= -1; (k-1)!! counts pair matchings of k items."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _check_even_order(k: int):
    # odd k has vanishing Gaussian moment, so the form does not apply
    if k < 1 or k != int(k) or k % 2:
        raise DomainError(f"order must be an even positive integer, got {k}")


def even_main_b_fixed(X: float, h: float, k: int) -> float:
    """Classical even-moment form for fixed windows:
    (k-1)!! h^(k/2) int_1^X (log(x/h) + B)^(k/2) dx."""
    _check_even_order(k)
    _check_fixed_width(X, h)
    half = k // 2
    mu_k = double_factorial(k - 1)
    integral, _ = quad(
        lambda x: (math.log(x / h) + B_CONSTANT) ** half, 1.0, X, **_QUAD_OPTS
    )
    return mu_k * h**half * integral


def even_main_b_scaled(X: float, delta: float, k: int) -> float:
    """Classical even-moment form for scaled windows:
    (k-1)!!/(k/2+1) X^(k/2+1) delta^(k/2) (log(1/delta) + B)^(k/2)."""
    _check_even_order(k)
    _check_scaled_width(X, delta)
    half = k // 2
    mu_k = double_factorial(k - 1)
    return (
        mu_k
        / (half + 1.0)
        * X ** (half + 1.0)
        * delta**half
        * (math.log(1.0 / delta) + B_CONSTANT) ** half
    )
