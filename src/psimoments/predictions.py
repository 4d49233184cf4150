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

from .errors import DomainError
from .specfun import double_factorial, gaussian_abs_moment

# Euler's constant, single source of truth for B and E
C0 = 0.57721566490153286061
B_CONSTANT = 1.0 - C0 - math.log(2.0 * math.pi)
E_CONSTANT = 2.0 * math.pi * math.exp(C0 - 1.0)


class WidthRangeWarning(UserWarning):
    """Width outside the band where the asymptotic is expected to apply."""


def _check_width(X: float, width: float, name: str, top: float):
    """0 < width < top (X for h, 1 for delta), or DomainError.  Outside
    [log X, X/log X] * top/X the width gets a WidthRangeWarning."""
    if not 0 < width < top < math.inf:
        raise DomainError(f"need finite 0 < {name} < {top:g}, got {name}={width}")
    lo, hi = (math.log(X) * top / X, top / math.log(X)) if X > 8 else (0, math.inf)
    if not lo <= width <= hi:
        warnings.warn(
            f"{name}={width} outside [{lo:.6g}, {hi:.6g}] at X={X}; the "
            "prediction is extrapolated beyond its expected range",
            WidthRangeWarning,
            stacklevel=3,
        )


def fixed_main_term(X: float, h: float, order: float) -> float:
    """Leading prediction for the fixed-window moment of given order:
    mu(order) X h^(order/2) (log(X/h))^(order/2)."""
    _check_width(X, h, "h", X)
    mu = gaussian_abs_moment(order)
    return mu * X * h ** (order / 2.0) * math.log(X / h) ** (order / 2.0)


def scaled_main_term(X: float, delta: float, order: float) -> float:
    """Leading prediction for the scaled-window moment:
    mu(order)/(order/2+1) X^(order/2+1) delta^(order/2) (log(1/delta))^(order/2)."""
    _check_width(X, delta, "delta", 1.0)
    log_term = math.log(1.0 / delta)
    return _scaled_form(X, delta, gaussian_abs_moment(order), order / 2.0, log_term)


def _scaled_form(X: float, delta: float, mu: float, a: float, log_term: float) -> float:
    """mu/(a+1) X^(a+1) delta^a log_term^a, the shape of every scaled form."""
    return mu / (a + 1.0) * X ** (a + 1.0) * delta**a * log_term**a


def _positive_series(first: float, ratio, x: float) -> float:
    """fsum of the positive terms t_0 = first, t_k = t_(k-1) ratio(k),
    taken until k > x and the term is below 1e-17 of the sum."""
    terms = [first]
    while len(terms) <= x + 1 or terms[-1] >= 1e-17 * math.fsum(terms):
        terms.append(terms[-1] * ratio(len(terms)))
    return math.fsum(terms)


def _power_exp_integral(a: float, T: float) -> float:
    """int_0^T t^a e^t dt = sum_k T^(a+k+1) / (k! (a+k+1)) for T >= 0."""
    return T ** (a + 1.0) * _positive_series(
        1.0 / (a + 1.0), lambda k: T * (a + k) / (k * (a + k + 1.0)), T
    )


def fixed_refined_term(X: float, h: float, order: float) -> float:
    """Refined fixed-window prediction:
    mu(order) h^(order/2+1) int_E^(X/h) (log(x/E))^(order/2) dx.

    After t = log(x/E) the integral is E int_0^T t^(order/2) e^t dt with
    T = log(X/(hE)), summed in closed form as the all-positive series
    sum_k T^(order/2+k+1) / (k! (order/2+k+1)).
    """
    _check_width(X, h, "h", X)
    if X / h <= E_CONSTANT:
        raise DomainError(
            f"refined form needs X/h > E = {E_CONSTANT:.6f}, got X/h = {X / h}"
        )
    a = order / 2.0
    T = math.log(X / (h * E_CONSTANT))
    integral = _power_exp_integral(a, T) * E_CONSTANT
    mu = gaussian_abs_moment(order)
    return mu * h ** (a + 1.0) * integral


def scaled_refined_term(X: float, delta: float, order: float) -> float:
    """Refined scaled-window prediction:
    mu(order)/(order/2+1) X^(order/2+1) delta^(order/2) (log(1/(E delta)))^(order/2)."""
    _check_width(X, delta, "delta", 1.0)
    if delta * E_CONSTANT >= 1.0:
        raise DomainError(
            f"refined form needs delta < 1/E = {1.0 / E_CONSTANT:.6f}, got {delta}"
        )
    log_term = math.log(1.0 / (E_CONSTANT * delta))
    return _scaled_form(X, delta, gaussian_abs_moment(order), order / 2.0, log_term)


def odd_normalizer(X: float, delta: float, n: int) -> float:
    """Reference scale against which the signed odd moments are judged small:
    the scaled main term at order n."""
    _check_odd_order(n)
    return scaled_main_term(X, delta, float(n))


def _check_even_order(k: int):
    # odd k has vanishing Gaussian moment, so the form does not apply
    if k < 1 or k != int(k) or k % 2:
        raise DomainError(f"order must be an even positive integer, got {k}")


def _check_odd_order(n: int):
    # signed and one-sided moments are compared at odd integer orders
    if n < 1 or n != int(n) or int(n) % 2 == 0:
        raise DomainError(f"order must be an odd positive integer, got {n}")


def even_main_b_fixed(X: float, h: float, k: int) -> float:
    """Classical even-moment form for fixed windows:
    (k-1)!! h^(k/2) int_1^X (log(x/h) + B)^(k/2) dx.

    With m = k/2 and t = log(x/h) + B it is h e^(-B) int_(t0)^T t^m e^t dt,
    t0 = B - log h, T = log(X/h) + B, split at t = 0 into all-positive
    series: int_0^T as in fixed_refined_term, and for z = -t0 > 0
    int_(t0)^0 = (-1)^m e^(-z) z^(m+1) sum_j z^j / ((m+1)(m+2)...(m+1+j)).
    """
    _check_even_order(k)
    _check_width(X, h, "h", X)
    half = k // 2
    t0 = B_CONSTANT - math.log(h)
    integral = _power_exp_integral(half, math.log(X / h) + B_CONSTANT)
    if t0 >= 0:
        integral -= _power_exp_integral(half, t0)
    else:
        series = _positive_series(1.0 / (half + 1), lambda j: -t0 / (half + 1 + j), -t0)
        integral += (-1) ** half * math.exp(t0) * (-t0) ** (half + 1) * series
    return double_factorial(k - 1) * h**half * (h * math.exp(-B_CONSTANT) * integral)


def even_main_b_scaled(X: float, delta: float, k: int) -> float:
    """Classical even-moment form for scaled windows:
    (k-1)!!/(k/2+1) X^(k/2+1) delta^(k/2) (log(1/delta) + B)^(k/2)."""
    _check_even_order(k)
    _check_width(X, delta, "delta", 1.0)
    log_term = math.log(1.0 / delta) + B_CONSTANT
    return _scaled_form(X, delta, double_factorial(k - 1), k // 2, log_term)
