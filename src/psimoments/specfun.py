"""Special function evaluation and identity residuals.

Everything here is classical analysis used to back the moment formulas:
the gamma function and its Legendre duplication identity, the upper
incomplete gamma function at half-integers, absolute moments
of a standard Gaussian, Maclaurin coefficients of sin^2 and sin^4, and the
oscillatory integrals int_0^inf sin^2(u)/u^(1+lam) du and
int_0^inf sin^4(u)/u^(2+theta) du.

The oscillatory integrals have no closed form we rely on; they are computed
as   exact series head on [0, 1]
   + Gauss-Legendre on half-period panels up to U = cutoff * pi
   + integration-by-parts asymptotic tail beyond U,
with the final neglected term bounded and checked against the requested
error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

SQRT_PI = math.sqrt(math.pi)

# float64 overflows just above Gamma(171.62)
_GAMMA_OVERFLOW = 171.7


@dataclass(frozen=True)
class VerifierConfig:
    quad_rel_tol: float = 1e-8
    osc_cutoff_periods: int = 100  # integrate oscillatory part up to cutoff * pi

    def __post_init__(self):
        if not 0 < self.quad_rel_tol <= 1e-2:
            raise ValueError("quad_rel_tol must lie in (0, 1e-2]")
        if self.osc_cutoff_periods < 2:
            raise ValueError("osc_cutoff_periods must be at least 2")


DEFAULT_VERIFIER = VerifierConfig()


def gamma(x: float) -> float:
    """Gamma(x) for real 0 < x <= 200.

    Backed by the platform's Lanczos-type implementation (math.gamma),
    which is well inside the 1e-12 relative contract.  Above x ~ 171.62
    the true value exceeds the float64 range and +inf is returned; the
    duplication check below works in log space so large arguments stay
    usable there.
    """
    if not 0 < x <= 200:
        raise DomainError(f"gamma defined here for 0 < x <= 200, got {x}")
    if x > _GAMMA_OVERFLOW:
        return math.inf
    return math.gamma(x)


def upper_gamma(s: float, z: float) -> float:
    """Gamma(s, z) = int_z^inf t^(s-1) e^(-t) dt for half-integer s > 0, z >= 0.

    Starts from Gamma(1/2, z) = sqrt(pi) erfc(sqrt z) and climbs by the
    all-positive recurrence Gamma(r+1, z) = r Gamma(r, z) + z^r e^(-z).
    """
    if not (s > 0 and (2 * s) % 2 == 1 and z >= 0):
        raise DomainError(f"need half-integer s > 0 and z >= 0, got s={s}, z={z}")
    g, r = SQRT_PI * math.erfc(math.sqrt(z)), 0.5
    while r < s:
        g = r * g + z**r * math.exp(-z)
        r += 1.0
    return g


def gaussian_abs_moment(lam: float) -> float:
    """E|Z|^lam for standard normal Z: Gamma(lam+1) / (Gamma(lam/2+1) 2^(lam/2))."""
    if not 0 < lam <= 60:
        raise DomainError(f"order must lie in (0, 60], got {lam}")
    return gamma(lam + 1.0) / (gamma(lam / 2.0 + 1.0) * 2.0 ** (lam / 2.0))


def duplication_residual(z: float) -> float:
    """Relative defect of sqrt(pi) Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z+1/2)."""
    if not 0 < z <= 100:
        raise DomainError(f"duplication checked for 0 < z <= 100, got {z}")
    if 2 * z <= _GAMMA_OVERFLOW:
        lhs = SQRT_PI * math.gamma(2 * z)
        rhs = 2.0 ** (2 * z - 1) * math.gamma(z) * math.gamma(z + 0.5)
        return abs(lhs - rhs) / lhs
    # both sides overflow float64; compare in log space
    log_lhs = 0.5 * math.log(math.pi) + math.lgamma(2 * z)
    log_rhs = (2 * z - 1) * math.log(2.0) + math.lgamma(z) + math.lgamma(z + 0.5)
    return abs(math.expm1(log_rhs - log_lhs))


def moment_constant_residual(lam: float) -> float:
    """Residual of the constant chain behind the moment main terms.

    Checks 2^lam Gamma((lam+1)/2) / sqrt(pi) == Gamma(lam+1) / Gamma(lam/2+1)
    and that gaussian_abs_moment matches the right-hand side divided by
    2^(lam/2).  Returns the larger relative residual.
    """
    if not 0 < lam <= 60:
        raise DomainError(f"order must lie in (0, 60], got {lam}")
    lhs = 2.0**lam * gamma((lam + 1.0) / 2.0) / SQRT_PI
    rhs = gamma(lam + 1.0) / gamma(lam / 2.0 + 1.0)
    r1 = abs(lhs - rhs) / rhs
    r2 = abs(gaussian_abs_moment(lam) - rhs / 2.0 ** (lam / 2.0)) / (
        rhs / 2.0 ** (lam / 2.0)
    )
    return max(r1, r2)


def sin_power_coefficients(power: int, n_terms: int) -> np.ndarray:
    """Dense Maclaurin coefficients of sin(u)**power, power in {2, 4}.

    Returns c with c[k] the coefficient of u^k, keeping n_terms nonzero
    terms: degrees u^2 .. u^(2 n_terms) for power 2, u^4 .. u^(2 n_terms + 2)
    for power 4.

    sin^2 u = (1/2) sum_{j>=1} (-1)^(j+1) (2u)^(2j) / (2j)!
    sin^4 u = (1/8) sum_{j>=2} b_j u^(2j),
              b_j = (-1)^j 4^(j+1) (4^(j-1) - 1) / (2j)!
    (so b_2 = +8 and the u^4 coefficient is +1).
    """
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")
    if n_terms < power // 2:
        raise DomainError(f"need at least {power // 2} terms for power {power}")
    j0 = power // 2
    top = 2 * (j0 + n_terms - 1)
    coeffs = np.zeros(top + 1, dtype=np.float64)
    for j in range(j0, j0 + n_terms):
        coeffs[2 * j] = _sin_power_coefficient(power, j)
    return coeffs


def _sin_power_coefficient(power: int, j: int) -> float:
    """Coefficient of u^(2j) in sin(u)**power, power in {2, 4}."""
    fact = math.factorial(2 * j)
    if power == 2:
        return (-1) ** (j + 1) * 2 ** (2 * j - 1) / fact
    return (-1) ** j * 4 ** (j + 1) * (4 ** (j - 1) - 1) / (8 * fact)


def _series_head(power: int, s: float, omega: float) -> float:
    """Exact int_0^1 sin(omega u)^power / u^s du via the Maclaurin series.

    Each series term c_(2j) omega^(2j) u^(2j) integrates to
    c_(2j) omega^(2j) / (2j + 1 - s); terms shrink like (4 omega)^(2j)/(2j)!
    so the sum is run until it stops moving.
    """
    j0 = power // 2
    total = 0.0
    for j in range(j0, 90):
        term = _sin_power_coefficient(power, j) * omega ** (2 * j) / (2 * j + 1.0 - s)
        total += term
        if j > j0 + 2 and abs(term) < 1e-17 * max(1.0, abs(total)):
            return total
    raise QuadratureError("series head did not converge")


def _osc_tail(U: float, omega: float, s: float, depth: int = 6):
    """(value, bound) for int_U^inf cos(omega u) u^(-s) du by repeated parts."""
    if depth == 0:
        return 0.0, U ** (1.0 - s) / (s - 1.0)
    val = -math.sin(omega * U) / (omega * U**s)
    sub, bound = _osc_tail_sin(U, omega, s + 1.0, depth - 1)
    return val + (s / omega) * sub, (s / omega) * bound


def _osc_tail_sin(U: float, omega: float, s: float, depth: int):
    if depth == 0:
        return 0.0, U ** (1.0 - s) / (s - 1.0)
    val = math.cos(omega * U) / (omega * U**s)
    sub, bound = _osc_tail(U, omega, s + 1.0, depth - 1)
    return val - (s / omega) * sub, (s / omega) * bound


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panel_quadrature(f, breaks: np.ndarray) -> float:
    """Gauss-Legendre on each [breaks[i], breaks[i+1]], summed."""
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    x = 0.5 * (b - a) * _GL_NODES[None, :] + 0.5 * (a + b)
    w = 0.5 * (b - a) * _GL_WEIGHTS[None, :]
    return float(np.sum(f(x) * w))


def _sin_power_integral(
    power: int, s: float, omega: float, config: VerifierConfig
) -> float:
    """int_0^inf sin(omega u)^power / u^s du, s chosen so both ends converge."""
    U = config.osc_cutoff_periods * math.pi
    head = _series_head(power, s, omega)
    k0 = int(math.floor(2.0 / math.pi)) + 1
    breaks = np.concatenate(
        [[1.0], np.arange(k0, 2 * config.osc_cutoff_periods + 1) * (math.pi / 2.0)]
    )
    breaks = breaks[breaks <= U]
    if breaks[-1] != U:
        breaks = np.append(breaks, U)
    mid = _panel_quadrature(lambda u: np.sin(omega * u) ** power / u**s, breaks)
    if power == 2:
        # sin^2 w = 1/2 - cos(2w)/2 with w = omega u
        tail = 0.5 * U ** (1.0 - s) / (s - 1.0)
        c, bound = _osc_tail(U, 2.0 * omega, s)
        tail -= 0.5 * c
        bound *= 0.5
    else:
        # sin^4 w = 3/8 - cos(2w)/2 + cos(4w)/8
        tail = 0.375 * U ** (1.0 - s) / (s - 1.0)
        c2, b2 = _osc_tail(U, 2.0 * omega, s)
        c4, b4 = _osc_tail(U, 4.0 * omega, s)
        tail += -0.5 * c2 + 0.125 * c4
        bound = 0.5 * b2 + 0.125 * b4
    value = head + mid + tail
    if bound > config.quad_rel_tol * abs(value):
        raise QuadratureError(
            f"tail bound {bound:.3e} exceeds budget for value {value:.6e}; "
            "raise osc_cutoff_periods"
        )
    return value


def sin_squared_integral(
    lam: float, config: VerifierConfig = DEFAULT_VERIFIER, omega: float = 1.0
) -> float:
    """int_0^inf sin(omega u)^2 / u^(1+lam) du for lam in [0.1, 2).

    Below 0.1 the tail decays too slowly for the default cutoff.  The scaling
    law gives int sin^2(c u)/u^(1+lam) du = c^lam * (value at omega=1).
    Known value at lam=1: pi/2.
    """
    if not 0.1 <= lam < 2.0:
        raise DomainError(f"exponent must lie in [0.1, 2), got {lam}")
    return _sin_power_integral(2, 1.0 + lam, omega, config)


def sin_fourth_integral(
    theta: float, config: VerifierConfig = DEFAULT_VERIFIER, omega: float = 1.0
) -> float:
    """int_0^inf sin(omega u)^4 / u^(2+theta) du for theta in (0, 2].

    Known value at theta=2: pi/3.
    """
    if not 0.0 < theta <= 2.0:
        raise DomainError(f"exponent must lie in (0, 2], got {theta}")
    return _sin_power_integral(4, 2.0 + theta, omega, config)
