"""Special function evaluation and identity residuals.

Everything here is classical analysis used to back the moment formulas:
the Legendre duplication identity of the gamma function, the upper
incomplete gamma function at half-integers, absolute moments
of a standard Gaussian, Maclaurin coefficients of sin^2 and sin^4, and the
oscillatory integrals int_0^inf sin^2(u)/u^(1+lam) du and
int_0^inf sin^4(u)/u^(2+theta) du.

Both oscillatory integrals have closed forms (Gradshteyn & Ryzhik 3.823),
with s = 1 + theta and t = theta - 1:
    G(lam)   = 2^(lam-2) pi / (Gamma(lam+1) sin(pi lam/2))
    D(theta) = 2^(s-1) pi (2^t - 1) / (2 Gamma(s+1) sin(pi t/2)),
and D has the removable limit log 2 at theta = 1.  2^t - 1 is formed by
expm1, so D keeps its relative accuracy next to theta = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)

# math.gamma overflows float64 just above 171.62
_GAMMA_OVERFLOW = 171.7


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
    return math.gamma(lam + 1.0) / (math.gamma(lam / 2.0 + 1.0) * 2.0 ** (lam / 2.0))


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
    lhs = 2.0**lam * math.gamma((lam + 1.0) / 2.0) / SQRT_PI
    rhs = math.gamma(lam + 1.0) / math.gamma(lam / 2.0 + 1.0)
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
        fact = math.factorial(2 * j)
        if power == 2:
            coeffs[2 * j] = (-1) ** (j + 1) * 2 ** (2 * j - 1) / fact
        else:
            coeffs[2 * j] = (-1) ** j * 4 ** (j + 1) * (4 ** (j - 1) - 1) / (8 * fact)
    return coeffs


def sin_squared_integral(lam: float, omega: float = 1.0) -> float:
    """int_0^inf sin(omega u)^2 / u^(1+lam) du for lam in [0.1, 2).

    omega^lam 2^(lam-2) pi / (Gamma(lam+1) sin(pi lam/2)); pi/2 at lam=1.
    The integral diverges at lam = 2.
    """
    if not 0.1 <= lam < 2.0:
        raise DomainError(f"exponent must lie in [0.1, 2), got {lam}")
    return (
        omega**lam
        * 2.0 ** (lam - 2.0)
        * math.pi
        / (math.gamma(lam + 1.0) * math.sin(math.pi * lam / 2.0))
    )


def sin_fourth_integral(theta: float, omega: float = 1.0) -> float:
    """int_0^inf sin(omega u)^4 / u^(2+theta) du for theta in (0, 2].

    With s = 1 + theta and t = theta - 1 this is
    omega^s 2^(s-1) pi (2^t - 1) / (2 Gamma(s+1) sin(pi t/2)): pi/3 at
    theta=2, and the removable singularity at theta=1 takes the limit
    omega^2 log 2.
    """
    if not 0.0 < theta <= 2.0:
        raise DomainError(f"exponent must lie in (0, 2], got {theta}")
    if theta == 1.0:
        return omega**2 * math.log(2.0)
    s, t = 1.0 + theta, theta - 1.0
    return (
        omega**s
        * 2.0 ** (s - 1.0)
        * math.pi
        * math.expm1(t * math.log(2.0))
        / (2.0 * math.gamma(s + 1.0) * math.sin(math.pi * t / 2.0))
    )
