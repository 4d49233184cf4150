"""Special function evaluation and the identity suite.

Everything here is classical analysis used to back the moment formulas:
the Legendre duplication identity of the gamma function, the upper
incomplete gamma function at half-integers, absolute moments of a
standard Gaussian and the double factorials its even moments equal, and
the oscillatory integrals
int_0^inf sin^2(u)/u^(1+lam) du and int_0^inf sin^4(u)/u^(2+theta) du.
identity_residuals checks them all, each against a second computation.

Both oscillatory integrals have closed forms (Gradshteyn & Ryzhik 3.823),
with s = 1 + theta and t = theta - 1:
    G(lam)   = 2^(lam-2) pi / (Gamma(lam+1) sin(pi lam/2))
    D(theta) = 2^(s-1) pi (2^t - 1) / (2 Gamma(s+1) sin(pi t/2)),
and D has the removable limit log 2 at theta = 1.  2^t - 1 is formed by
expm1, so D keeps its relative accuracy next to theta = 1.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)

# math.gamma overflows float64 just above 171.62
_GAMMA_OVERFLOW = 171.7

# the relative residual every identity of identity_residuals stays within:
# the gate of `psimoments verify-identities` and of acceptance criterion 6
IDENTITY_GATE = 1e-10


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


def sin_squared_integral(lam: float) -> float:
    """int_0^inf sin(u)^2 / u^(1+lam) du for lam in [0.1, 2).

    2^(lam-2) pi / (Gamma(lam+1) sin(pi lam/2)); pi/2 at lam=1.
    The integral diverges at lam = 2.
    """
    if not 0.1 <= lam < 2.0:
        raise DomainError(f"exponent must lie in [0.1, 2), got {lam}")
    return 2.0 ** (lam - 2.0) * math.pi / (math.gamma(lam + 1.0) * math.sin(math.pi * lam / 2.0))


def sin_fourth_integral(theta: float) -> float:
    """int_0^inf sin(u)^4 / u^(2+theta) du for theta in (0, 2].

    With s = 1 + theta and t = theta - 1 this is
    2^(s-1) pi (2^t - 1) / (2 Gamma(s+1) sin(pi t/2)): pi/3 at theta=2,
    and the removable singularity at theta=1 takes the limit log 2.
    """
    if not 0.0 < theta <= 2.0:
        raise DomainError(f"exponent must lie in (0, 2], got {theta}")
    if theta == 1.0:
        return math.log(2.0)
    s, t = 1.0 + theta, theta - 1.0
    return (
        2.0 ** (s - 1.0)
        * math.pi
        * math.expm1(t * math.log(2.0))
        / (2.0 * math.gamma(s + 1.0) * math.sin(math.pi * t / 2.0))
    )


def double_factorial(m: int) -> int:
    """(m)!! for odd m >= -1; (k-1)!! counts pair matchings of k items."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def identity_residuals() -> list[tuple[str, float]]:
    """The identity suite: (name, relative residual) pairs, each comparing
    two different computations.  The duplication formula from z = 1/4 into
    its log-space range; gaussian_abs_moment against the textbook
    2^(lam/2) Gamma((lam+1)/2) / sqrt(pi), duplication at z = (lam+1)/2;
    the even moments against (2m-1)!!; the oscillatory integrals at pi/2
    and pi/3."""
    checks = [
        (f"duplication z={z:g}", duplication_residual(z))
        for z in (0.25, 0.5, 1.0, 2.5, 7.0, 10.0, 40.0, 85.0, 99.9, 100.0)
    ]
    pairs = [
        (f"Gaussian moment lambda={lam:g}", gaussian_abs_moment(lam),
         2.0 ** (lam / 2.0) * math.gamma((lam + 1.0) / 2.0) / SQRT_PI)
        for lam in (0.5, 1.0, 1.5, 2.0, 2.1, 3.0, 3.2, 4.3, 5.4, 5.5, 6.5)
    ] + [
        (f"even moment lambda={2 * m} vs {2 * m - 1}!!", gaussian_abs_moment(2.0 * m),
         double_factorial(2 * m - 1))
        for m in range(1, 11)
    ]
    pairs.append(("sin^2 integral lambda=1 vs pi/2", sin_squared_integral(1.0), math.pi / 2))
    pairs.append(("sin^4 integral theta=2 vs pi/3", sin_fourth_integral(2.0), math.pi / 3))
    return checks + [(name, abs(got - want) / want) for name, got, want in pairs]
