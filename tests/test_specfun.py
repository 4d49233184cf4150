import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimoments.errors import DomainError, QuadratureError
from psimoments.predictions import double_factorial
from psimoments.specfun import (
    DEFAULT_VERIFIER,
    VerifierConfig,
    duplication_residual,
    gamma,
    gaussian_abs_moment,
    moment_constant_residual,
    sin_fourth_integral,
    sin_power_coefficients,
    sin_squared_integral,
    upper_gamma,
)

# high precision reference values, series head on [0,1] plus panelled
# quadrature with the oscillatory tail split off analytically
G_REFERENCE = {
    0.1: 5.6561349870924083,
    0.5: 1.772453850905516,  # sqrt(pi)
    1.0: 1.5707963267948966,  # pi/2
    1.5: 2.3632718012073547,
    1.9: 10.253956878153775,
}
D_REFERENCE = {
    0.25: 0.72345390733253999,
    0.5: 0.6921862847866877,
    1.0: 0.69314718055994531,  # log 2
    1.5: 0.78311938530718344,
    2.0: 1.0471975511965977,  # pi/3
}


def test_gamma_known_values():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(7.5) == pytest.approx(1871.2543057977883, rel=1e-13)


def test_gamma_recurrence_grid():
    for x in np.linspace(0.2, 80.0, 101):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(float(x)), rel=1e-13)


def test_gamma_overflow_and_domain():
    assert math.isinf(gamma(180.0))
    assert not math.isinf(gamma(170.0))
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)
    with pytest.raises(DomainError):
        gamma(200.5)


def test_gaussian_moments_small():
    assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("m", range(1, 11))
def test_gaussian_even_moments_double_factorial(m):
    want = float(double_factorial(2 * m - 1))
    assert gaussian_abs_moment(2.0 * m) == pytest.approx(want, rel=1e-10)


def test_double_factorial_values():
    assert [double_factorial(m) for m in (-1, 1, 3, 5, 7, 9)] == [1, 1, 3, 15, 105, 945]


@pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 2.5, 7.0, 10.0, 40.0, 85.0, 99.9])
def test_duplication_residual_grid(z):
    # the residual for 2z past the float overflow point runs in log space
    assert duplication_residual(z) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.1, 3.2, 4.3, 5.4, 6.5])
def test_moment_constant_chain(lam):
    assert moment_constant_residual(lam) < 1e-10


def test_sin_squared_coefficients():
    # sin^2 u = u^2 - u^4/3 + 2u^6/45 - u^8/315 + ...
    c = sin_power_coefficients(2, 4)
    assert len(c) - 1 == 8
    assert c[2] == pytest.approx(1.0, rel=1e-15)
    assert c[4] == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert c[6] == pytest.approx(2.0 / 45.0, rel=1e-15)
    assert c[8] == pytest.approx(-1.0 / 315.0, rel=1e-15)
    assert c[0] == c[1] == c[3] == 0.0


def test_sin_fourth_coefficients():
    # sin^4 u = u^4 - (2/3)u^6 + (1/5)u^8 - ...
    c = sin_power_coefficients(4, 3)
    assert len(c) - 1 == 8
    assert c[4] == pytest.approx(1.0, rel=1e-15)
    assert c[6] == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert c[8] == pytest.approx(1.0 / 5.0, rel=1e-15)


@pytest.mark.parametrize(
    "power,n_terms,gate",
    [(2, 10, 1e-12), (4, 10, 1e-10)],
)
def test_truncation_sup_error(power, n_terms, gate):
    # n_terms counts retained terms, so the last kept degree is
    # 2*n_terms for sin^2 and 2*n_terms + 2 for sin^4
    u = np.linspace(0.0, 1.0, 20001)
    c = sin_power_coefficients(power, n_terms)
    vals = np.polynomial.polynomial.polyval(u, c)
    sup = float(np.max(np.abs(vals - np.sin(u) ** power)))
    assert sup <= gate


def test_truncation_error_shrinks_with_terms():
    u = np.linspace(0.0, 1.0, 2001)
    sups = []
    for n in (2, 4, 6, 8):
        c = sin_power_coefficients(4, n)
        sups.append(float(np.max(np.abs(np.polynomial.polynomial.polyval(u, c) - np.sin(u) ** 4))))
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] < 1e-6 * sups[0]


def test_coefficients_validation():
    with pytest.raises(DomainError):
        sin_power_coefficients(3, 5)
    with pytest.raises(DomainError):
        sin_power_coefficients(2, 0)


@pytest.mark.parametrize("lam,want", sorted(G_REFERENCE.items()))
def test_sin_squared_integral_grid(lam, want):
    assert sin_squared_integral(lam) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("theta,want", sorted(D_REFERENCE.items()))
def test_sin_fourth_integral_grid(theta, want):
    assert sin_fourth_integral(theta) == pytest.approx(want, rel=1e-10)


def test_sin_squared_scaling_in_omega():
    # int sin^2(c u) / u^(1+lam) du = c^lam * G_lam
    for lam in (0.3, 0.8, 1.3, 1.8):
        base = sin_squared_integral(lam)
        for c in (0.5, 2.0, 4.0):
            got = sin_squared_integral(lam, omega=c)
            assert got == pytest.approx(c**lam * base, rel=1e-9)


def test_sin_fourth_scaling_in_omega():
    for theta in (0.5, 1.0, 1.5):
        base = sin_fourth_integral(theta)
        for c in (0.5, 2.0):
            got = sin_fourth_integral(theta, omega=c)
            assert got == pytest.approx(c ** (1.0 + theta) * base, rel=1e-9)


def test_integral_converges_under_cutoff_doubling():
    for lam in (0.5, 1.0, 1.7):
        a = sin_squared_integral(lam, VerifierConfig(osc_cutoff_periods=100))
        b = sin_squared_integral(lam, VerifierConfig(osc_cutoff_periods=200))
        assert a == pytest.approx(b, rel=1e-10)
    for theta in (0.5, 1.5):
        a = sin_fourth_integral(theta, VerifierConfig(osc_cutoff_periods=100))
        b = sin_fourth_integral(theta, VerifierConfig(osc_cutoff_periods=200))
        assert a == pytest.approx(b, rel=1e-10)


def test_integral_domain_limits():
    with pytest.raises(DomainError):
        sin_squared_integral(2.0)  # diverges at the upper end
    with pytest.raises(DomainError):
        sin_squared_integral(0.05)
    with pytest.raises(DomainError):
        sin_fourth_integral(0.0)
    with pytest.raises(DomainError):
        sin_fourth_integral(2.5)


def test_verifier_config_validation():
    with pytest.raises(ValueError):
        VerifierConfig(quad_rel_tol=0.0)
    with pytest.raises(ValueError):
        VerifierConfig(osc_cutoff_periods=1)
    assert DEFAULT_VERIFIER.quad_rel_tol == 1e-8


@settings(deadline=None, max_examples=40)
@given(x=st.floats(min_value=0.2, max_value=80.0))
def test_gamma_recurrence_property(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(lam=st.floats(min_value=0.15, max_value=1.95))
def test_sin_squared_positive_and_stable(lam):
    v = sin_squared_integral(lam)
    assert v > 0.0
    assert math.isfinite(v)


def test_upper_gamma_half_integers():
    mpmath = pytest.importorskip("mpmath")
    for s in (0.5, 1.5, 2.5, 3.5, 7.5, 30.5):
        for z in (0.0, 1e-3, 0.7, 5.0, 40.0, 300.0):
            # math.erfc's far tail limits s = 1/2 at z = 300 to 6e-14
            want = mpmath.gammainc(s, z)
            assert abs(upper_gamma(s, z) - want) <= 1e-13 * want, (s, z)
    for s, z in ((1.0, 1.0), (0.0, 1.0), (-0.5, 1.0), (2.5, -1.0)):
        with pytest.raises(DomainError):
            upper_gamma(s, z)
