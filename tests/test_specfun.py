import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimoments import specfun
from psimoments.errors import DomainError
from psimoments.specfun import (
    double_factorial,
    duplication_residual,
    gaussian_abs_moment,
    identity_residuals,
    sin_fourth_integral,
    sin_squared_integral,
    upper_gamma,
)

# high precision reference values, frozen from a series head on [0,1] plus
# panelled quadrature with the oscillatory tail split off analytically
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


def test_gaussian_moments_small():
    assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)


def test_double_factorial_values():
    assert [double_factorial(m) for m in (-1, 1, 3, 5, 7, 9)] == [1, 1, 3, 15, 105, 945]


@pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 2.5, 7.0, 10.0, 40.0, 85.0, 99.9])
def test_duplication_residual_grid(z):
    # the residual for 2z past the float overflow point runs in log space
    assert duplication_residual(z) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.1, 3.2, 4.3, 5.4, 6.5])
def test_gaussian_moment_textbook_form(lam):
    # E|Z|^lam = 2^(lam/2) Gamma((lam+1)/2) / sqrt(pi), one gamma against two
    textbook = 2.0 ** (lam / 2.0) * math.gamma((lam + 1.0) / 2.0) / math.sqrt(math.pi)
    assert gaussian_abs_moment(lam) == pytest.approx(textbook, rel=1e-10)


def test_identity_checks_are_not_true_by_construction(monkeypatch):
    # each check compares two different computations, so a relative error
    # of 1e-6 in one of them shows in its residual
    names = [name for name, _ in identity_residuals()]
    assert len(set(names)) == len(names)
    gaussian = {n for n in names if n.startswith("Gaussian moment")}
    even = {n for n in names if n.startswith("even moment")}
    assert gaussian and even
    eps = 1e-6

    def failing():
        return {name for name, resid in identity_residuals() if resid > 1e-8}

    with monkeypatch.context() as m:
        # one gamma, scaled: the log-space duplication branch reads lgamma
        gamma, lgamma = math.gamma, math.lgamma
        m.setattr(math, "gamma", lambda x: gamma(x) * (1 + eps))
        m.setattr(math, "lgamma", lambda x: lgamma(x) + math.log1p(eps))
        assert failing() >= set(names) - even
    with monkeypatch.context() as m:
        moment = specfun.gaussian_abs_moment
        m.setattr(specfun, "gaussian_abs_moment", lambda lam: moment(lam) * (1 + eps))
        assert failing() >= gaussian | even
    assert not failing()


@pytest.mark.parametrize("lam,want", sorted(G_REFERENCE.items()))
def test_sin_squared_integral_grid(lam, want):
    assert sin_squared_integral(lam) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("theta,want", sorted(D_REFERENCE.items()))
def test_sin_fourth_integral_grid(theta, want):
    assert sin_fourth_integral(theta) == pytest.approx(want, rel=1e-10)


def test_oscillatory_integrals_against_mpmath():
    # 20-digit quadrature that shares nothing with the closed forms.  On
    # [0, 1] the sin^2 integrand loses its u^2 term, integrated exactly, so
    # lam near 2 converges.  On [1, inf) sin^2 = (1 - cos 2u)/2 and
    # sin^4 = 3/8 - cos(2u)/2 + cos(4u)/8: the power terms integrate
    # exactly and quadosc sees only the cosines, which average to zero.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def cos_tail(a, s):
        return mp.quadosc(lambda u: mp.cos(a * u) / u**s, [1, mp.inf], omega=a)

    def g_ref(lam):
        s = 1 + mp.mpf(lam)
        head = mp.quad(lambda u: (mp.sin(u) ** 2 - u**2) / u**s, [0, 1]) + 1 / (3 - s)
        return head + 1 / (2 * (s - 1)) - cos_tail(2, s) / 2

    def d_ref(theta):
        s = 2 + mp.mpf(theta)
        head = mp.quad(lambda u: mp.sin(u) ** 4 / u**s, [0, 1])
        return head + mp.mpf(3) / (8 * (s - 1)) - cos_tail(2, s) / 2 + cos_tail(4, s) / 8

    with mp.workdps(20):
        for lam in (0.1, 1.0, 1.99):
            want = g_ref(lam)
            assert abs(sin_squared_integral(lam) - want) <= 1e-13 * want, lam
        for theta in (0.05, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0):
            want = d_ref(theta)
            assert abs(sin_fourth_integral(theta) - want) <= 1e-13 * want, theta


def test_integral_domain_limits():
    with pytest.raises(DomainError):
        sin_squared_integral(2.0)  # diverges at the upper end
    with pytest.raises(DomainError):
        sin_squared_integral(0.05)
    with pytest.raises(DomainError):
        sin_fourth_integral(0.0)
    with pytest.raises(DomainError):
        sin_fourth_integral(2.5)


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
