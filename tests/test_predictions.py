import math

import pytest

from psimoments.errors import DomainError
from psimoments.predictions import (
    B_CONSTANT,
    C0,
    E_CONSTANT,
    WidthRangeWarning,
    even_main_b_fixed,
    even_main_b_scaled,
    fixed_main_term,
    fixed_refined_term,
    odd_normalizer,
    scaled_main_term,
    scaled_refined_term,
)
from psimoments.specfun import double_factorial


def test_constants_derive_from_euler():
    assert C0 == pytest.approx(0.57721566490153286061, rel=1e-16)
    assert B_CONSTANT == pytest.approx(-1.4150927313108783, rel=1e-15)
    assert E_CONSTANT == pytest.approx(4.1168682108590406, rel=1e-15)
    # E and B both reduce to C0
    assert E_CONSTANT == pytest.approx(2 * math.pi * math.exp(C0 - 1), rel=1e-16)
    assert B_CONSTANT == pytest.approx(1 - C0 - math.log(2 * math.pi), rel=1e-16)


def test_fixed_main_term_value():
    # mu(1) X sqrt(h log(X/h)) at X=1e8, h=1e4
    got = fixed_main_term(1e8, 1e4, 1.0)
    assert got == pytest.approx(24214633573.596403, rel=1e-12)
    mu1 = math.sqrt(2.0 / math.pi)
    assert got == pytest.approx(mu1 * 1e8 * math.sqrt(1e4 * math.log(1e4)), rel=1e-14)


def test_fixed_refined_term_closed_form():
    # for order 2 the t integral is (T-1)e^T + 1 exactly
    X, h = 1e8, 1e4
    T = math.log(X / (h * E_CONSTANT))
    want = h**2 * E_CONSTANT * ((T - 1.0) * math.exp(T) + 1.0)
    got = fixed_refined_term(X, h, 2.0)
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(6795659327486.3903, rel=1e-10)
    assert got == pytest.approx(6.7957e12, rel=1e-4)


def test_scaled_refined_term_desk_value():
    got = scaled_refined_term(1e8, 1e-4, 1.0)
    assert got == pytest.approx(14851275708.091389, rel=1e-12)
    assert got == pytest.approx(1.4851e10, rel=5e-5)


def test_refined_to_main_ratio():
    # the refinement only swaps log(1/delta) for log(1/(E delta))
    for lam in (1.0, 2.1, 3.2, 6.5):
        X, d = 1e8, 1e-4
        want = (math.log(1 / (E_CONSTANT * d)) / math.log(1 / d)) ** (lam / 2)
        assert scaled_refined_term(X, d, lam) / scaled_main_term(X, d, lam) == pytest.approx(
            want, rel=1e-12
        )


def test_even_main_b_fixed_by_parts():
    # k=2: h int_1^X (log(x/h) + B) dx has an elementary antiderivative
    X, h = 1e6, 100.0
    want = h * (
        X * math.log(X) - X + 1.0 - (math.log(h) - B_CONSTANT) * (X - 1.0)
    )
    got = even_main_b_fixed(X, h, 2)
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(679525466.09282217, rel=1e-10)
    assert got == pytest.approx(6.79526e8, rel=1e-5)


def test_even_main_b_scaled_value():
    got = even_main_b_scaled(1e8, 1e-4, 6)
    want = 15.0 / 4.0 * (1e8) ** 4 * (1e-4) ** 3 * (math.log(1e4) + B_CONSTANT) ** 3
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(1.7763192290775377e23, rel=1e-12)


def test_odd_normalizer_is_scaled_main():
    for n in (1, 3, 5):
        assert odd_normalizer(1e8, 1e-4, n) == scaled_main_term(1e8, 1e-4, float(n))
    assert odd_normalizer(1e8, 1e-4, 5) == pytest.approx(4.6951687310547218e20, rel=1e-12)


def test_odd_normalizer_rejects_even():
    with pytest.raises(DomainError):
        odd_normalizer(1e8, 1e-4, 2)
    with pytest.raises(DomainError):
        odd_normalizer(1e8, 1e-4, 0)
    with pytest.raises(DomainError):
        odd_normalizer(1e8, 1e-4, -3)


def test_even_forms_reject_odd_orders():
    with pytest.raises(DomainError):
        even_main_b_fixed(1e6, 100.0, 3)
    with pytest.raises(DomainError):
        even_main_b_scaled(1e6, 1e-3, 1)


def test_width_domain_errors():
    with pytest.raises(DomainError):
        fixed_main_term(1e6, 1e6, 1.0)
    with pytest.raises(DomainError):
        fixed_main_term(1e6, 0.0, 1.0)
    with pytest.raises(DomainError):
        scaled_main_term(1e6, 1.0, 1.0)
    with pytest.raises(DomainError):
        scaled_main_term(1e6, 0.0, 1.0)
    # refined forms additionally need room for the E shift; these widths
    # also lie outside the asymptotic band, which warns before the error
    with pytest.raises(DomainError), pytest.warns(WidthRangeWarning):
        fixed_refined_term(100.0, 50.0, 1.0)
    with pytest.raises(DomainError), pytest.warns(WidthRangeWarning):
        scaled_refined_term(1e6, 0.5, 1.0)


def test_width_range_warning():
    with pytest.warns(WidthRangeWarning):
        fixed_main_term(1e8, 2.0, 1.0)  # far below log X
    with pytest.warns(WidthRangeWarning):
        scaled_main_term(1e8, 0.1, 1.0)  # above 1/log X
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed_main_term(1e8, 1e4, 1.0)  # comfortably inside the band
        scaled_main_term(1e8, 1e-4, 1.0)


def test_double_factorial_sequence():
    assert [double_factorial(2 * m - 1) for m in range(1, 6)] == [1, 3, 15, 105, 945]


def test_main_term_monotone_in_order():
    # at desk scale h log(X/h) >> 1, so higher orders dominate
    vals = [fixed_main_term(1e8, 1e4, lam) for lam in (1.0, 2.0, 3.0, 4.0)]
    assert vals == sorted(vals)


@pytest.mark.filterwarnings("ignore::psimoments.predictions.WidthRangeWarning")
def test_closed_forms_against_mpmath():
    # 40-digit quadrature of each substituted integral; the float forms are
    # series and incomplete gamma recurrences, so nothing is shared
    mpmath = pytest.importorskip("mpmath")
    from psimoments.equivalence import _width_integral

    mpf = mpmath.mpf
    with mpmath.workdps(40):
        euler = mpmath.euler
        E = 2 * mpmath.pi * mpmath.exp(euler - 1)
        B = 1 - euler - mpmath.log(2 * mpmath.pi)

        def mu(o):
            o = mpf(o)
            return mpmath.gamma(o + 1) / (mpmath.gamma(o / 2 + 1) * 2 ** (o / 2))

        def t_integral(a, lo, hi):
            # int_lo^hi t^a e^t dt, split at 0 and at unit steps
            steps = (mpf(i) for i in range(int(lo), int(hi) + 1) if lo < i < hi)
            pts = sorted({lo, hi, *steps})
            return mpmath.quad(lambda t: t**a * mpmath.exp(t), pts)

        def refined(X, h, o):
            a = mpf(o) / 2
            return mu(o) * mpf(h) ** (a + 1) * E * t_integral(a, 0, mpmath.log(X / (h * E)))

        def even_b(X, h, k):
            m = k // 2
            lo, hi = B - mpmath.log(h), mpmath.log(mpf(X) / h) + B
            integral = mpf(h) * mpmath.exp(-B) * t_integral(m, lo, hi)
            return mpmath.fac2(k - 1) * mpf(h) ** m * integral

        def width(X, d, n):
            # (1/2) C_n X^(n/2+1) int_0^d u^(n/2) log(1/u)^(n/2) du, u = e^-v
            s = mpf(n) / 2 + 1
            tail = mpmath.quad(
                lambda v: v ** (s - 1) * mpmath.exp(-s * v), [-mpmath.log(d), mpmath.inf]
            )
            return mu(n) / s / 2 * mpf(X) ** s * tail

        refined_cases = [(1e8, 1e4, 1), (1e8, 1e4, 2), (1e6, 50, 3), (1e6, 1000, 3),
                         (1e10, 23, 6.5), (100, 5, 2.1)]
        even_cases = [(1e6, 100, 2), (1e6, 100, 8), (1e8, 1e4, 4), (1e10, 1e5, 6),
                      # high orders at large and small X/h, and t0 > 0 (h < e^B)
                      (1e8, 1e4, 20), (1e4, 100, 40), (50, 10, 60), (1e3, 0.01, 8)]
        width_cases = [(1e6, 1e-2, 3), (1e5, 1e-3, 1), (1e10, 1e-5, 3),
                       # the head bounds: d = Delta/100
                       (1e6, 1e-4, 3), (1e5, 1e-5, 1), (1e10, 1e-7, 3)]
        cases = [
            (fixed_refined_term, refined, refined_cases),
            (even_main_b_fixed, even_b, even_cases),
            (_width_integral, width, width_cases),
        ]
        for fn, oracle, args in cases:
            for X, w, o in args:
                want = oracle(mpf(X), mpf(w), o)
                rel = abs((fn(X, w, o) - want) / want)
                assert rel < 1e-13, (fn.__name__, X, w, o, float(rel))
