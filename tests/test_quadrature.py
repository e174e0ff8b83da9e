import math

import numpy as np
import pytest
import scipy.integrate

from fso_ber import IntegrandError, Tolerance, integrate
from fso_ber.channel import DerivedParams, gain_of, log_gain_window
from fso_ber.quadrature import POLE_ERROR


def test_constant_integrand():
    res = integrate(lambda x: 1.0, 0.0, 1.0, Tolerance(rel_tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_power_integrand_closed_form():
    exponent = 8.006 - 1.0
    res = integrate(lambda x: x**exponent, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 8.006, rel=1e-9)


def test_gaussian_integrand_closed_form():
    res = integrate(lambda x: math.exp(-x * x), 0.0, 6.0)
    expected = 0.5 * math.sqrt(math.pi) * math.erf(6.0)
    assert res.converged
    assert abs(res.value - expected) < 1e-9


def test_integrable_endpoint_singularity():
    res = integrate(lambda x: x**-0.5, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


@pytest.mark.parametrize("b", [0.3, 1.0, 4.7])
def test_endpoint_singularity_antiderivative(b):
    res = integrate(lambda x: x**-0.5, 0.0, b)
    assert res.converged
    assert res.value == pytest.approx(2.0 * math.sqrt(b), rel=1e-7)


def test_interval_additivity_random_smooth():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        coeffs = rng.normal(size=4)
        w = rng.uniform(0.5, 3.0)

        def f(x):
            return coeffs[0] + coeffs[1] * x + coeffs[2] * math.sin(w * x) + coeffs[3] * x * x

        pts = np.sort(rng.uniform(-5.0, 5.0, size=3))
        a, c, b = (float(p) for p in pts)
        if c - a < 1e-3 or b - c < 1e-3:
            continue
        whole = integrate(f, a, b)
        left = integrate(f, a, c)
        right = integrate(f, c, b)
        tol = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-12
        assert abs(left.value + right.value - whole.value) <= 10 * tol


def test_linearity_in_scalar():
    f = lambda x: math.exp(-x) * math.cos(3 * x)
    base = integrate(f, 0.0, 2.0)
    scaled = integrate(lambda x: -7.5 * f(x), 0.0, 2.0)
    assert scaled.value == pytest.approx(-7.5 * base.value, rel=1e-9)


def test_matches_scipy_oracle():
    cases = [
        (lambda x: math.exp(-x * x) * math.cos(x), -3.0, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0),
        (lambda x: x**2.5 * math.exp(-x), 0.0, 20.0),
    ]
    for f, a, b in cases:
        mine = integrate(f, a, b)
        ref, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11)
        assert mine.converged
        assert mine.value == pytest.approx(ref, rel=1e-8)


def test_converged_respects_tolerance_contract():
    tol = Tolerance(rel_tol=1e-8, abs_tol=1e-14)
    res = integrate(lambda x: math.sin(x) ** 2, 0.0, 7.0, tol)
    assert res.converged
    assert res.error_estimate <= max(tol.rel_tol * abs(res.value), tol.abs_tol)


def test_nan_integrand_reports_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(IntegrandError) as excinfo:
        integrate(f, 0.0, 1.0)
    assert 0.4 < excinfo.value.abscissa < 0.6


def test_budget_exhaustion_returns_unconverged():
    res = integrate(lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0,
                    Tolerance(rel_tol=1e-12, max_evaluations=300))
    assert not res.converged
    assert res.evaluations <= 300


def test_non_integrable_pole_stops_when_error_stops_shrinking():
    # each halving toward the pole keeps the endpoint interval's error at
    # POLE_ERROR; 10 free bisections plus 20 growing ones, one rule plus two each
    res = integrate(lambda x: 1.0 / x, 0.0, 1.0)
    assert not res.converged
    assert res.evaluations == 15 * (1 + 2 * 30)
    assert res.error_estimate == pytest.approx(POLE_ERROR, rel=1e-9)


@pytest.mark.parametrize("f, exact", [(lambda x: x**-0.5, 2.0), (math.log, -1.0)])
def test_integrable_endpoint_singularities_still_converge(f, exact):
    res = integrate(f, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_tol=1e-15)
    with pytest.raises(ValueError):
        Tolerance(rel_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        Tolerance(max_evaluations=10)


def _degenerate_derived(sigma_x_sq):
    a0, h_l = 1.2745287784456591e-3, 0.85853894423298793
    gamma_sq = 8.006161312523107
    mu = 2.0 * sigma_x_sq * (1.0 + 2.0 * gamma_sq)
    return DerivedParams(
        h_l=h_l, v=0.031648951810298424, a0=a0, omega_z_eq_m=1.9806610085724147,
        gamma=math.sqrt(gamma_sq), gamma_sq=gamma_sq, sigma_x_sq=sigma_x_sq,
        mu=mu, h_hat=a0 * h_l * math.exp(-mu),
    )


def truncation_bound(d):
    """The gain at the upper end of the BER integration window."""
    return gain_of(log_gain_window(d)[1], d)


def test_truncation_bound_degenerate_limit():
    d = _degenerate_derived(1e-30)
    assert truncation_bound(d) == pytest.approx(d.a0 * d.h_l, rel=1e-12)


def test_truncation_bound_case1_value(deriveds):
    d = deriveds["case1"]
    expected = d.a0 * d.h_l * math.exp(6.0 * math.sqrt(8.0 * 0.025) - 2.0 * 0.025)
    assert truncation_bound(d) == pytest.approx(expected, rel=1e-14)
    assert truncation_bound(d) == pytest.approx(0.015231031019036306, rel=1e-12)


def test_truncation_bound_exceeds_split_gain(deriveds):
    for d in deriveds.values():
        assert truncation_bound(d) > d.h_hat
