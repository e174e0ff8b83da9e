import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from fso_ber import (
    GeometryError,
    LinkParams,
    PRESETS,
    RegimeError,
    Tolerance,
    dbm_to_watts,
    derive,
    integrate,
    log_gain_pdf,
    pdf_h,
    sample_h,
)
from fso_ber.channel import DerivedParams, gain_of, log_gain_of, log_gain_window
from fso_ber.montecarlo import draw_gains

mp.mp.dps = 40

# regression pins for the three operating points (validated independently by
# the hand-calculation, identity, high-precision-pdf, and Monte Carlo tests)
FROZEN = {
    "case1": dict(gamma_sq=8.006161312523107, mu=0.8506161312523107, h_hat=4.6740327827524174e-4),
    "case2": dict(gamma_sq=15.692076172545285, mu=8.096038086272642, h_hat=3.3346094761577015e-7),
    "case3": dict(gamma_sq=24.518869019602004, mu=22.516982117641803, h_hat=1.8201557976015352e-13),
}


def test_derive_case1_matches_hand_calculation(deriveds):
    d = deriveds["case1"]
    assert d.h_l == pytest.approx(0.8585, abs=5e-5)
    assert d.v == pytest.approx(0.031649, abs=1e-6)
    assert d.a0 == pytest.approx(1.2745e-3, rel=1e-4)
    assert d.omega_z_eq_m == pytest.approx(1.9806, abs=1e-4)
    assert d.gamma == pytest.approx(2.8295, abs=1e-4)
    assert d.gamma_sq == pytest.approx(8.006, abs=1e-3)
    assert d.sigma_x_sq == 0.025
    assert d.mu == pytest.approx(0.8506, abs=1e-4)
    assert d.h_hat == pytest.approx(4.674e-4, rel=1e-3)


@pytest.mark.parametrize("case", list(FROZEN))
def test_derive_frozen_chain(case, deriveds):
    d = deriveds[case]
    ref = FROZEN[case]
    assert d.gamma_sq == pytest.approx(ref["gamma_sq"], rel=1e-12)
    assert d.mu == pytest.approx(ref["mu"], rel=1e-12)
    assert d.h_hat == pytest.approx(ref["h_hat"], rel=1e-12)


def test_derive_exact_identities(deriveds):
    for d in deriveds.values():
        assert d.mu == 2.0 * d.sigma_x_sq * (1.0 + 2.0 * d.gamma_sq)
        assert d.h_hat == d.a0 * d.h_l * math.exp(-d.mu)
        assert 0.0 < d.h_hat < d.a0 * d.h_l
        assert d.a0 == math.erf(d.v) ** 2


def test_derive_scale_consistency(links):
    base = links["case1"]
    d1 = derive(base)
    doubled = LinkParams(**{**PRESETS["case1"], "aperture_radius_m": 0.1, "beam_waist_m": 3.96})
    d2 = derive(doubled)
    assert d2.v == pytest.approx(d1.v, rel=1e-14)
    assert d2.a0 == pytest.approx(d1.a0, rel=1e-14)
    assert d2.omega_z_eq_m == pytest.approx(2.0 * d1.omega_z_eq_m, rel=1e-12)


def test_regime_rejection():
    with pytest.raises(RegimeError, match="weak-turbulence"):
        LinkParams(**{**PRESETS["case1"], "rytov_variance": 1.5})


def test_geometry_rejection():
    params = LinkParams(**{**PRESETS["case1"], "aperture_radius_m": 2.5})
    with pytest.raises(GeometryError):
        derive(params)


@pytest.mark.parametrize("fields", [
    dict(attenuation_db_per_km=400.0, link_length_km=1000.0),
    dict(aperture_radius_m=1e-170),
])
def test_derive_refuses_a_peak_gain_that_underflows(fields):
    # with A0 h_l = 0 no gain has a logarithm, and each BER method would fail
    # with "math domain error"
    with pytest.raises(RegimeError, match="A0 h_l underflows to 0") as excinfo:
        derive(LinkParams(**{**PRESETS["case1"], **fields}))
    for name in ("attenuation_db_per_km", "link_length_km", "aperture_radius_m",
                 "beam_waist_m"):
        assert name in str(excinfo.value)
    # a loss of 3000 dB still leaves a gain that double precision holds
    edge = derive(LinkParams(**{**PRESETS["case1"], "attenuation_db_per_km": 1.0,
                                "link_length_km": 3000.0}))
    assert edge.h_l == 1e-300 and edge.a0_h_l > 0.0


@pytest.mark.parametrize("fields", [
    dict(pointing_std_m=1e200),  # gamma^2 underflows, so beta = 0
    dict(rytov_variance=5e-324),  # sigma_X^2 = rytov / 4 underflows, so beta = 0
    dict(pointing_std_m=1e155),  # beta = 4.4e-311, and 120 / beta overflows
    dict(pointing_std_m=1e-200),  # gamma^2 overflows, so beta = inf
    dict(beam_waist_m=1e200, aperture_radius_m=1e199),  # the waist squared overflows
], ids=repr)
def test_derive_refuses_a_beta_that_leaves_no_finite_window(fields):
    # each BER method failed with "float division by zero", "integration limits
    # must be finite" or, from derive itself, "Numerical result out of range"
    match = r"^beta = .* has no finite log-gain window at "
    with pytest.raises(RegimeError, match=match) as excinfo:
        derive(LinkParams(**{**PRESETS["case1"], **fields}))
    for name in ("pointing_std_m", "rytov_variance", "beam_waist_m", "aperture_radius_m"):
        assert f"{name} = " in str(excinfo.value)
    for name, value in fields.items():
        assert f"{name} = {value!r}" in str(excinfo.value)


def test_pointing_std_must_be_positive_and_finite():
    # and so must every other field, with 0 allowed for attenuation alone and
    # rytov_variance held to (0, 1]; the error names the field
    for name in PRESETS["case1"]:
        out_of_range = (-1.0, 1.5) if name == "rytov_variance" else (-1.0,)
        zero = () if name == "attenuation_db_per_km" else (0.0, 0)
        for value in (None, "0.1", True, False, math.nan, math.inf, -math.inf,
                      10**400, -10**400, *out_of_range, *zero):
            with pytest.raises(ValueError, match=name):
                LinkParams(**{**PRESETS["case1"], name: value})
        # numpy scalars and ints are numbers
        for value in (np.float64(PRESETS["case1"][name]), 1):
            LinkParams(**{**PRESETS["case1"], name: value})
    with pytest.raises(RegimeError, match=r"^rytov_variance = 0 outside the weak-turbulence"):
        LinkParams(**{**PRESETS["case1"], "rytov_variance": 0})
    LinkParams(**{**PRESETS["case1"], "attenuation_db_per_km": 0.0})


def test_link_params_raise_at_the_first_bad_field():
    # a RunConfig or a config file names every bad field; the constructor the first
    with pytest.raises(ValueError, match=r"^noise_std: must be > 0 \(got -1e-07\)$"):
        LinkParams(**{**PRESETS["case1"], "noise_std": -1e-7, "rytov_variance": 2})


def test_pdf_zero_outside_support(deriveds):
    d = deriveds["case1"]
    assert pdf_h(-1.0, d) == 0.0
    assert pdf_h(0.0, d) == 0.0


def test_pdf_at_split_gain_closed_form(deriveds):
    # at h_hat the density's erfc argument vanishes and erfc(0) = 1
    d = deriveds["case1"]
    expected = (
        d.gamma_sq / (2.0 * (d.a0 * d.h_l) ** d.gamma_sq)
        * d.h_hat ** (d.gamma_sq - 1.0)
        * math.exp(2.0 * d.sigma_x_sq * d.gamma_sq * (1.0 + d.gamma_sq))
    )
    assert pdf_h(d.h_hat, d) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", ("case1", "case3"))
def test_pdf_matches_high_precision_formula(case, deriveds):
    """Literal textbook-form density evaluated at 40 digits vs the stable path."""
    d = deriveds[case]
    a0hl = mp.mpf(d.a0) * mp.mpf(d.h_l)
    g2 = mp.mpf(d.gamma_sq)
    sx2 = mp.mpf(d.sigma_x_sq)
    mu = mp.mpf(d.mu)
    mode = float(a0hl * mp.e ** (-2 * sx2))
    for h in (0.3 * mode, mode, 3.0 * mode, 20.0 * mode):
        hh = mp.mpf(h)
        expected = (
            g2 / (2 * a0hl**g2) * hh ** (g2 - 1)
            * mp.erfc((mp.log(hh / a0hl) + mu) / mp.sqrt(8 * sx2))
            * mp.e ** (2 * sx2 * g2 * (1 + g2))
        )
        assert pdf_h(h, d) == pytest.approx(float(expected), rel=1e-11)


def test_pdf_normalizes_case1(deriveds):
    d = deriveds["case1"]
    h_max = gain_of(log_gain_window(d)[1], d)
    mode = d.a0 * d.h_l * math.exp(-2.0 * d.sigma_x_sq)
    total = 0.0
    for a, b in zip([0.0, d.h_hat, mode], [d.h_hat, mode, h_max]):
        res = integrate(lambda h: pdf_h(h, d), a, b, Tolerance(rel_tol=1e-10))
        assert res.converged
        total += res.value
    assert total == pytest.approx(1.0, abs=1e-8)


def test_log_gain_density_normalizes(deriveds):
    d = deriveds["case2"]
    lo, hi = log_gain_window(d)
    total = 0.0
    for a, b in zip([lo, 0.0, d.beta / 2.0], [0.0, d.beta / 2.0, hi]):
        total += integrate(lambda v: log_gain_pdf(v, d), a, b).value
    assert total == pytest.approx(1.0, abs=1e-9)


def test_log_gain_mapping_roundtrip(deriveds):
    d = deriveds["case1"]
    for h in (1e-5, d.h_hat, 3e-3):
        assert gain_of(log_gain_of(h, d), d) == pytest.approx(h, rel=1e-12)


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-14)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)


def test_sampling_deterministic(deriveds):
    d = deriveds["case1"]
    a = sample_h(d, 50_000, seed=99)
    b = sample_h(d, 50_000, seed=99)
    assert np.array_equal(a, b)
    c = sample_h(d, 50_000, seed=100)
    assert not np.array_equal(a, c)


def test_sampling_spans_batches(deriveds):
    d = deriveds["case1"]
    full = sample_h(d, 1_200_000, seed=5)
    assert full.shape == (1_200_000,)
    # leading batch is identical to a single-batch request
    head = sample_h(d, 1_000_000, seed=5)
    assert np.array_equal(full[:1_000_000], head)


def _three_normal_gains(rng, d, n):
    """The direct construction: X ~ N(-sigma_X^2, sigma_X^2) for the fading and
    a radial offset from two standard normals for the pointing loss."""
    x = rng.normal(-d.sigma_x_sq, math.sqrt(d.sigma_x_sq), n)
    xn = rng.standard_normal(n)
    yn = rng.standard_normal(n)
    return np.exp(2.0 * x) * d.a0 * np.exp(-(xn * xn + yn * yn) / (2.0 * d.gamma_sq)) * d.h_l


@pytest.mark.parametrize("case", ["case1", "case2", "case3", "beta1e3"])
def test_draw_gains_matches_three_normal_construction(case, deriveds):
    if case == "beta1e3":
        # rytov_variance 0.5 makes sqrt(8 sigma_X^2) = 1, so beta = gamma^2 = 1e3
        omega = deriveds["case2"].omega_z_eq_m
        d = derive(LinkParams(**{**PRESETS["case2"],
                                 "pointing_std_m": omega / (2.0 * math.sqrt(1e3))}))
        assert d.beta == pytest.approx(1e3, rel=1e-9)
    else:
        d = deriveds[case]
    n = 200_000
    fast = draw_gains(np.random.default_rng(2024), d, n, np.empty(n), np.empty(n))
    direct = _three_normal_gains(np.random.default_rng(4202), d, n)
    assert ks_2samp(fast, direct).pvalue > 0.01


def _pinned_pointing(sigma_x_sq=0.025, gamma_sq=8.006161312523107):
    mu = 2.0 * sigma_x_sq * (1.0 + 2.0 * gamma_sq)
    return DerivedParams(
        h_l=1.0, v=0.03, a0=1.0, omega_z_eq_m=1.98, gamma=math.sqrt(gamma_sq),
        gamma_sq=gamma_sq, sigma_x_sq=sigma_x_sq, mu=mu, h_hat=math.exp(-mu),
    )


def test_turbulence_factor_has_unit_mean():
    # enormous gamma pins the pointing factor at a0, isolating the fading term
    d = _pinned_pointing(gamma_sq=1e18)
    h = sample_h(d, 200_000, seed=11)
    assert abs(h.mean() - 1.0) < 0.01


def test_degenerate_limits_collapse_to_constant():
    d = _pinned_pointing(sigma_x_sq=1e-30, gamma_sq=1e18)
    h = sample_h(d, 10_000, seed=3)
    np.testing.assert_allclose(h, d.a0 * d.h_l, rtol=1e-6)


def test_pointing_factor_never_exceeds_peak_collection():
    d = _pinned_pointing(sigma_x_sq=1e-30)  # fading pinned at 1
    h = sample_h(d, 100_000, seed=21)
    assert h.max() <= d.a0 * d.h_l * (1.0 + 1e-9)


def test_pointing_factor_cdf():
    # with fading pinned, h / (a0 h_l) is the pointing factor; its CDF is t^(gamma^2)
    d = _pinned_pointing(sigma_x_sq=1e-30)
    t = sample_h(d, 20_000, seed=31) / (d.a0 * d.h_l)
    res = kstest(t, lambda x: np.clip(x, 0.0, 1.0) ** d.gamma_sq)
    assert res.pvalue > 0.01


def test_composite_samples_match_quadrature_cdf(deriveds):
    d = deriveds["case1"]
    h = sample_h(d, 20_000, seed=41)
    v = (np.log(h / (d.a0 * d.h_l)) + d.mu) / d.log_gain_scale
    lo = log_gain_window(d)[0]
    grid = np.linspace(v.min() - 0.5, v.max() + 0.5, 1501)
    seg = [integrate(lambda t: log_gain_pdf(t, d), lo, grid[0]).value]
    for a, b in zip(grid[:-1], grid[1:]):
        seg.append(integrate(lambda t: log_gain_pdf(t, d), a, b,
                             Tolerance(rel_tol=1e-8, abs_tol=1e-13)).value)
    cdf_grid = np.cumsum(seg)
    res = kstest(v, lambda x: np.interp(x, grid, cdf_grid))
    assert res.pvalue > 0.01
