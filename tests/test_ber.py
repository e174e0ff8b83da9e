import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_ber import (
    PRESETS,
    LinkParams,
    NonConvergenceError,
    Tolerance,
    ber_approx_new,
    ber_approx_prev,
    ber_conditional,
    ber_exact,
    dbm_to_watts,
    derive,
    mc_ber,
    sweep,
)
from fso_ber.ber import BerMethod
from fso_ber.channel import gain_of, log_gain_window
from fso_ber.channel import log_gain_pdf, pdf_h
from fso_ber.errors import RegimeError
from fso_ber.quadrature import integrate

from ez_reference import POINTS as EZ_POINTS

HALF_ERFC_1 = 0.07864960352514257  # (1/2) erfc(1)


def test_method_tags():
    assert {m.value for m in BerMethod} == {"exact", "approx-new", "approx-prev", "mc"}
    assert BerMethod.MONTE_CARLO.is_analytic is False
    assert BerMethod.EXACT.is_analytic


def test_conditional_blind_guess_at_zero_gain(links, deriveds):
    assert ber_conditional(0.0, 1e-3, deriveds["case1"], links["case1"]) == 0.5


def test_conditional_at_unit_argument(links, deriveds):
    link = links["case1"]
    p = 1e-3
    h_unit = math.sqrt(2.0) * link.noise_std / (link.responsivity_a_per_w * p)
    got = ber_conditional(h_unit, p, deriveds["case1"], link)
    assert got == pytest.approx(HALF_ERFC_1, rel=1e-12)


def test_conditional_vanishes_at_large_gain(links, deriveds):
    assert ber_conditional(1.0, 1e-3, deriveds["case1"], links["case1"]) < 1e-15


def test_conditional_input_validation(links, deriveds):
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            ber_conditional(bad, 1e-3, deriveds["case1"], links["case1"])
    with pytest.raises(ValueError):
        ber_conditional(0.1, 0.0, deriveds["case1"], links["case1"])


def test_exact_approaches_half_at_vanishing_power(links, deriveds):
    ber = ber_exact(dbm_to_watts(-40.0), deriveds["case1"], links["case1"])
    assert 0.45 < ber < 0.5


@pytest.mark.parametrize("case", ("case1", "case3"))
def test_exact_monotone_and_bounded(case, links, deriveds):
    link, d = links[case], deriveds[case]
    values = [ber_exact(dbm_to_watts(p), d, link) for p in np.arange(-4.0, 16.5, 0.5)]
    assert all(0.0 < v < 0.5 for v in values)
    assert all(a > b for a, b in zip(values[:-1], values[1:]))


def test_approx_new_monotone_and_bounded(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    values = [ber_approx_new(dbm_to_watts(p), d, link) for p in np.arange(-4.0, 16.5, 0.5)]
    assert all(0.0 < v < 0.5 for v in values)
    assert all(a > b for a, b in zip(values[:-1], values[1:]))


def _textbook_integrands(d, link, p_watts):
    """Literal gain-space integrands for the exact and split-kernel averages."""
    a0hl = d.a0 * d.h_l
    g2 = d.gamma_sq
    sx2 = d.sigma_x_sq
    c = link.responsivity_a_per_w * p_watts / math.sqrt(2.0 * link.noise_std**2)
    s8 = math.sqrt(8.0 * sx2)
    big_e = math.exp(2.0 * sx2 * g2 * (1.0 + g2))
    fp = 4.0 / math.pi

    def pdf(h):
        vv = (math.log(h / a0hl) + d.mu) / s8
        return g2 / (2.0 * a0hl**g2) * h ** (g2 - 1.0) * math.erfc(vv) * big_e

    def exact(h):
        return 0.5 * math.erfc(c * h) * pdf(h)

    pref = g2 / (2.0 * math.sqrt(math.pi) * a0hl**g2) * big_e

    def approx_below(h):
        u = c * h
        vv = (math.log(h / a0hl) + d.mu) / s8
        bracket = 1.0 + math.tanh(-math.pi * vv / math.sqrt(6.0))
        return pref * h ** (g2 - 1.0) * bracket * math.exp(-u * u) / (u + math.sqrt(u * u + fp))

    def approx_above(h):
        u = c * h
        vv = (math.log(h / a0hl) + d.mu) / s8
        kv = math.exp(-vv * vv) / (vv + math.sqrt(vv * vv + fp))
        ku = math.exp(-u * u) / (u + math.sqrt(u * u + fp))
        return pref * (2.0 / math.sqrt(math.pi)) * h ** (g2 - 1.0) * kv * ku

    return exact, approx_below, approx_above


@pytest.mark.parametrize("p_dbm", (-2.0, 0.0, 2.0))
def test_exact_matches_textbook_gain_space_form(p_dbm, links, deriveds):
    """Independent oracle: literal printed integrand, scipy quadrature, gain space."""
    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(p_dbm)
    exact_f, _, _ = _textbook_integrands(d, link, p)
    h_max = gain_of(log_gain_window(d)[1], d)
    ref = (
        scipy.integrate.quad(exact_f, 0.0, d.h_hat, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
        + scipy.integrate.quad(exact_f, d.h_hat, h_max, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
    )
    assert ber_exact(p, d, link) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("p_dbm", (-2.0, 0.0, 2.0))
def test_approx_new_matches_textbook_gain_space_form(p_dbm, links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(p_dbm)
    _, below, above = _textbook_integrands(d, link, p)
    h_max = gain_of(log_gain_window(d)[1], d)
    ref = (
        scipy.integrate.quad(below, 0.0, d.h_hat, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
        + scipy.integrate.quad(above, d.h_hat, h_max, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
    )
    assert ber_approx_new(p, d, link) == pytest.approx(ref, rel=1e-8)


def test_approx_new_is_exact_with_substituted_erfc(links, deriveds):
    """The split-kernel average is the exact average with both erfc factors
    replaced by the elementary approximation; verified against an independent
    gain-space evaluation of that substituted integrand."""
    from fso_ber.special import erfc_approx

    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(0.5)
    a0hl = d.a0 * d.h_l
    c = link.responsivity_a_per_w * p / math.sqrt(2.0 * link.noise_std**2)
    s8 = math.sqrt(8.0 * d.sigma_x_sq)
    big_e = math.exp(2.0 * d.sigma_x_sq * d.gamma_sq * (1.0 + d.gamma_sq))

    def substituted(h):
        vv = (math.log(h / a0hl) + d.mu) / s8
        pdf_a = d.gamma_sq / (2.0 * a0hl**d.gamma_sq) * h ** (d.gamma_sq - 1.0) * erfc_approx(vv) * big_e
        return 0.5 * erfc_approx(c * h) * pdf_a

    h_max = gain_of(log_gain_window(d)[1], d)
    ref = (
        scipy.integrate.quad(substituted, 0.0, d.h_hat, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
        + scipy.integrate.quad(substituted, d.h_hat, h_max, epsabs=1e-20, epsrel=1e-11, limit=500)[0]
    )
    assert ber_approx_new(p, d, link) == pytest.approx(ref, rel=1e-8)


def test_exact_agrees_with_monte_carlo(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(0.0)
    est = mc_ber(p, d, link, trials=400_000, seed=2024)
    assert est.ci_low <= ber_exact(p, d, link) <= est.ci_high


def test_tolerance_halving_stability(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(1.0)
    for fn in (ber_exact, ber_approx_new):
        coarse = fn(p, d, link, Tolerance(rel_tol=1e-8))
        fine = fn(p, d, link, Tolerance(rel_tol=5e-9))
        assert coarse == pytest.approx(fine, rel=1e-7)


def test_approx_prev_converges_away_from_endpoint_dominance(links, deriveds):
    link, d = links["case2"], deriveds["case2"]
    p = dbm_to_watts(2.0)
    val = ber_approx_prev(p, d, link)
    assert val > 0.0
    # stable under tolerance halving where the endpoint sliver is suppressed
    assert val == pytest.approx(ber_approx_prev(p, d, link, Tolerance(rel_tol=5e-10)), rel=1e-7)


def test_approx_prev_positive_for_case3(links, deriveds):
    link, d = links["case3"], deriveds["case3"]
    for p_dbm in (-4.0, 5.0, 12.0):
        assert ber_approx_prev(dbm_to_watts(p_dbm), d, link) > 0.0


def test_approx_prev_endpoint_divergence_raises(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    with pytest.raises(NonConvergenceError):
        ber_approx_prev(dbm_to_watts(0.0), d, link)


def test_approx_prev_endpoint_raise_is_cheap(links, deriveds, monkeypatch):
    from fso_ber import quadrature

    link, d = links["case1"], deriveds["case1"]
    rules = [0]
    rule = quadrature._rule

    def counting(*args):
        rules[0] += 1
        return rule(*args)

    monkeypatch.setattr(quadrature, "_rule", counting)
    with pytest.raises(NonConvergenceError, match="K ln 2"):
        ber_approx_prev(dbm_to_watts(0.0), d, link)
    assert rules[0] <= 100


def test_approx_prev_small_beta_raises_instead_of_overflowing():
    # beta ~ 0.03: K/v dominates the whole endpoint segment, where refinement
    # toward v = 0 would sum integrand values past the float range into inf
    link = LinkParams(**{**PRESETS["case1"], "pointing_std_m": 0.2236, "rytov_variance": 1e-6})
    d = derive(link)
    assert d.beta < 0.05
    with pytest.raises(NonConvergenceError):
        ber_approx_prev(dbm_to_watts(-4.0), d, link)


def test_split_kernel_continuity_at_branch_point():
    from fso_ber.special import erfc_approx

    # both branches reduce to 1 at the split, so the integrand is continuous there
    assert erfc_approx(1e-12) == pytest.approx(erfc_approx(-1e-12), abs=1e-11)


# (preset, dBm) -> float hex of ber_exact, ber_approx_new, ber_approx_prev (None
# where it raises). exact must reproduce these bit for bit; the approximations
# may move in the last digits with the rounding of their kernels.
PINNED = {
    ("case1", -2.0): ("0x1.4d7d64d063dd4p-7", "0x1.6a5f77438cc98p-7", None),
    ("case1", 4.0): ("0x1.8c5de86a1ae09p-20", "0x1.98e330aa975b5p-20", None),
    ("case1", 10.0): ("0x1.9f947458e20aep-36", "0x1.ad4281cb3d992p-36", "0x1.57a46ed2ae023p-404"),
    ("case2", -2.0): ("0x1.6e620ad3595f0p-5", "0x1.8334ca959f511p-5", "0x1.32a22fc610cbfp-4"),
    ("case2", 4.0): ("0x1.01713c898cd46p-10", "0x1.0eee6ddb01546p-10", "0x1.588745d8b3762p-10"),
    ("case2", 10.0): ("0x1.72829bef98b96p-20", "0x1.83c0edf7e8ba8p-20", "0x1.c3e62bd199faap-20"),
    ("case3", -2.0): ("0x1.47b692b4e814bp-4", "0x1.586a6cfc8206bp-4", "0x1.640918e52070fp-3"),
    ("case3", 4.0): ("0x1.ce5f0f035b096p-8", "0x1.e69fc83e6bd2ap-8", "0x1.6feb6aa762907p-7"),
    ("case3", 10.0): ("0x1.18c204dbc3363p-13", "0x1.26844e6b92d4dp-13", "0x1.7ec5e9493c6f4p-13"),
}


@pytest.mark.parametrize("case, p_dbm", sorted(PINNED))
def test_pinned_values(case, p_dbm, links, deriveds):
    link, d = links[case], deriveds[case]
    p = dbm_to_watts(p_dbm)
    exact, new, prev = (None if x is None else float.fromhex(x) for x in PINNED[case, p_dbm])
    assert float(ber_exact(p, d, link)).hex() == exact.hex()
    assert ber_approx_new(p, d, link) == pytest.approx(new, rel=1e-13, abs=0.0)
    if prev is None:
        with pytest.raises(NonConvergenceError):
            ber_approx_prev(p, d, link)
    else:
        assert ber_approx_prev(p, d, link) == pytest.approx(prev, rel=1e-13, abs=0.0)


# the values tests/ez_reference.py prints for its POINTS: the closed-form
# pointing integral averaged over turbulence at 40 digits, independent of the
# package's log-gain variable, windows and quadrature
EZ_REFERENCES = (9.33138277980653e-16, 3.71225618267627e-16, 1.02515703005311e-24)


@pytest.mark.parametrize("point, reference", zip(EZ_POINTS, EZ_REFERENCES),
                         ids=[f"{label}-{p_dbm}dBm" for label, _, p_dbm in EZ_POINTS])
def test_exact_ber_matches_the_closed_form_reference(point, reference):
    # below abs_tol = 1e-15, so only the rule's own accuracy holds these to rel_tol
    _, fields, p_dbm = point
    link = LinkParams(**fields)
    assert ber_exact(dbm_to_watts(p_dbm), derive(link), link) == pytest.approx(
        reference, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("case", ("case2", "case3"))
@pytest.mark.parametrize("p_dbm", (-2.0, 4.0, 10.0))
def test_approx_prev_matches_printed_legacy_integral(case, p_dbm, links, deriveds):
    """The legacy integral as printed, with prefactor beta / (4 pi) in place of
    gamma^2 sigma_X / (sqrt(2) pi), by scipy quadrature over [0, beta/2 + 40],
    past which exp(-(v - beta/2)^2) is below the smallest float."""
    link, d = links[case], deriveds[case]
    p = dbm_to_watts(p_dbm)
    b = d.gamma_sq * math.sqrt(8.0 * d.sigma_x_sq)
    assert b / (4.0 * math.pi) == pytest.approx(
        d.gamma_sq * math.sqrt(d.sigma_x_sq) / (math.sqrt(2.0) * math.pi), rel=1e-15)
    c = link.responsivity_a_per_w * p / math.sqrt(2.0 * link.noise_std**2)
    s8 = math.sqrt(8.0 * d.sigma_x_sq)

    def legacy(v):
        u = c * d.a0 * d.h_l * math.exp(s8 * v - d.mu)
        return math.exp(-(v - 0.5 * b) ** 2 - u * u) / (u * v)

    ref = b / (4.0 * math.pi) * (
        scipy.integrate.quad(legacy, 0.0, 0.5 * b, epsabs=0.0, epsrel=1e-12, limit=500)[0]
        + scipy.integrate.quad(legacy, 0.5 * b, 0.5 * b + 40.0, epsabs=0.0, epsrel=1e-12,
                               limit=500)[0]
    )
    assert ber_approx_prev(p, d, link) == pytest.approx(ref, rel=1e-8)


def _large_beta_link():
    link = LinkParams(**{**PRESETS["case1"], "pointing_std_m": 0.03, "rytov_variance": 1.0})
    d = derive(link)
    assert d.beta > 1e3  # beta ~ 1.5e3
    return link, d


@pytest.mark.parametrize("p_dbm, expected", [(6.0, 0.004752522640039319)])
def test_approx_prev_at_large_beta(p_dbm, expected):
    # mpmath integrates the same legacy integrand to 0.0047525226400399. The
    # mass lies within a few units of the density peak at v = beta/2 ~ 770:
    # a segment about beta/2 long ending there misses part of it (0.6 % low).
    link, d = _large_beta_link()
    assert ber_approx_prev(dbm_to_watts(p_dbm), d, link) == pytest.approx(expected, rel=1e-13)


def test_approx_prev_above_half_raises_regime_error():
    # At -30 dBm, near v = 0 the legacy 1/u overflows to inf where the density
    # exp(-(v - beta/2)^2) underflows to 0; the integrand is 0 there, not
    # inf * 0 = nan, so the integral completes (IntegrandError otherwise). Its
    # value, 198.39, is no probability: the legacy 1/u kernel exceeds erfc(u)
    # at small u. The check runs on the finished integral.
    link, d = _large_beta_link()
    with pytest.raises(RegimeError, match=r"^the result 198\.391 is above 0\.5"):
        ber_approx_prev(dbm_to_watts(-30.0), d, link)
    # a sweep over that power names the method and the power once
    with pytest.raises(RegimeError, match=r"^approx-prev failed at P = -30 dBm: "
                                          r"the result 198\.391 is above 0\.5"):
        sweep([BerMethod.APPROX_PREV], (-30.0, -26.0, 4.0), d, link)


def test_approx_prev_non_shrinking_error_stops_early(links, deriveds, monkeypatch):
    # case1's endpoint segment refines toward a pole (K ln 2 = 7.9e-3 at
    # -4 dBm): bisection stops once the error keeps growing, long before the
    # abscissa reaches the subnormal range where the integrand overflows
    from fso_ber import quadrature

    link, d = links["case1"], deriveds["case1"]
    rules = [0]
    rule = quadrature._rule

    def counting(*args):
        rules[0] += 1
        return rule(*args)

    monkeypatch.setattr(quadrature, "_rule", counting)
    with pytest.raises(NonConvergenceError, match=r"segment \[0, "):
        ber_approx_prev(dbm_to_watts(-4.0), d, link)
    assert rules[0] <= 100


@pytest.mark.parametrize("fields", [
    # A0 h_l = 4.4e-321: u = c h underflows to 0 on the window, where 1/u has no value
    {"aperture_radius_m": 1e-160, "noise_std": 0.3},
    # u = 1.7e-307: 1/u is finite, but not once the density's 1/v multiplies it
    {"noise_std": 1e300},
    # u = 6.6e-318: 1/u overflows alone
    {"aperture_radius_m": 1e-160},
], ids=["u-zero", "u-times-density", "u-subnormal"])
def test_approx_prev_refuses_a_kernel_that_overflows(fields):
    link = LinkParams(**{**PRESETS["case1"], **fields})
    with pytest.raises(RegimeError, match=(
            r"^the legacy 1/u kernel overflows where u = R P h / \(sqrt\(2\) noise_std\) is "
            r"smallest on the window, u = \S+ at v = 0\.0, at p_watts = 0\.001, "
            rf"responsivity_a_per_w = 0\.5, noise_std = {re.escape(repr(link.noise_std))} and A0 h_l = ")):
        ber_approx_prev(1e-3, derive(link), link)


# links over the domain the model accepts: pointing_std_m log-uniform in
# [1e-3, 1] m, rytov_variance log-uniform in [1e-6, 1], case1's other fields;
# P in [-10, 16] dBm
LINK_DOMAIN = dict(
    p_dbm=st.floats(-10.0, 16.0),
    log_pointing=st.floats(-3.0, 0.0),
    log_rytov=st.floats(-6.0, 0.0),
)
BER_FN = {BerMethod.EXACT: ber_exact, BerMethod.APPROX_NEW: ber_approx_new}
METHODS = st.sampled_from(tuple(BER_FN))


def _domain_link(log_pointing, log_rytov):
    return LinkParams(**dict(PRESETS["case1"], pointing_std_m=10.0 ** log_pointing,
                             rytov_variance=10.0 ** log_rytov))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(**LINK_DOMAIN)
def test_exact_ber_within_zero_and_half(p_dbm, log_pointing, log_rytov):
    link = _domain_link(log_pointing, log_rytov)
    assert 0.0 <= ber_exact(dbm_to_watts(p_dbm), derive(link), link) <= 0.5


@settings(derandomize=True, deadline=None, max_examples=40)
@given(log_scale=st.floats(-3.0, 3.0), method=METHODS, **LINK_DOMAIN)
def test_ber_invariant_under_joint_power_and_noise_scaling(
    log_scale, method, p_dbm, log_pointing, log_rytov
):
    link = _domain_link(log_pointing, log_rytov)
    k = 10.0 ** log_scale
    scaled = replace(link, noise_std=link.noise_std * k)
    p = dbm_to_watts(p_dbm)
    assert math.isclose(BER_FN[method](p * k, derive(scaled), scaled),
                        BER_FN[method](p, derive(link), link), rel_tol=1e-9)


@pytest.mark.parametrize("noise_std, ber", [(5e-324, 0.0), (1e-200, 0.0), (1e200, 0.5)])
def test_a_noise_whose_square_leaves_the_float_range_computes(noise_std, ber):
    # sqrt(2 noise_std^2) squared first: "float division by zero" at 1e-200,
    # "Numerical result out of range" at 1e200
    link = LinkParams(**{**PRESETS["case1"], "noise_std": noise_std})
    d = derive(link)
    assert ber_exact(1e-3, d, link) == pytest.approx(ber, abs=1e-15)
    # no gain is no signal, even where the scale c is inf
    assert ber_conditional(0.0, 1e-3, d, link) == 0.5


def test_a_detection_scale_that_underflows_is_refused_by_name():
    # c A0 h_l = 0 has no logarithm: this failed with "math domain error"
    link = LinkParams(**{**PRESETS["case1"], "responsivity_a_per_w": 5e-324})
    message = ("R P A0 h_l / (sqrt(2) noise_std) underflows to 0 at p_watts = 0.001, "
               "responsivity_a_per_w = 5e-324 and noise_std = 1e-07")
    for fn in (ber_exact, ber_approx_new, ber_approx_prev):
        with pytest.raises(RegimeError) as excinfo:
            fn(1e-3, derive(link), link)
        assert str(excinfo.value) == message


def test_analytic_path_returns_python_floats(links, deriveds):
    # numpy.float64 subclasses float, so isinstance would not tell them apart
    link, d = links["case2"], deriveds["case2"]
    for fn in (ber_exact, ber_approx_new, ber_approx_prev):
        assert type(fn(dbm_to_watts(4.0), d, link)) is float, fn.__name__
    for v in (-0.5, 1.0):
        assert type(log_gain_pdf(v, d)) is float
        assert type(pdf_h(gain_of(v, d), d)) is float
    lo, hi = log_gain_window(d)
    assert type(integrate(lambda v: log_gain_pdf(v, d), lo, hi).value) is float
