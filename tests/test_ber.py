import math

import numpy as np
import pytest
import scipy.integrate

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
    truncation_bound,
)
from fso_ber.ber import BerMethod

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
    with pytest.raises(ValueError):
        ber_conditional(-0.1, 1e-3, deriveds["case1"], links["case1"])
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
    h_max = truncation_bound(d)
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
    h_max = truncation_bound(d)
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

    h_max = truncation_bound(d)
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
