import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import erfcinv

from fso_ber import dbm_to_watts, fec_crossing, mc_ber, sample_h, wilson_interval
from fso_ber import montecarlo
from fso_ber.ber import BerMethod
from fso_ber.channel import draw_gains
from fso_ber.montecarlo import WILSON_Z99


def test_wilson_z_constant_matches_normal_quantile():
    assert WILSON_Z99 == pytest.approx(scipy.stats.norm.ppf(0.995), rel=1e-12)


def test_wilson_interval_brackets_point_estimate():
    for errors, trials in ((5, 100), (0, 1000), (38400, 10_000_000), (1000, 1000)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0


def test_wilson_interval_zero_errors_one_sided():
    n = 10_000
    lo, hi = wilson_interval(0, n)
    assert lo == 0.0
    assert hi == pytest.approx(WILSON_Z99**2 / (n + WILSON_Z99**2), rel=1e-12)


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 100)
    with pytest.raises(ValueError):
        wilson_interval(101, 100)


def test_estimate_is_deterministic(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p = dbm_to_watts(0.0)
    a = mc_ber(p, d, link, trials=50_000, seed=7)
    b = mc_ber(p, d, link, trials=50_000, seed=7)
    assert a == b
    c = mc_ber(p, d, link, trials=50_000, seed=8)
    assert c != a


def _pin_gain(monkeypatch, h):
    """Disable fading: every trial sees gain h, so mc_ber checks the detection
    model alone. The noise is drawn from the same stream as with fading."""
    monkeypatch.setattr(montecarlo, "draw_gains", lambda rng, d, n: np.full(n, h))


def test_zero_error_outcome_flagged(links, deriveds, monkeypatch):
    link, d = links["case1"], deriveds["case1"]
    # conditional BER ~ erfc(20) ~ 1e-175; no errors will be seen
    h = 40.0 * math.sqrt(2.0) * link.noise_std / link.responsivity_a_per_w / 1e-3
    _pin_gain(monkeypatch, h)
    est = mc_ber(1e-3, d, link, trials=10_000, seed=9)
    assert est.errors == 0
    assert est.ber == 0.0
    assert est.low_confidence
    assert est.ci_low == 0.0 and est.ci_high > 0.0


def test_pinned_gain_reproduces_conditional_ber(links, deriveds, monkeypatch):
    link, d = links["case1"], deriveds["case1"]
    p = 1e-3
    for u, expected in ((1.0, 0.5 * math.erfc(1.0)), (2.0, 0.5 * math.erfc(2.0))):
        h = u * math.sqrt(2.0) * link.noise_std / (link.responsivity_a_per_w * p)
        _pin_gain(monkeypatch, h)
        est = mc_ber(p, d, link, trials=1_000_000, seed=123)
        sigma = math.sqrt(expected * (1.0 - expected) / est.trials)
        assert abs(est.ber - expected) < 3.0 * sigma + 1e-9
        assert est.ci_low <= expected <= est.ci_high


def test_pinned_gain_error_counts_within_five_sigma(links, deriveds, monkeypatch):
    link, d = links["case1"], deriveds["case1"]
    p = 1e-3
    trials = 1_000_000
    for level in (1e-1, 1e-2, 1e-3):
        # gain at which the conditional BER 0.5 erfc(c h) equals the level
        h = float(erfcinv(2.0 * level)) * math.sqrt(2.0) * link.noise_std / (
            link.responsivity_a_per_w * p)
        _pin_gain(monkeypatch, h)
        est = mc_ber(p, d, link, trials=trials, seed=321)
        sigma = math.sqrt(trials * level * (1.0 - level))
        assert abs(est.errors - trials * level) <= 5.0 * sigma, (level, est.errors)


def test_sample_h_returns_the_gains_mc_ber_draws(links, deriveds, monkeypatch):
    link, d = links["case1"], deriveds["case1"]
    drawn = []

    def recording(rng, d, n):
        h = draw_gains(rng, d, n)
        drawn.append(h.copy())
        return h

    monkeypatch.setattr(montecarlo, "draw_gains", recording)
    mc_ber(dbm_to_watts(0.0), d, link, trials=1_200_000, seed=5)
    assert [h.size for h in drawn] == [1_000_000, 200_000]  # crosses the batch boundary
    assert np.array_equal(np.concatenate(drawn), sample_h(d, 1_200_000, seed=5))


def test_interval_coverage_across_seeds(links, deriveds):
    from fso_ber import ber_exact

    link, d = links["case1"], deriveds["case1"]
    p_cross = fec_crossing(BerMethod.EXACT, 1e-3, d, link).p_cross_dbm
    p = dbm_to_watts(p_cross)
    truth = ber_exact(p, d, link)
    hits = sum(
        1
        for seed in range(20)
        if (est := mc_ber(p, d, link, trials=1_000_000, seed=1000 + seed)).ci_low
        <= truth
        <= est.ci_high
    )
    assert hits >= 18


def test_interval_width_halves_when_trials_quadruple(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p_cross = fec_crossing(BerMethod.EXACT, 1e-3, d, link).p_cross_dbm
    p = dbm_to_watts(p_cross)
    small = mc_ber(p, d, link, trials=250_000, seed=77)
    large = mc_ber(p, d, link, trials=1_000_000, seed=78)
    ratio = (large.ci_high - large.ci_low) / (small.ci_high - small.ci_low)
    assert 0.4 <= ratio <= 0.6


def test_trial_validation(links, deriveds):
    with pytest.raises(ValueError):
        mc_ber(1e-3, deriveds["case1"], links["case1"], trials=0, seed=1)
    with pytest.raises(ValueError):
        mc_ber(0.0, deriveds["case1"], links["case1"], trials=100, seed=1)


@pytest.mark.parametrize("p_watts", [math.nan, math.inf, -math.inf])
def test_non_finite_power_rejected(p_watts, links, deriveds):
    with pytest.raises(ValueError, match="finite"):
        mc_ber(p_watts, deriveds["case1"], links["case1"], trials=100, seed=1)
