import ast
import math
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import erfcinv

from fso_ber import (
    PRESETS, LinkParams, dbm_to_watts, derive, fec_crossing, mc_ber, sample_h, wilson_interval,
)
from fso_ber import montecarlo
from fso_ber.ber import BerMethod
from fso_ber.montecarlo import (
    _BATCH,
    WILSON_Z99,
    _error_counts,
    batch_rng,
    draw_gains,
)


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
    """Disable fading: every trial sees gain h, or trial i of each batch sees
    h[i], so mc_ber checks the detection model alone. The stub draws nothing,
    so the noise is each batch's first draw."""
    def pinned(rng, d, n, out, e):
        out[:n] = h if np.ndim(h) == 0 else h[:n]
        return out[:n]

    monkeypatch.setattr(montecarlo, "draw_gains", pinned)


def _fix_noise(monkeypatch, noise):
    """One batch of len(noise) trials whose unit noise is ``noise``."""
    class Fixed:
        def standard_normal(self, out):
            out[:] = noise
            return out

    monkeypatch.setattr(montecarlo, "batch_rng", lambda seed, i: Fixed())


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


def _batches(n):
    """(i, size) of each batch of ``n`` draws."""
    return [(i, min(_BATCH, n - start)) for i, start in enumerate(range(0, n, _BATCH))]


def _brute_force_counts(thresholds, gains, trials, seed):
    ratios = np.concatenate([batch_rng(seed, i).standard_normal(n) / gains[:n]
                             for i, n in _batches(trials)])
    return [np.count_nonzero(ratios > s) for s in thresholds]


@pytest.mark.parametrize("thresholds", [
    np.sort(np.random.default_rng(1).uniform(0.0, 8.0, 17)),
    np.array([0.5, 1.0, 1.0, 1.0, 2.5, 2.5, 4.0]),
    np.array([1.5]),
], ids=["random", "duplicated", "single"])
def test_error_counts_equal_a_brute_force_count(monkeypatch, deriveds, thresholds):
    trials, seed = _BATCH + 12_345, 17  # one full batch and one ragged batch
    gains = np.random.default_rng(2).lognormal(-0.5, 0.7, _BATCH)
    _pin_gain(monkeypatch, gains)
    expected = _brute_force_counts(thresholds, gains, trials, seed)
    assert _error_counts(thresholds, deriveds["case1"], trials, seed) == expected


@pytest.mark.parametrize("trials", [1, _BATCH - 1, _BATCH + 1])
def test_error_counts_at_batch_edges_equal_a_brute_force_count(monkeypatch, deriveds, trials):
    # a lowest threshold of -1 puts trials with negative noise in the tail too
    thresholds = np.array([-1.0, 0.0, 0.25, 1.0, 1.0, 3.0])
    gains = np.random.default_rng(3).lognormal(-0.5, 0.7, _BATCH)
    _pin_gain(monkeypatch, gains)
    expected = _brute_force_counts(thresholds, gains, trials, 23)
    assert _error_counts(thresholds, deriveds["case1"], trials, 23) == expected


@pytest.mark.parametrize("ratios, thresholds, expected", [
    # the ties at 0.5 and 1.0 are outside the tail, the ties at 2.0 inside it
    ([0.5, 1.0, 2.0, 2.0, 3.5], [0.5, 1.0, 2.0, 3.5, 4.0], [4, 3, 1, 0, 0]),
    ([-2.0, 0.0, 0.9, 1.0], [1.0, 1.0, 2.0], [0, 0, 0]),
    ([6.0, 10.0, 8.0, 2.0], [1.0, 2.0, 7.0, 9.0, 10.0], [4, 3, 2, 1, 0]),
], ids=["ties-do-not-err", "no-trial-in-the-tail", "every-trial-in-the-tail"])
def test_one_batch_is_decided_from_its_tail(monkeypatch, deriveds, ratios, thresholds, expected):
    _fix_noise(monkeypatch, 2.0 * np.array(ratios))
    _pin_gain(monkeypatch, 2.0)
    assert _error_counts(thresholds, deriveds["case1"], len(ratios), 0) == expected


def test_zero_gains_err_exactly_when_the_noise_is_positive(monkeypatch, links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    _pin_gain(monkeypatch, np.zeros(_BATCH))
    trials, seed = 30_000, 4
    assert trials <= _BATCH  # one batch
    positive = int(np.count_nonzero(batch_rng(seed, 0).standard_normal(trials) > 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = mc_ber([dbm_to_watts(p) for p in (-4.0, 6.0, 16.0)], d, link, trials, seed)
    assert [est.errors for est in estimates] == [positive] * 3


def test_zero_noise_over_zero_gain_is_no_error(monkeypatch, deriveds):
    # r = 0 / 0 is nan: a trial with no noise and no gain errs at no threshold
    noise = np.array([0.0, 1.0, -1.0, 0.0, 2.0])
    _fix_noise(monkeypatch, noise)
    _pin_gain(monkeypatch, np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _error_counts([0.5, 1.5, 3.0], deriveds["case1"], noise.size, 0)
    # 1 / 0 = inf errs everywhere; -1 / 0 and 0 / 0 nowhere; 0 / 1 nowhere; 2 / 1 below 2
    assert counts == [2, 2, 1]


def test_subnormal_gains_are_decided_without_an_overflow_warning():
    # A0 h_l is about 1.5e-310, so n / h overflows to +-inf for nearly every
    # trial; that errs at every threshold when n > 0 and at none when n < 0
    link = LinkParams(**{**PRESETS["case1"], "aperture_radius_m": 1e-155})
    d = derive(link)
    watts = [1e-3, 1e-2]
    trials, seed = _BATCH + 1_000, 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [est.errors for est in mc_ber(watts, d, link, trials, seed)]
    expected = [0] * len(watts)
    with np.errstate(all="ignore"):
        for i, n in _batches(trials):
            rng = batch_rng(seed, i)
            gains = draw_gains(rng, d, n, np.empty(n), np.empty(n))  # drawn before the noise
            ratios = rng.standard_normal(n) / gains
            expected = [k + np.count_nonzero(ratios > montecarlo._threshold(p, link))
                        for k, p in zip(expected, watts)]
    assert got == expected
    assert trials // 3 < got[-1] < trials


def test_mc_ber_over_powers_rejects_decreasing_powers(links, deriveds):
    with pytest.raises(ValueError, match="non-decreasing"):
        mc_ber([2e-3, 1e-3], deriveds["case1"], links["case1"], trials=100, seed=1)


def test_mc_ber_over_powers_is_mc_ber_at_each(links, deriveds):
    link, d = links["case2"], deriveds["case2"]
    watts = [dbm_to_watts(p) for p in (-2.0, 4.0, 4.0, 10.0)]
    estimates = mc_ber(watts, d, link, trials=60_000, seed=21)
    assert isinstance(estimates, list)
    assert estimates == [mc_ber(p, d, link, trials=60_000, seed=21) for p in watts]
    assert mc_ber(np.array(watts), d, link, trials=60_000, seed=21) == estimates
    assert mc_ber(np.float64(watts[0]), d, link, trials=60_000, seed=21) == estimates[0]


def test_mc_ber_over_no_powers_checks_trials_and_draws_nothing(links, deriveds, monkeypatch):
    with pytest.raises(ValueError, match=r"^trials: must be >= 1 \(got 0\)$"):
        mc_ber([], deriveds["case1"], links["case1"], trials=0, seed=1)

    def refuse(*args):
        raise AssertionError("drew trials for no powers")

    monkeypatch.setattr(montecarlo, "draw_gains", refuse)
    assert mc_ber([], deriveds["case1"], links["case1"], trials=1_000_000, seed=1) == []


def test_mc_ber_over_powers_checks_every_power(links, deriveds):
    with pytest.raises(ValueError, match=r"^p_watts: must be a finite number \(got inf\)$"):
        mc_ber([1e-3, math.inf], deriveds["case1"], links["case1"], trials=100, seed=1)


def _spawn_key(rng):
    """The batch's place among its seed's children: (i,) for batch i."""
    # numpy < 1.25 keeps the seed sequence only as the private _seed_seq
    bit_generator = rng.bit_generator
    return (getattr(bit_generator, "seed_seq", None) or bit_generator._seed_seq).spawn_key


def test_sample_h_returns_the_gains_mc_ber_draws(links, deriveds, monkeypatch):
    link, d = links["case1"], deriveds["case1"]
    drawn, lock = {}, threading.Lock()

    def recording(rng, d, n, out, e):
        h = draw_gains(rng, d, n, out, e)
        with lock:  # the batches are drawn on two threads, in either order
            drawn[_spawn_key(rng)] = h.copy()
        return h

    monkeypatch.setattr(montecarlo, "draw_gains", recording)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    trials = _BATCH + _BATCH // 5  # crosses the batch boundary, ends in a ragged batch
    mc_ber(dbm_to_watts(0.0), d, link, trials=trials, seed=5)
    batches = [drawn[key] for key in sorted(drawn)]
    assert [h.size for h in batches] == [_BATCH, _BATCH // 5]
    assert np.array_equal(np.concatenate(batches), sample_h(d, trials, seed=5))


@pytest.mark.parametrize("seed", [0, 11, 2706864223])
def test_batch_rng_is_the_ith_spawned_child(seed):
    # every output made since SFC64 batches came in drew batch i from the i-th
    # child of one spawn(k); batch_rng must give the same generator
    children = np.random.SeedSequence(seed).spawn(64)
    for i in (0, 1, 2, 19, 20, 63):
        spawned = np.random.Generator(np.random.SFC64(children[i]))
        rng = batch_rng(seed, i)
        assert np.array_equal(rng.standard_normal(5), spawned.standard_normal(5)), i
        assert np.array_equal(rng.standard_exponential(5), spawned.standard_exponential(5)), i


@pytest.mark.parametrize("trials", [_BATCH // 3, _BATCH + 1, 3 * _BATCH + 7_777],
                         ids=["one-short-batch", "one-trial-over", "ragged-last-batch"])
def test_mc_ber_does_not_depend_on_the_cpu_count(links, deriveds, monkeypatch, trials):
    link, d = links["case3"], deriveds["case3"]
    watts = [dbm_to_watts(p) for p in (-4.0, 0.0, 2.0, 4.0, 6.0)]
    results = {}
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        results[cpus] = mc_ber(watts, d, link, trials=trials, seed=29)
    assert all(est.errors > 0 for est in results[1])
    assert all(found == results[1] for found in results.values())


@pytest.mark.parametrize("cpus, trials, helpers", [
    (1, 4 * _BATCH, 0), (2, _BATCH, 0), (2, _BATCH + 1, 1), (3, 4 * _BATCH, 2),
    (8, 3 * _BATCH, 2),
])
def test_mc_ber_starts_one_helper_per_further_cpu_and_batch(
        links, deriveds, monkeypatch, cpus, trials, helpers):
    baseline = threading.active_count()
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    mc_ber([1e-3, 2e-3], deriveds["case1"], links["case1"], trials=trials, seed=2)
    assert len(started) == helpers
    assert threading.active_count() == baseline
    assert not any(thread.is_alive() for thread in started)


def test_a_failing_batch_stops_every_thread_and_is_raised(links, deriveds, monkeypatch):
    class Failed(Exception):
        pass

    calls, lock = [], threading.Lock()

    def failing_third(rng, d, n, out, e):
        with lock:
            calls.append(n)
            if len(calls) == 3:
                raise Failed("batch 3")
        return draw_gains(rng, d, n, out, e)

    monkeypatch.setattr(montecarlo, "draw_gains", failing_third)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    baseline = threading.active_count()
    batches = 20
    with pytest.raises(Failed, match="batch 3"):
        mc_ber(1e-3, deriveds["case1"], links["case1"], trials=batches * _BATCH, seed=6)
    # the helpers have exited, and they stopped at their next batch
    assert threading.active_count() == baseline
    assert len(calls) < batches


def _refuse_batches(monkeypatch):
    def refuse(seed, i):
        raise AssertionError("drew a batch for a refused call")

    monkeypatch.setattr(montecarlo, "batch_rng", refuse)


@pytest.mark.parametrize("n", [0, -1, True, 1e4, 2.5, None, "100"], ids=repr)
def test_a_bad_draw_count_is_refused_at_the_call(links, deriveds, monkeypatch, n):
    _refuse_batches(monkeypatch)
    got = re.escape(f" (got {n!r})")
    with pytest.raises(ValueError, match=rf"^trials: must be .*{got}$"):
        mc_ber(1e-3, deriveds["case1"], links["case1"], trials=n, seed=1)
    with pytest.raises(ValueError, match=rf"^n: must be .*{got}$"):
        sample_h(deriveds["case1"], n, seed=1)


@pytest.mark.parametrize("seed", [-1, True, 1.0, None, "1"], ids=repr)
def test_a_bad_seed_is_refused_at_the_call(links, deriveds, monkeypatch, seed):
    # seed=None would draw every batch from fresh OS entropy
    _refuse_batches(monkeypatch)
    got = re.escape(f" (got {seed!r})")
    with pytest.raises(ValueError, match=rf"^seed: must be .*{got}$"):
        mc_ber(1e-3, deriveds["case1"], links["case1"], trials=100, seed=seed)
    with pytest.raises(ValueError, match=rf"^seed: must be .*{got}$"):
        sample_h(deriveds["case1"], 100, seed=seed)


def test_numpy_integers_are_accepted_as_counts_and_seeds(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    trials, seed = np.int64(_BATCH + 7), np.int64(12)
    assert mc_ber(1e-3, d, link, trials, seed) == mc_ber(1e-3, d, link, int(trials), int(seed))
    assert np.array_equal(sample_h(d, trials, seed), sample_h(d, int(trials), int(seed)))


def test_mc_ber_memory_does_not_grow_with_trials(links, deriveds, monkeypatch):
    # numpy reports its buffers to tracemalloc; a float64 array of one batch
    block = _BATCH * np.dtype(np.float64).itemsize
    link, d = links["case1"], deriveds["case1"]
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)  # the caller and one helper
    peaks = []
    for trials in (100_000, 3_000_000):
        tracemalloc.start()
        try:
            mc_ber(dbm_to_watts(0.0), d, link, trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # each thread's buffers, allocated once: two float batches and the
    # boolean mask of one batch that marks its tail
    assert max(peaks) <= 2 * (2 * block + _BATCH) + 65_536, peaks
    assert abs(peaks[1] - peaks[0]) < block, peaks


def test_sample_h_peak_is_its_result_plus_one_batch(deriveds):
    d = deriveds["case2"]
    n = 1_000_000
    tracemalloc.start()
    try:
        h = sample_h(d, n, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = _BATCH * np.dtype(np.float64).itemsize
    assert peak <= h.nbytes + block + 65_536, (peak, h.nbytes)
    expected = np.concatenate([draw_gains(batch_rng(8, i), d, size, np.empty(size), np.empty(size))
                               for i, size in _batches(n)])
    assert np.array_equal(h, expected)


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


def test_only_montecarlo_imports_numpy():
    importers = set()
    for path in Path(montecarlo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"montecarlo.py"}
