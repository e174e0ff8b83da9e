import math
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_ber import (
    PRESETS,
    BracketError,
    IntegrandError,
    LinkParams,
    NonConvergenceError,
    NonMonotoneError,
    dbm_to_watts,
    derive,
    delta,
    fec_crossing,
    mc_ber,
    sweep,
)
from fso_ber import analysis, montecarlo
from fso_ber.analysis import _ANALYTIC, power_gap, power_grid
from fso_ber.ber import BerMethod
from fso_ber.config import DEFAULT_SWEEP
from fso_ber.montecarlo import _BATCH

from test_fingerprint import _links

FEC = 3.84e-3


def test_power_grid_count_and_spacing():
    grid = power_grid(-4.0, 16.0, 0.5)
    assert len(grid) == 41
    assert grid[0] == -4.0
    assert grid[-1] == pytest.approx(16.0, abs=1e-9)


def test_power_grid_validation():
    with pytest.raises(ValueError):
        power_grid(4.0, -4.0, 0.5)
    with pytest.raises(ValueError):
        power_grid(-4.0, 16.0, 0.0)


@pytest.mark.parametrize("p_range", [(-4.0, 16.0, 5e-324), (-1e308, 1e308, 1.0)])
def test_power_grid_rejects_a_grid_too_fine_to_count(p_range):
    # (hi - lo) / step overflows; the grid size must not reach int() as inf
    with pytest.raises(ValueError, match="sweep: step .* too small"):
        power_grid(*p_range)


def test_power_grid_rejects_more_points_than_the_limit():
    # 200 001 points: cheap to count, refused before any list is built
    with pytest.raises(ValueError, match=r"^sweep: 200001 points .* at most 100000"):
        power_grid(-4.0, 16.0, 1e-4)
    assert len(power_grid(-4.0, 16.0, 20.0 / 99_999)) == 100_000


NON_FINITE_SWEEPS = [
    tuple(bad if i == pos else good for i, good in enumerate((-4.0, 16.0, 0.5)))
    for pos in range(3)
    for bad in (math.inf, -math.inf, math.nan)
]


@pytest.mark.parametrize("p_range", NON_FINITE_SWEEPS, ids=repr)
def test_sweep_rejects_non_finite_range(p_range, links, deriveds):
    with pytest.raises(ValueError, match="sweep"):
        sweep({BerMethod.EXACT}, p_range, deriveds["case1"], links["case1"])


def test_sweep_empty_methods(links, deriveds):
    assert sweep((), (-4.0, 16.0, 0.5), deriveds["case1"], links["case1"]) == []


@pytest.mark.parametrize("methods, named", [
    (["exact"], "'exact'"),
    ([BerMethod.EXACT, "approx-new"], "'approx-new'"),
])
def test_sweep_rejects_entries_that_are_not_methods(methods, named, links, deriveds,
                                                    monkeypatch):
    monkeypatch.setattr(analysis, "power_grid", None)  # rejected before any work
    with pytest.raises(ValueError, match=rf"^methods: must be BerMethod members \(got {named}\)$"):
        sweep(methods, (-4.0, 16.0, 0.5), deriveds["case1"], links["case1"])


def test_sweep_exact_grid_and_monotone(links, deriveds):
    (curve,) = sweep({BerMethod.EXACT}, (-4.0, 16.0, 0.5), deriveds["case1"], links["case1"])
    assert curve.method is BerMethod.EXACT
    assert len(curve.points) == 41
    bers = [pt.ber for pt in curve.points]
    assert all(a > b for a, b in zip(bers[:-1], bers[1:]))
    assert all(0.0 < b < 0.5 for b in bers)


def test_sweep_family_ordering_where_all_converge(links, deriveds):
    # in the medium-pointing/medium-turbulence regime all three analytic
    # expressions evaluate; the approximations bound the exact curve from above
    link, d = links["case2"], deriveds["case2"]
    curves = sweep(
        {BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.APPROX_PREV},
        (-4.0, 16.0, 1.0), d, link,
    )
    by = {c.method: c for c in curves}
    assert list(by) == [BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.APPROX_PREV]
    for i, pt in enumerate(by[BerMethod.EXACT].points):
        if pt.ber < 1e-1:
            assert by[BerMethod.APPROX_NEW].points[i].ber >= pt.ber
            assert by[BerMethod.APPROX_PREV].points[i].ber >= by[BerMethod.APPROX_NEW].points[i].ber


def test_sweep_annotates_failing_power_point(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    with pytest.raises(NonConvergenceError, match=r"-4 dBm"):
        sweep({BerMethod.APPROX_PREV}, (-4.0, 0.0, 1.0), d, link)


@pytest.mark.parametrize("workers", (1, 2))
def test_sweep_annotation_keeps_the_exception(monkeypatch, links, deriveds, workers):
    # IntegrandError's constructor takes (abscissa, value), not a message
    def failing(p_watts, d, link, tol=None):
        if p_watts > dbm_to_watts(-1.0):
            raise IntegrandError(0.25, math.nan)
        return 0.1

    monkeypatch.setitem(_ANALYTIC, BerMethod.APPROX_NEW, failing)
    with pytest.raises(IntegrandError, match=r"^approx-new failed at P = 0 dBm: ") as excinfo:
        sweep({BerMethod.APPROX_NEW}, (-4.0, 2.0, 2.0), deriveds["case1"], links["case1"],
              workers=workers)
    assert excinfo.value.abscissa == 0.25
    assert "x = 0.25" in str(excinfo.value)


def test_sweep_and_crossing_name_an_approx_prev_failure_once(links, deriveds):
    # approx-prev's case1 integral diverges at -4 dBm, the sweep's first point
    # and the crossing search's first probe; delta fails in the same crossing
    link, d = links["case1"], deriveds["case1"]
    calls = (
        lambda: sweep([BerMethod.APPROX_PREV], (-4.0, 0.0, 2.0), d, link),
        lambda: fec_crossing(BerMethod.APPROX_PREV, FEC, d, link),
        lambda: delta(BerMethod.EXACT, BerMethod.APPROX_PREV, FEC, d, link),
    )
    for call in calls:
        with pytest.raises(NonConvergenceError) as excinfo:
            call()
        message = str(excinfo.value)
        assert message.startswith("approx-prev failed at P = -4 dBm: the integrand is "
                                  "log-divergent at its lower endpoint; ")
        assert message.count("dBm") == 1
        assert message.count("approx-prev") == 1


def test_sweep_reads_its_methods_once(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    methods = [BerMethod.EXACT, BerMethod.APPROX_NEW]
    from_list = sweep(methods, (-4, 16, 4), d, link)
    assert [c.method for c in from_list] == methods
    assert sweep((m for m in methods), (-4, 16, 4), d, link) == from_list


def test_sweep_annotates_a_monte_carlo_power_that_underflows(links, deriveds):
    # -4000 dBm is 0.0 W in floating point; one mc_ber call decides the whole
    # grid, so the failure names the method, the grid's span and the power
    match = (r"^mc failed at P = -4000 \.\. -3990 dBm: "
             r"p_watts: must be > 0 \(got 0\.0\)$")
    with pytest.raises(ValueError, match=match):
        sweep({BerMethod.MONTE_CARLO}, (-4000.0, -3990.0, 5.0), deriveds["case1"],
              links["case1"], mc_trials=1_000, seed=1)


def test_sweep_annotates_an_integrand_error_from_a_ber_method(monkeypatch, links, deriveds):
    # a scaled kernel returning nan makes the exact integrand non-finite for v >= 0
    from fso_ber import ber
    from fso_ber.special import Kernel

    monkeypatch.setattr(ber, "EXACT_KERNEL", Kernel(math.erfc, math.erfc, lambda z: math.nan))
    match = r"^exact failed at P = -4 dBm: integrand returned nan at x = "
    with pytest.raises(IntegrandError, match=match) as excinfo:
        sweep({BerMethod.EXACT}, (-4.0, 0.0, 2.0), deriveds["case1"], links["case1"])
    assert excinfo.value.abscissa > 0.0
    assert math.isnan(excinfo.value.value)


def _refuse_threads(monkeypatch):
    def no_thread(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)


def test_an_analytic_sweep_starts_no_thread(monkeypatch, links, deriveds):
    _refuse_threads(monkeypatch)
    curves = sweep({BerMethod.EXACT, BerMethod.APPROX_NEW}, (-4.0, 0.0, 2.0),
                   deriveds["case1"], links["case1"], workers=2)
    assert [len(c.points) for c in curves] == [3, 3]


@pytest.mark.parametrize("mc_trials", [1, _BATCH])
def test_a_one_batch_monte_carlo_sweep_starts_no_thread(monkeypatch, links, deriveds, mc_trials):
    _refuse_threads(monkeypatch)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    methods = {BerMethod.EXACT, BerMethod.MONTE_CARLO}
    curves = sweep(methods, (-4.0, 0.0, 2.0), deriveds["case1"], links["case1"],
                   mc_trials=mc_trials, seed=3, workers=2)
    assert [len(c.points) for c in curves] == [3, 3]


def test_a_monte_carlo_sweep_on_one_cpu_starts_no_thread(monkeypatch, links, deriveds):
    _refuse_threads(monkeypatch)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    (curve,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), deriveds["case1"],
                     links["case1"], mc_trials=3 * _BATCH + 1, seed=3, workers=2)
    assert [pt.mc.trials for pt in curve.points] == [3 * _BATCH + 1] * 3


def test_sweep_mc_requires_config(links, deriveds):
    with pytest.raises(ValueError):
        sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), deriveds["case1"], links["case1"])


def test_sweep_mc_deterministic_across_workers(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    mc = dict(mc_trials=20_000, seed=4242)
    (a,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), d, link, **mc, workers=1)
    (b,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), d, link, **mc, workers=3)
    assert a == b
    assert all(pt.mc.ci_low is not None and pt.mc.trials == 20_000 for pt in a.points)


@pytest.mark.parametrize("mc", [dict(mc_trials=1_000), dict(seed=4242)])
def test_sweep_mc_requires_trials_and_seed(mc, links, deriveds):
    (absent,) = {"mc_trials", "seed"} - set(mc)
    with pytest.raises(ValueError, match=rf"^{absent}: must be an integer \(got None\)$"):
        sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), deriveds["case1"], links["case1"], **mc)


@pytest.mark.parametrize("mc, named", [
    (dict(mc_trials=True, seed=1), "mc_trials: must be an integer (got True)"),
    (dict(mc_trials=0, seed=1), "mc_trials: must be >= 1 (got 0)"),
    (dict(mc_trials=1_000, seed=-1), "seed: must be >= 0 (got -1)"),
    (dict(mc_trials=1_000, seed=1, workers=0), "workers: must be >= 1 (got 0)"),
])
def test_sweep_refuses_a_bad_count_before_any_work(mc, named, links, deriveds, monkeypatch):
    # the exact curve, computed first, must not run before Monte Carlo's inputs are refused
    monkeypatch.setattr(analysis, "power_grid", None)
    monkeypatch.setattr(analysis, "mc_ber", None)
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        sweep([BerMethod.EXACT, BerMethod.MONTE_CARLO], (-4.0, 0.0, 2.0), deriveds["case1"],
              links["case1"], **mc)


def test_sweep_mc_points_keep_their_estimates(links, deriveds):
    for case in ("case1", "case2", "case3"):
        link, d = links[case], deriveds[case]
        (curve,) = sweep({BerMethod.MONTE_CARLO}, (6.0, 16.0, 2.0), d, link,
                         mc_trials=1_000, seed=7)
        for pt in curve.points:
            assert pt.mc == mc_ber(dbm_to_watts(pt.p_dbm), d, link, 1_000, 7)
            assert pt.ber == pt.mc.ber
    assert any(pt.mc.low_confidence for pt in curve.points)


def test_sweep_mc_is_one_mc_ber_call_over_the_grid(monkeypatch, links, deriveds):
    # the sweep looks mc_ber up in analysis at call time, so a wrapper put there
    # (a tracer, say) sees every Monte Carlo trial the sweep runs
    from fso_ber import analysis

    calls = []

    def recording(p_watts, *args):
        calls.append(list(p_watts))
        return mc_ber(p_watts, *args)

    monkeypatch.setattr(analysis, "mc_ber", recording)
    (curve,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), deriveds["case1"],
                     links["case1"], mc_trials=1_000, seed=3)
    assert calls == [[dbm_to_watts(p) for p in (-4.0, -2.0, 0.0)]]
    assert [pt.p_dbm for pt in curve.points] == [-4.0, -2.0, 0.0]


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
def test_sweep_mc_errors_never_rise_with_power(links, deriveds, case):
    (curve,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 16.0, 0.5), deriveds[case], links[case],
                     mc_trials=100_000, seed=11)
    errors = [pt.mc.errors for pt in curve.points]
    assert all(b <= a for a, b in zip(errors, errors[1:])), errors
    assert errors[0] > errors[-1]


def test_fec_crossing_case1_frozen(links, deriveds):
    report = fec_crossing(BerMethod.EXACT, FEC, deriveds["case1"], links["case1"])
    assert report.p_cross_dbm == pytest.approx(-1.0687, abs=2e-3)
    lo, hi = report.bracket
    assert hi - lo <= 1e-3 + 1e-12


@pytest.mark.parametrize("threshold, what", [
    ("0.1", "a finite number"), (True, "a finite number"), (None, "a finite number"),
    (math.nan, "a finite number"), (0.0, "in (0, 0.5)"), (0.5, "in (0, 0.5)"),
])
def test_fec_crossing_refuses_a_bad_threshold_by_name(threshold, what, links, deriveds,
                                                      monkeypatch):
    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, None)  # refused before any BER call
    message = f"threshold: must be {what} (got {threshold!r})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fec_crossing(BerMethod.EXACT, threshold, deriveds["case1"], links["case1"])


def test_fec_crossing_bracket_straddles(links, deriveds):
    from fso_ber import ber_exact

    link, d = links["case1"], deriveds["case1"]
    report = fec_crossing(BerMethod.EXACT, FEC, d, link)
    lo, hi = report.bracket
    assert ber_exact(dbm_to_watts(lo), d, link) > FEC > ber_exact(dbm_to_watts(hi), d, link)


def test_fec_crossing_resolution_invariance(links, deriveds, monkeypatch):
    # the crossing is the one lattice cell that straddles the threshold, so on
    # a lattice of half the cell it is one of the two halves of that cell
    link, d = links["case1"], deriveds["case1"]
    assert analysis._CELL_DB == 2.0 ** -10
    coarse = fec_crossing(BerMethod.EXACT, FEC, d, link)
    monkeypatch.setattr(analysis, "_CELL_DB", 2.0 ** -11)
    fine = fec_crossing(BerMethod.EXACT, FEC, d, link)
    assert fine.bracket[1] - fine.bracket[0] == 2.0 ** -11
    assert fine.bracket[0] in coarse.bracket or fine.bracket[1] in coarse.bracket
    assert coarse.bracket[0] <= fine.bracket[0] < fine.bracket[1] <= coarse.bracket[1]


def test_fec_crossing_near_low_power_end(links, deriveds):
    # BER -> 0.5 as P -> 0, so a threshold just below the low-power plateau
    # brackets near the bottom of the search window
    report = fec_crossing(BerMethod.EXACT, 0.45, deriveds["case1"], links["case1"])
    assert report.p_cross_dbm < -10.0


def test_fec_crossing_unreachable_threshold(links, deriveds):
    with pytest.raises(BracketError):
        fec_crossing(BerMethod.EXACT, 0.499, deriveds["case1"], links["case1"])


def test_fec_crossing_threshold_below_every_ber_in_the_window(links, deriveds):
    match = (r"^exact: BER\(30 dBm\) = \S+ never drops below threshold 1\.000e-300 "
             r"up to 30 dBm$")
    with pytest.raises(BracketError, match=match):
        fec_crossing(BerMethod.EXACT, 1e-300, deriveds["case1"], links["case1"])


def test_fec_crossing_rejects_mc_and_bad_threshold(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    with pytest.raises(ValueError):
        fec_crossing(BerMethod.MONTE_CARLO, FEC, d, link)
    with pytest.raises(ValueError):
        fec_crossing(BerMethod.EXACT, 0.7, d, link)


def test_fec_crossing_within_one_grid_step_of_sweep(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    (curve,) = sweep({BerMethod.EXACT}, (-4.0, 16.0, 0.5), d, link)
    crossing = fec_crossing(BerMethod.EXACT, FEC, d, link).p_cross_dbm
    straddles = [
        (a.p_dbm, b.p_dbm)
        for a, b in zip(curve.points[:-1], curve.points[1:])
        if a.ber > FEC >= b.ber
    ]
    assert len(straddles) == 1
    lo, hi = straddles[0]
    assert lo - 1e-9 <= crossing <= hi + 1e-9


def test_non_monotone_detection(monkeypatch, links, deriveds):
    # forces bracket expansion over a region where the samples rise with power
    def bumpy(p_watts, d, link, tol=None):
        p_dbm = 10.0 * math.log10(p_watts) + 30.0
        if p_dbm <= -10.0:
            return 0.1
        if p_dbm <= -6.0:
            return 1e-3
        if p_dbm <= 0.0:
            return 2e-3
        return 1e-4

    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, bumpy)
    with pytest.raises(NonMonotoneError):
        fec_crossing(BerMethod.EXACT, FEC, deriveds["case1"], links["case1"])


def test_delta_antisymmetric(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    ab = delta(BerMethod.EXACT, BerMethod.APPROX_NEW, FEC, d, link)
    ba = delta(BerMethod.APPROX_NEW, BerMethod.EXACT, FEC, d, link)
    assert ab == -ba
    assert delta(BerMethod.EXACT, BerMethod.EXACT, FEC, d, link) == 0.0


def test_delta_is_the_gap_between_the_crossings(links, deriveds):
    link, d = links["case2"], deriveds["case2"]
    a = fec_crossing(BerMethod.EXACT, FEC, d, link)
    b = fec_crossing(BerMethod.APPROX_NEW, FEC, d, link)
    assert power_gap(a, b) == b.p_cross_dbm - a.p_cross_dbm
    assert delta(BerMethod.EXACT, BerMethod.APPROX_NEW, FEC, d, link) == power_gap(a, b)


def test_delta_case1_split_kernel_gap(links, deriveds):
    gap = delta(BerMethod.EXACT, BerMethod.APPROX_NEW, FEC, deriveds["case1"], links["case1"])
    assert gap == pytest.approx(0.0651, abs=3e-3)


# --- crossing search contract, counted in BER calls ----------------------------


def _p_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


def _bisect(ber, lo: float, hi: float, threshold: float) -> tuple[float, int]:
    """Plain bisection over the crossing lattice's indices down to one cell,
    from the lattice points lo and hi: (midpoint, BER calls)."""
    cell = analysis._CELL_DB
    a, b = round(lo / cell), round(hi / cell)
    assert (a * cell, b * cell) == (lo, hi)
    assert ber(lo) > threshold >= ber(hi)
    calls = 2
    while b - a > 1:
        m = (a + b) // 2
        calls += 1
        if ber(m * cell) > threshold:
            a = m
        else:
            b = m
    return 0.5 * (a * cell + b * cell), calls


def _stub_crossing(monkeypatch, links, deriveds, ber_dbm):
    """fec_crossing of exact replaced by ``ber_dbm`` on dBm; returns (report, probes)."""
    probes = []

    def stub(p_watts, d, link, tol=None):
        probes.append(p_watts)
        return ber_dbm(_p_dbm(p_watts))

    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, stub)
    report = fec_crossing(BerMethod.EXACT, FEC, deriveds["case1"], links["case1"])
    return report, probes


def _assert_valid_bracket(report, ber_dbm):
    """The bracket is two lattice points one cell apart that straddle FEC."""
    lo, hi = report.bracket
    assert ber_dbm(lo) > FEC >= ber_dbm(hi)
    assert lo / analysis._CELL_DB == math.floor(lo / analysis._CELL_DB)
    assert hi - lo == analysis._CELL_DB
    assert report.p_cross_dbm == 0.5 * (lo + hi)


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
@pytest.mark.parametrize("method", (BerMethod.EXACT, BerMethod.APPROX_NEW))
def test_fec_crossing_ber_calls_on_presets(monkeypatch, links, deriveds, case, method):
    fn = _ANALYTIC[method]
    calls = []

    def counting(p_watts, d, link, tol=None):
        calls.append(p_watts)
        return fn(p_watts, d, link)

    monkeypatch.setitem(_ANALYTIC, method, counting)
    fec_crossing(method, FEC, deriveds[case], links[case])
    assert len(calls) <= 9


def _step_like(p_step):
    # strictly decreasing, but log BER drops by 20 within about 0.1 dB of p_step,
    # where a secant through the bracket ends predicts the root poorly
    return lambda p: FEC * math.exp(-0.01 * (p - p_step) - 10.0 * math.tanh(20.0 * (p - p_step)))


def _flat_at_root(p_root):
    # log BER is -(p - p_root)**3: zero slope at the root, so the secant steps
    # creep and only the projection towards the midpoint bounds the count
    return lambda p: FEC * math.exp(-(p - p_root) ** 3)


@pytest.mark.parametrize("ber_dbm", [_step_like(-3.7), _step_like(3.3), _step_like(15.9),
                                     _flat_at_root(3.3)],
                         ids=["step-3.7", "step3.3", "step15.9", "flat3.3"])
def test_fec_crossing_within_bisection_count_plus_one(monkeypatch, links, deriveds, ber_dbm):
    report, probes = _stub_crossing(monkeypatch, links, deriveds, ber_dbm)
    _assert_valid_bracket(report, ber_dbm)
    _, bisection_calls = _bisect(ber_dbm, -4.0, 16.0, FEC)
    assert len(probes) <= bisection_calls + 1


def test_fec_crossing_ber_underflow_above_crossing(monkeypatch, links, deriveds):
    # BER is exactly 0.0 from 2.5 dBm up, so the first bracket's upper end
    # and later probes have no logarithm, and equal zeros are no defect
    def ber_dbm(p):
        return FEC * math.exp(-(p - 2.0)) if p < 2.5 else 0.0

    report, probes = _stub_crossing(monkeypatch, links, deriveds, ber_dbm)
    _assert_valid_bracket(report, ber_dbm)
    assert sum(ber_dbm(_p_dbm(p)) == 0.0 for p in probes) >= 2
    assert abs(report.p_cross_dbm - 2.0) <= 1e-3


def test_non_monotone_between_refinement_probes(monkeypatch, links, deriveds):
    def smooth(p):
        return FEC * math.exp(-(p - 2.0))

    _, probes = _stub_crossing(monkeypatch, links, deriveds, smooth)
    refinement = probes[2:]  # after the -4 and 16 dBm bracket probes
    last = refinement[-1]
    last_above = smooth(_p_dbm(last)) > FEC
    # the refinement probe that the last one replaced as a bracket end
    (prev, *_) = sorted((p for p in refinement[:-1]
                         if (smooth(_p_dbm(p)) > FEC) == last_above),
                        key=lambda p: abs(p - last))
    # the same curve, except that the last probe reads a BER on the same side
    # of the threshold but out of order with its neighbour: the search takes
    # the same steps, and only the final check can see the rise
    bumped = smooth(_p_dbm(prev)) * (2.0 if last_above else 0.5)

    def rising(p):
        return bumped if p == _p_dbm(last) else smooth(p)

    with pytest.raises(NonMonotoneError):
        _stub_crossing(monkeypatch, links, deriveds, rising)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    log_pointing=st.floats(math.log10(1e-3), 0.0),
    log_rytov=st.floats(-6.0, 0.0),
    method=st.sampled_from((BerMethod.EXACT, BerMethod.APPROX_NEW)),
)
def test_fec_crossing_matches_bisection(log_pointing, log_rytov, method):
    from fso_ber import PRESETS, LinkParams, analysis, derive

    link = LinkParams(**dict(PRESETS["case1"], pointing_std_m=10.0 ** log_pointing,
                             rytov_variance=10.0 ** log_rytov))
    d = derive(link)
    try:
        report = fec_crossing(method, FEC, d, link)
    except (BracketError, NonMonotoneError):
        return

    def ber_dbm(p):
        return _ANALYTIC[method](dbm_to_watts(p), d, link)

    _assert_valid_bracket(report, ber_dbm)
    reference, _ = _bisect(ber_dbm, analysis._P_FLOOR, analysis._P_CEIL, FEC)
    assert report.p_cross_dbm == reference


# --- crossings seeded from the process's last sweep ---------------------------


def _crossing_outcome(method, d, link):
    """The crossing's midpoint and bracket as float hexes, or the exception."""
    try:
        report = fec_crossing(method, FEC, d, link)
    except Exception as exc:
        return type(exc), str(exc)
    return report.p_cross_dbm.hex(), *(p.hex() for p in report.bracket)


def _counting(monkeypatch, method):
    """Replace ``method``'s BER by a wrapper that counts its calls: one object,
    so a sweep records it and a crossing of the same method can use it."""
    fn, calls = _ANALYTIC[method], []

    def counting(p_watts, d, link, tol=None):
        calls.append(p_watts)
        return fn(p_watts, d, link)

    monkeypatch.setitem(_ANALYTIC, method, counting)
    return calls


@pytest.mark.parametrize("method", (BerMethod.EXACT, BerMethod.APPROX_NEW))
def test_fec_crossing_does_not_depend_on_the_sweeps_before_it(monkeypatch, method):
    # on the fingerprint's 19 links, beta about 1e-3 to 1e6
    calls = _counting(monkeypatch, method)
    other = LinkParams(**dict(PRESETS["case1"], pointing_std_m=0.3))
    d_other = derive(other)
    seeded = unseeded = 0
    for fields in _links():
        link = LinkParams(**fields)
        d = derive(link)
        monkeypatch.setattr(analysis, "_last_sweep", None)
        calls.clear()
        alone = _crossing_outcome(method, d, link)
        unseeded += len(calls)
        for grid in (DEFAULT_SWEEP, (-4.0, 16.0, 0.3), (6.0, 16.0, 1.0)):
            try:
                sweep([method], grid, d, link)
            except Exception:
                pass
            calls.clear()
            assert _crossing_outcome(method, d, link) == alone, (fields, grid)
            if grid == DEFAULT_SWEEP:
                seeded += len(calls)
        sweep([method], DEFAULT_SWEEP, d, link)
        sweep([method], DEFAULT_SWEEP, d_other, other)
        assert _crossing_outcome(method, d, link) == alone, fields
    # the default sweep's points are lattice points, so it saves most calls
    assert seeded < unseeded / 2


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
@pytest.mark.parametrize("method", (BerMethod.EXACT, BerMethod.APPROX_NEW))
def test_fec_crossing_after_a_default_sweep_probes_only_its_bracket(monkeypatch, links,
                                                                    deriveds, case, method):
    calls = _counting(monkeypatch, method)
    sweep([method], DEFAULT_SWEEP, deriveds[case], links[case])
    calls.clear()
    report = fec_crossing(method, FEC, deriveds[case], links[case])
    assert sorted(calls) == [dbm_to_watts(p) for p in report.bracket]


def test_fec_crossing_after_a_sweep_calls_a_function_patched_since(monkeypatch, links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    sweep([BerMethod.EXACT], DEFAULT_SWEEP, d, link)
    calls = []

    def stub(p_watts, d, link, tol=None):
        calls.append(p_watts)
        return FEC * math.exp(-(_p_dbm(p_watts) - 3.3))

    monkeypatch.setitem(_ANALYTIC, BerMethod.EXACT, stub)
    report = fec_crossing(BerMethod.EXACT, FEC, d, link)
    assert abs(report.p_cross_dbm - 3.3) <= analysis._CELL_DB
    assert dbm_to_watts(-4.0) in calls  # the swept BER at -4 dBm was not reused


def test_a_sweep_that_raises_leaves_nothing_to_seed_a_crossing(monkeypatch, links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    calls = _counting(monkeypatch, BerMethod.EXACT)
    fec_crossing(BerMethod.EXACT, FEC, d, link)
    unseeded = len(calls)
    sweep([BerMethod.EXACT], DEFAULT_SWEEP, d, link)

    def failing(*args, **kwargs):
        raise RuntimeError("no trials")

    monkeypatch.setattr(analysis, "mc_ber", failing)
    # exact's points are computed before Monte Carlo fails
    with pytest.raises(RuntimeError, match="no trials"):
        sweep([BerMethod.EXACT, BerMethod.MONTE_CARLO], DEFAULT_SWEEP, d, link,
              mc_trials=10, seed=0)
    calls.clear()
    fec_crossing(BerMethod.EXACT, FEC, d, link)
    assert len(calls) == unseeded > 2


def test_seeded_crossing_checks_its_probes_against_the_sweep(monkeypatch, links, deriveds):
    # 2.5 dBm, a sweep point, reads the threshold itself: on the right side of
    # it, but above the BERs probed between 2.0 and 2.5 dBm
    def ber_dbm(p):
        return FEC if p == 2.5 else FEC * math.exp(-(p - 2.2))

    report, _ = _stub_crossing(monkeypatch, links, deriveds, ber_dbm)  # no sweep: no rise seen
    _assert_valid_bracket(report, ber_dbm)
    sweep([BerMethod.EXACT], DEFAULT_SWEEP, deriveds["case1"], links["case1"])
    with pytest.raises(NonMonotoneError, match=r"and 2\.5 dBm \(3\.840000e-03\)$"):
        fec_crossing(BerMethod.EXACT, FEC, deriveds["case1"], links["case1"])
