import math

import pytest

from fso_ber import (
    BracketError,
    IntegrandError,
    McConfig,
    NonConvergenceError,
    NonMonotoneError,
    dbm_to_watts,
    delta,
    fec_crossing,
    sweep,
)
from fso_ber.analysis import _ANALYTIC, power_grid
from fso_ber.ber import BerMethod

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


def test_sweep_empty_methods(links, deriveds):
    assert sweep((), (-4.0, 16.0, 0.5), deriveds["case1"], links["case1"]) == []


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


def test_analytic_sweep_starts_no_thread(monkeypatch, links, deriveds):
    from fso_ber import analysis

    def no_pool(*args, **kwargs):
        raise AssertionError("analytic sweep started a thread pool")

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", no_pool)
    curves = sweep({BerMethod.EXACT, BerMethod.APPROX_NEW}, (-4.0, 0.0, 2.0),
                   deriveds["case1"], links["case1"], workers=2)
    assert [len(c.points) for c in curves] == [3, 3]


def test_sweep_mc_requires_config(links, deriveds):
    with pytest.raises(ValueError):
        sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), deriveds["case1"], links["case1"])


def test_sweep_mc_deterministic_across_workers(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    mc = McConfig(trials=20_000, seed=4242)
    (a,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), d, link, mc=mc, workers=1)
    (b,) = sweep({BerMethod.MONTE_CARLO}, (-4.0, 0.0, 2.0), d, link, mc=mc, workers=3)
    assert a == b
    assert all(pt.ci_low is not None and pt.trials == 20_000 for pt in a.points)


def test_fec_crossing_case1_frozen(links, deriveds):
    report = fec_crossing(BerMethod.EXACT, FEC, deriveds["case1"], links["case1"])
    assert report.p_cross_dbm == pytest.approx(-1.0688, abs=2e-3)
    lo, hi = report.bracket
    assert hi - lo <= 1e-3 + 1e-12


def test_fec_crossing_bracket_straddles(links, deriveds):
    from fso_ber import ber_exact

    link, d = links["case1"], deriveds["case1"]
    report = fec_crossing(BerMethod.EXACT, FEC, d, link)
    lo, hi = report.bracket
    assert ber_exact(dbm_to_watts(lo), d, link) > FEC > ber_exact(dbm_to_watts(hi), d, link)


def test_fec_crossing_resolution_invariance(links, deriveds, monkeypatch):
    from fso_ber import analysis

    link, d = links["case1"], deriveds["case1"]
    assert analysis._RESOLUTION_DB == 1e-3
    coarse = fec_crossing(BerMethod.EXACT, FEC, d, link)
    monkeypatch.setattr(analysis, "_RESOLUTION_DB", 5e-4)
    fine = fec_crossing(BerMethod.EXACT, FEC, d, link)
    assert abs(coarse.p_cross_dbm - fine.p_cross_dbm) <= 1e-3


def test_fec_crossing_near_low_power_end(links, deriveds):
    # BER -> 0.5 as P -> 0, so a threshold just below the low-power plateau
    # brackets near the bottom of the search window
    report = fec_crossing(BerMethod.EXACT, 0.45, deriveds["case1"], links["case1"])
    assert report.p_cross_dbm < -10.0


def test_fec_crossing_unreachable_threshold(links, deriveds):
    with pytest.raises(BracketError):
        fec_crossing(BerMethod.EXACT, 0.499, deriveds["case1"], links["case1"])


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


def test_delta_case1_split_kernel_gap(links, deriveds):
    gap = delta(BerMethod.EXACT, BerMethod.APPROX_NEW, FEC, deriveds["case1"], links["case1"])
    assert gap == pytest.approx(0.0651, abs=3e-3)
