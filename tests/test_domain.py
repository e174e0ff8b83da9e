"""The analytic BERs and the gain density over the whole domain LinkParams
accepts, against an independent reference.

The reference integrates the v-space BER integrand

    f(v) = 0.5 E(u) (beta/2) exp(beta v - beta^2/4) E(v),   u = c h(v),

with mpmath, E being erfc (exact) or the two-branch erfc approximation
(approx-new) written again here. It shares neither the package's integration
window nor its integrator: it finds where f has mass from f itself. log f is
concave on v < 0 and on v > 0 (the approximation's density has a kink at 0),
so on each side a golden-section search finds the maximum of log f in float
arithmetic, and bisection finds where log f lies _STEP, 2 _STEP, ... below
the overall maximum, down to _DEPTH. Those points, and breakpoints near 0 and
beta/2 where the density changes on a unit scale, split the integral for
mpmath's Gauss-Legendre quadrature.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fso_ber import (
    PRESETS,
    BerMethod,
    LinkParams,
    NonConvergenceError,
    RegimeError,
    ber_approx_new,
    ber_approx_prev,
    ber_exact,
    dbm_to_watts,
    delta,
    derive,
    erfc_approx,
    fec_crossing,
    integrate,
    log_gain_pdf,
)
from fso_ber import ber as ber_module
from fso_ber.analysis import _CELL_DB, power_grid
from fso_ber.channel import log_gain_of, log_gain_window
from fso_ber.config import DEFAULT_FEC_THRESHOLD, DEFAULT_SWEEP
from test_ber import LINK_DOMAIN

POINTING_M = (1e-3, 1e-2, 1e-1, 1.0)
RYTOV = (1e-6, 0.1, 0.5, 1.0)
P_DBM = (-10.0, 0.0, 10.0)
# a wider 5 x 5 x 9 grid, checked against properties rather than a reference
GRID_POINTING_M = (1e-3, 1e-2, 0.1, 1.0, 3.0)
GRID_RYTOV = (1e-6, 1e-3, 0.1, 0.5, 1.0)
GRID_P_DBM = range(-80, 81, 20)

_DEPTH = 70.0  # log f is integrated down to exp(-70) of its maximum
_STEP = 10.0
_NEAR = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)  # breakpoint offsets around 0 and beta/2
_SQRT_PI = math.sqrt(math.pi)
_C_NEG = math.pi / math.sqrt(6.0)


def _link(pointing_m, rytov):
    return LinkParams(**dict(PRESETS["case1"], pointing_std_m=pointing_m, rytov_variance=rytov))


def _log_erfc(x):
    if x < 25.0:
        return math.log(math.erfc(x))
    return -x * x - math.log(x * _SQRT_PI)  # to within 1/(2 x^2); enough to place splits


def _log_erfc_approx(x):
    if x < 0.0:
        return math.log1p(math.tanh(-_C_NEG * x))
    return math.log(2.0 / _SQRT_PI) - x * x - math.log(x + math.sqrt(x * x + 4.0 / math.pi))


def _erfc_approx_mp(z):
    if z >= 0:
        return 2 / mp.sqrt(mp.pi) * mp.exp(-z * z) / (z + mp.sqrt(z * z + 4 / mp.pi))
    return 1 + mp.tanh(-mp.pi / mp.sqrt(6) * z)


_KERNELS = {ber_exact: (mp.erfc, _log_erfc), ber_approx_new: (_erfc_approx_mp, _log_erfc_approx)}


def _argmax(g, a, z):
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        m1, m2 = z - r * (z - a), a + r * (z - a)
        if g(m1) < g(m2):
            a = m1
        else:
            z = m2
    return 0.5 * (a + z)


def _crossing(g, inside, outside, level):
    for _ in range(60):
        m = 0.5 * (inside + outside)
        if g(m) >= level:
            inside = m
        else:
            outside = m
    return inside


def reference_ber(method, link, p_dbm):
    """The method's average BER by mpmath, from the raw link fields and derive's
    beta, A0 h_l and mu."""
    d = derive(link)
    e, log_e = _KERNELS[method]
    beta, s = d.beta, math.sqrt(2.0 * link.rytov_variance)
    c = link.responsivity_a_per_w * dbm_to_watts(p_dbm) / (math.sqrt(2.0) * link.noise_std)
    ln_u0 = math.log(c * d.a0_h_l) - d.mu  # ln u at v = 0

    def log_f(v):
        ln_u = ln_u0 + s * v
        if ln_u > 12.0:  # erfc(e^12) is far below the smallest float
            return -math.inf
        return (log_e(math.exp(ln_u)) + math.log(beta / 4.0) + beta * v - beta * beta / 4.0
                + log_e(v))

    b, s_mp, ln_u0_mp = mp.mpf(beta), mp.mpf(s), mp.mpf(ln_u0)

    def f(v):
        ln_u = ln_u0_mp + s_mp * v
        if ln_u > 12:
            return mp.zero
        return e(mp.exp(ln_u)) * b / 4 * mp.exp(b * v - b * b / 4) * e(v)

    sides = [(-1e7, 0.0), (0.0, 0.5 * beta + 40.0)]
    peaks = [_argmax(log_f, a, z) for a, z in sides]
    top = max(map(log_f, peaks))
    pts = set()
    for (a, z), peak in zip(sides, peaks):
        level = top - _DEPTH
        while level <= log_f(peak):
            pts.add(_crossing(log_f, peak, a, level) if log_f(a) < level else a)
            pts.add(_crossing(log_f, peak, z, level) if log_f(z) < level else z)
            level += _STEP
    lo, hi = min(pts), max(pts)
    assert lo > -1e7, "the reference's search range is too narrow"
    for centre in (0.0, 0.5 * beta):
        pts.update(x for k in _NEAR for x in (centre - k, centre + k) if lo < x < hi)
    with mp.workdps(15):
        return float(mp.quad(f, sorted(pts), method="gauss-legendre"))


# Tolerance() asks each of at most six segments for max(1e-9 |value|, 1e-15).
# So a BER above about 1e-6 must match to 1e-8 relative. Below that, the
# abs_tol floor sets the accuracy, and the package promises only 1e-14
# absolute. At 10 dBm:
# - rytov 0.1: about 1.55e-19, off by 4e-4 relative;
# - (0.1 m, rytov 1e-6): 6.46e-111, where the reference gives 5.66e-95.
#   There the mass of f lies near v = -1200, below the window's lower edge at
#   -865, which drops only exp(-120) of the density's mass;
# - (1 mm and 1 cm, rytov 1e-6): 0.0, where the reference gives about 1e-650.
_REL_TOL = 1e-8
_ABS_TOL = 1e-14


# A link of the benchmark's scan-analytic workload (seed 42, beta 74.4). At
# 0 dBm exact gives 1.4080895958077634e-06 and the reference here
# 1.4080895958077621e-06; the benchmark's double-integral reference, which
# splits its turbulence integral only where c h = 1, reads 1.9e-6 lower.
_BENCH_LINK = (0.04829719884575354, 0.015655530797752306)
_REFERENCE_POINTS = [(pm, r, p) for pm in POINTING_M for r in RYTOV for p in P_DBM] + [
    (*_BENCH_LINK, p) for p in (-0.5, 0.0, 0.5)]


@pytest.mark.parametrize("method", (ber_exact, ber_approx_new), ids=("exact", "approx-new"))
@pytest.mark.parametrize("pointing_m, rytov, p_dbm", _REFERENCE_POINTS)
def test_ber_matches_independent_reference(pointing_m, rytov, p_dbm, method):
    link = _link(pointing_m, rytov)
    got = method(dbm_to_watts(p_dbm), derive(link), link)
    assert got == pytest.approx(reference_ber(method, link, p_dbm), rel=_REL_TOL, abs=_ABS_TOL)


def test_reference_at_the_large_beta_link():
    # (1 cm, rytov 1, -10 dBm): a v-space mpmath integral split every 0.5
    # around beta/2 gives 0.329783, and 4e5 MC trials [0.3276, 0.3314]
    assert reference_ber(ber_exact, _link(1e-2, 1.0), -10.0) == pytest.approx(0.329783, rel=2e-6)


@pytest.mark.parametrize("rytov", RYTOV)
@pytest.mark.parametrize("pointing_m", POINTING_M)
def test_density_has_unit_mass_over_its_window(pointing_m, rytov):
    # Split at 0, at beta/2 and 4 below 0, where the density's erfc factor is
    # within 2e-8 of 2. At (1 m, rytov 1e-6), beta ~ 1.4e-3 and the window
    # starts near -86 500: one rule over [lo, 0] steps over the unit-width
    # fall of erfc(v) from 2 to 1 and reports 1.0004.
    d = derive(_link(pointing_m, rytov))
    lo, hi = log_gain_window(d)
    pts = [lo] + [p for p in (-4.0, 0.0, 0.5 * d.beta) if lo < p < hi] + [hi]
    mass = sum(integrate(lambda v: log_gain_pdf(v, d), a, b).value for a, b in zip(pts, pts[1:]))
    assert mass == pytest.approx(1.0, rel=0.0, abs=1e-10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    log_pointing=st.floats(-3.0, 0.0),
    log_rytov=st.floats(-6.0, 0.0),
    p1_dbm=st.floats(-10.0, 16.0),
    p2_dbm=st.floats(-10.0, 16.0),
    method=st.sampled_from((ber_exact, ber_approx_new)),
)
@example(log_pointing=-2.0, log_rytov=0.0, p1_dbm=-10.0, p2_dbm=-8.0, method=ber_exact)
@example(log_pointing=-2.0, log_rytov=0.0, p1_dbm=-10.0, p2_dbm=-8.0, method=ber_approx_new)
def test_ber_is_non_increasing_in_power(log_pointing, log_rytov, p1_dbm, p2_dbm, method):
    # at (1 cm, rytov 1, -10 -> -8 dBm) a window that misses mass below the
    # density peak gives a rise from 0.197 to 0.198; the reference gives 0.330
    # and 0.268
    link = _link(10.0**log_pointing, 10.0**log_rytov)
    d = derive(link)
    low, high = sorted((p1_dbm, p2_dbm))
    at_low = method(dbm_to_watts(low), d, link)
    at_high = method(dbm_to_watts(high), d, link)
    # equal up to the accuracy asked of each (see _REL_TOL)
    assert at_high <= at_low + max(_REL_TOL * at_low, _ABS_TOL)


@pytest.mark.parametrize("rytov", GRID_RYTOV)
@pytest.mark.parametrize("pointing_m", GRID_POINTING_M)
def test_every_ber_is_a_finite_number_or_a_documented_refusal(pointing_m, rytov):
    # the BER integrand checks no range of its own; it relies on every node of
    # every window keeping u finite, the density positive and approx-prev's
    # 1/u weight finite, so nothing here may raise IntegrandError,
    # ZeroDivisionError or OverflowError
    link = _link(pointing_m, rytov)
    d = derive(link)
    for p_dbm in GRID_P_DBM:
        p = dbm_to_watts(p_dbm)
        for method in (ber_exact, ber_approx_new):
            value = method(p, d, link)
            assert type(value) is float and math.isfinite(value) and value >= 0.0, p_dbm
        try:
            value = ber_approx_prev(p, d, link)
        except (NonConvergenceError, RegimeError):
            continue
        assert type(value) is float and math.isfinite(value) and value >= 0.0, p_dbm


def test_window_is_continuous_where_its_lower_end_changes_form():
    edge = 2.0 * math.sqrt(120.0)
    below = log_gain_window(SimpleNamespace(beta=math.nextafter(edge, 0.0)))
    above = log_gain_window(SimpleNamespace(beta=edge))
    assert below[0] == pytest.approx(0.0, abs=1e-14)
    assert above[0] == pytest.approx(0.0, abs=1e-14)
    assert above[1] - below[1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("method, start", ((ber_exact, -math.inf), (ber_approx_new, -math.inf),
                                           (ber_approx_prev, 0.0)),
                         ids=("exact", "approx-new", "approx-prev"))
@pytest.mark.parametrize("pointing_m, rytov, p_dbm", (
    (1e-2, 1.0, -10.0),  # beta ~ 1.4e4: the window starts far above 0
    (3e-2, 1.0, 6.0),  # beta ~ 1.5e3
    (1e-1, 0.1, 10.0),  # beta ~ 44: u reaches 40 inside the window
    (1.0, 0.1, 16.0),  # beta ~ 0.44: u reaches 40 below 0
    *((0.25, 0.5, p) for p in (-2.0, 4.0, 10.0)),  # case2
    *((0.2, 0.9, p) for p in (-2.0, 4.0, 10.0)),  # case3
))
def test_integrand_is_evaluated_only_where_it_has_mass(pointing_m, rytov, p_dbm, method, start,
                                                        monkeypatch):
    nodes = []
    make_integrand = ber_module.weighted_log_gain_density

    def recording_integrand(d, kernel, c, weight):
        f = make_integrand(d, kernel, c, weight)

        def g(v):
            nodes.append(v)
            return f(v)

        return g

    monkeypatch.setattr(ber_module, "weighted_log_gain_density", recording_integrand)
    link = _link(pointing_m, rytov)
    d = derive(link)
    p = dbm_to_watts(p_dbm)
    try:
        method(p, d, link)
    except RegimeError:  # approx-prev at -10 dBm, where its 1/u kernel passes 0.5
        pass
    lo = max(log_gain_window(d)[0], start)
    c = link.responsivity_a_per_w * p / (math.sqrt(2.0) * link.noise_std)
    v_cutoff = log_gain_of(40.0 / c, d)  # u = c h(v) = 40
    assert all(lo <= v <= v_cutoff + 1e-9 * abs(v_cutoff) for v in nodes)
    # and each once
    assert len(set(nodes)) == len(nodes)


@pytest.mark.parametrize("method", (ber_exact, ber_approx_new, ber_approx_prev),
                         ids=("exact", "approx-new", "approx-prev"))
def test_power_with_empty_window_has_zero_ber(method, monkeypatch):
    # at 16 dBm, u = c h(v) passes 40 below the window's lower end
    link = _link(0.1, 1e-6)
    d = derive(link)
    p = dbm_to_watts(16.0)
    c = link.responsivity_a_per_w * p / (math.sqrt(2.0) * link.noise_std)
    assert log_gain_of(40.0 / c, d) < log_gain_window(d)[0]
    monkeypatch.setattr(ber_module, "integrate", None)  # nothing is integrated
    assert method(p, d, link) == 0.0


# approx-new is exact's integrand with erfc_approx E in place of erfc in both
# factors, E(u) and E(v). u = c h(v) is never negative, so E(u) / erfc(u) lies
# in [POS_MIN, POS_MAX]; v takes either sign. So at every link and power, and
# over the same window, approx-new / exact lies in [RATIO_LOW, RATIO_HIGH]:
# the package's quantitative form of the paper's "accurately predicts the
# true BER". The extremes of E / erfc, found at 30 digits and rounded
# outwards to 8:
POS_MIN = 1.0  # at z = 0, where E = erfc = 1; the ratio tends to 1 as z -> inf
POS_MAX = 1.0582772  # at z = 0.634357
NEG_MIN = 0.99544947  # at z = -1.673876; the ratio tends to 1 as z -> -inf
NEG_MAX = 1.0307598  # at z = -0.412955
RATIO_LOW = POS_MIN * min(POS_MIN, NEG_MIN)  # 0.99545
RATIO_HIGH = POS_MAX * max(POS_MAX, NEG_MAX)  # 1.11995


def test_erfc_approx_ratio_extremes_are_pinned():
    with mp.workdps(30):
        def ratio(z):
            return _erfc_approx_mp(z) / mp.erfc(z)

        # a scan of [-8, 8] by 0.01, with the far tails at +-8 * 2^k, then a
        # golden-section search in mpmath around each extreme the scan finds
        pos = [mp.mpf(k) / 100 for k in range(801)] + [8 * mp.mpf(2) ** k for k in range(1, 11)]
        neg = [-z for z in pos[1:]]
        derived = {}
        for name, zs, sign in (("pos_min", pos, -1), ("pos_max", pos, 1),
                               ("neg_min", neg, -1), ("neg_max", neg, 1)):
            values = [sign * ratio(z) for z in zs]
            i = values.index(max(values))
            if 0 < i < 800:
                z = _argmax(lambda z: sign * ratio(z), *sorted((zs[i - 1], zs[i + 1])))
            else:
                z = zs[i]
            derived[name] = (float(z), ratio(z))
    assert derived["pos_min"] == (0.0, 1)
    pos_max_z, pos_max = derived["pos_max"]
    neg_min_z, neg_min = derived["neg_min"]
    neg_max_z, neg_max = derived["neg_max"]
    assert POS_MAX - 1e-7 < pos_max <= POS_MAX and pos_max_z == pytest.approx(0.634357, abs=1e-6)
    assert NEG_MIN <= neg_min < NEG_MIN + 1e-8 and neg_min_z == pytest.approx(-1.673876, abs=1e-6)
    assert NEG_MAX - 1e-7 < neg_max <= NEG_MAX and neg_max_z == pytest.approx(-0.412955, abs=1e-6)
    # the package's float erfc_approx is the formula the extremes were found on
    for z, value in derived.values():
        assert erfc_approx(z) / math.erfc(z) == pytest.approx(float(value), rel=1e-14)


def _assert_ratio_bound(link, powers_dbm):
    d = derive(link)
    for p_dbm in powers_dbm:
        p = dbm_to_watts(p_dbm)
        exact, approx = ber_exact(p, d, link), ber_approx_new(p, d, link)
        # each value is within max(_REL_TOL |value|, _ABS_TOL) of its integral
        slack = max(_REL_TOL * approx, _ABS_TOL) + RATIO_HIGH * max(_REL_TOL * exact, _ABS_TOL)
        assert RATIO_LOW * exact - slack <= approx <= RATIO_HIGH * exact + slack, p_dbm


@pytest.mark.parametrize("rytov", GRID_RYTOV)
@pytest.mark.parametrize("pointing_m", GRID_POINTING_M)
def test_approx_new_within_a_fixed_factor_of_exact(pointing_m, rytov):
    _assert_ratio_bound(_link(pointing_m, rytov), GRID_P_DBM)


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
def test_approx_new_within_a_fixed_factor_of_exact_on_the_presets(case):
    _assert_ratio_bound(LinkParams(**PRESETS[case]), power_grid(*DEFAULT_SWEEP))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(**LINK_DOMAIN)
def test_approx_new_within_a_fixed_factor_of_exact_on_a_drawn_domain(p_dbm, log_pointing,
                                                                      log_rytov):
    _assert_ratio_bound(_link(10.0 ** log_pointing, 10.0 ** log_rytov), [p_dbm])


def _assert_gap_bound(link):
    # BER falls with power, so approx-new reaches t where exact reaches a
    # value in [t / RATIO_HIGH, t / RATIO_LOW]. At 3.84e-3 the gap bounds are
    # [-0.0040, +0.0989] dB for case1, [-0.0063, +0.1556] for case2 and
    # [-0.0079, +0.1959] for case3. Each crossing lies within half the
    # resolution of its root, and each side below compares two crossings.
    d = derive(link)
    t = DEFAULT_FEC_THRESHOLD

    def p_exact(threshold):
        return fec_crossing(BerMethod.EXACT, threshold, d, link).p_cross_dbm

    gap = delta(BerMethod.EXACT, BerMethod.APPROX_NEW, t, d, link)
    assert gap >= p_exact(t / RATIO_LOW) - p_exact(t) - _CELL_DB
    assert gap <= p_exact(t / RATIO_HIGH) - p_exact(t) + _CELL_DB


@pytest.mark.parametrize("case", ("case1", "case2", "case3"))
def test_fec_gap_within_the_ratio_bound(case):
    _assert_gap_bound(LinkParams(**PRESETS[case]))


@pytest.mark.parametrize("rytov", RYTOV)
@pytest.mark.parametrize("pointing_m", POINTING_M)
def test_fec_gap_within_the_ratio_bound_on_the_domain_links(pointing_m, rytov):
    # with the presets, the 19 links of tests/test_fingerprint.py; each has
    # all of these crossings, so none is skipped, and a BracketError fails
    _assert_gap_bound(_link(pointing_m, rytov))
