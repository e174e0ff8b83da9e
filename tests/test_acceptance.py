"""Acceptance criteria, one test (or parametrized family) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion and case. Known-red items are implemented exactly as specified
and fail with the measured value in the message. Before failing, each one
checks the cause it states, so a program fault cannot pass for the known red:

* ``test_criterion_1_delta_split_kernel[case1]``: the measured gap is
  0.0654 dB against a 0.21 +/- 0.05 dB target. An independent gain-space
  reference (Gauss-Hermite in the turbulence, ``scipy.integrate.quad`` in the
  pointing term, ``brentq`` crossings) gives 0.0651 dB, and the test asserts
  agreement to 2e-3 dB before the target. It also asserts the cap that
  ``tests/test_domain.py``'s approx-new / exact ratio bound puts on the gap:
  +0.0986 dB at case1, below the target's 0.16 dB lower edge. The gap grows
  with beta (case1 < case2 < case3) while the targets fall; the source of the
  0.21 dB target is not in the repository.
* ``test_criterion_2_delta_legacy[case1]`` and
  ``test_criterion_7_legacy_slope_comparison``: the ``approx-prev`` integrand
  behaves as K/v at its lower endpoint, so its integral has no finite value.
  At exact's FEC crossing (-1.07 dBm) K = 1.7e-3: each halving of the lower
  cut-off adds K ln 2 = 0.30 x the threshold (0.26 x the BER at the 1e-2
  crossing that starts criterion 7's grid). The library raises
  ``NonConvergenceError``; the test recomputes K in closed form and asserts
  that K ln 2 exceeds the quadrature's relative tolerance times the BER, which
  a raise where the integral is finite would not satisfy.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc as erfc_vec
from scipy.stats import kstest

from fso_ber import (
    NonConvergenceError,
    RunConfig,
    Tolerance,
    ber_approx_new,
    ber_approx_prev,
    ber_exact,
    dbm_to_watts,
    delta,
    erfc_approx,
    fec_crossing,
    integrate,
    log_gain_pdf,
    mc_ber,
    pdf_h,
    sample_h,
)
from fso_ber.analysis import _CELL_DB
from fso_ber.ber import BerMethod
from fso_ber.channel import gain_of, log_gain_window
from fso_ber.config import preset_config
from fso_ber.runner import run

from test_domain import RATIO_HIGH, RATIO_LOW

mp.mp.dps = 40

# the erfc the exact BER integrand calls (both of EXACT_KERNEL's erfc branches)
erfc = math.erfc

CASES = ("case1", "case2", "case3")
FEC = 3.84e-3

DELTA_NEW_EXPECTED = {"case1": 0.21, "case2": 0.10, "case3": 0.08}   # +/- 0.05 dB
DELTA_PREV_EXPECTED = {"case1": 0.94, "case2": 0.40, "case3": 0.70}  # +/- 0.10 dB


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _snr_scale(p_dbm: float, link) -> float:
    """c in the conditional BER 0.5 erfc(c h)."""
    return link.responsivity_a_per_w * 10.0 ** ((p_dbm - 30.0) / 10.0) / (
        math.sqrt(2.0) * link.noise_std)


# --- criterion 1: split-kernel approximation power gaps -----------------------
#
# Independent reference for the gap: none of fso_ber's integration window,
# adaptive quadrature or crossing search is used.

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(80)


def _exact_reference(p_dbm: float, d, link) -> float:
    """Exact BER in gain space, h = A0 h_l exp(2X) exp(-E / gamma^2).

    X ~ N(-sigma_X^2, sigma_X^2) by Gauss-Hermite; E = (x^2 + y^2)/2 ~ Exp(1)
    for standard normal pointing offsets x, y, integrated by ``quad``.
    """
    x = -d.sigma_x_sq + math.sqrt(2.0 * d.sigma_x_sq) * _GH_NODES
    scale = _snr_scale(p_dbm, link) * d.a0 * d.h_l * np.exp(2.0 * x)
    weights = _GH_WEIGHTS / math.sqrt(math.pi)

    def f(e: float) -> float:
        return math.exp(-e) * float(weights @ (0.5 * erfc_vec(scale * math.exp(-e / d.gamma_sq))))

    return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)[0]


def _rational_kernel(z: float) -> float:
    """erfc_approx(z) * exp(z^2) on z >= 0: (2/sqrt(pi)) / (z + sqrt(z^2 + 4/pi))."""
    return 2.0 / math.sqrt(math.pi) / (z + math.sqrt(z * z + 4.0 / math.pi))


def _approx_new_reference(p_dbm: float, d, link) -> float:
    """Split-kernel BER: its v-space integrand integrated over the whole line.

    0.5 erfc_approx(u) (beta/2) exp(beta v - beta^2/4) erfc_approx(v) with
    u = c A0 h_l exp(sqrt(8 sigma_X^2) v - mu); for v >= 0 the density's
    Gaussian factors are combined into exp(-(v - beta/2)^2).
    """
    s = math.sqrt(8.0 * d.sigma_x_sq)
    b = d.gamma_sq * s
    ln_u0 = math.log(_snr_scale(p_dbm, link) * d.a0 * d.h_l) - d.mu

    def f(v: float) -> float:
        ln_u = ln_u0 + s * v
        if ln_u > 4.0:  # exp(-u^2) < exp(-2900) is zero in double precision
            return 0.0
        u = math.exp(ln_u)
        detection = 0.5 * _rational_kernel(u) * math.exp(-u * u)
        if v >= 0.0:
            density = 0.5 * b * math.exp(-(v - 0.5 * b) ** 2) * _rational_kernel(v)
        else:
            density = (0.5 * b * math.exp(b * v - 0.25 * b * b)
                       * (1.0 + math.tanh(-math.pi * v / math.sqrt(6.0))))
        return detection * density

    # split at the branch point, the density peak and u = 1
    edges = [-math.inf, *sorted({0.0, 0.5 * b, -ln_u0 / s}), math.inf]
    return sum(quad(f, a, c, epsabs=0.0, epsrel=1e-10, limit=200)[0]
               for a, c in zip(edges[:-1], edges[1:]))


def _reference_crossing(ber_fn, d, link) -> float:
    return brentq(lambda p: math.log(ber_fn(p, d, link) / FEC), -10.0, 15.0, xtol=1e-7)


@pytest.mark.parametrize("case", CASES)
def test_criterion_1_delta_split_kernel(case, links, deriveds):
    link, d = links[case], deriveds[case]
    signed = delta(BerMethod.EXACT, BerMethod.APPROX_NEW, FEC, d, link)
    reference = (_reference_crossing(_approx_new_reference, d, link)
                 - _reference_crossing(_exact_reference, d, link))
    assert abs(signed - reference) <= 2e-3, (
        f"{case}: delta(exact, approx-new) = {signed:.4f} dB disagrees with the "
        f"independent gain-space reference {reference:.4f} dB"
    )
    # approx-new / exact lies in [RATIO_LOW, RATIO_HIGH] (tests/test_domain.py),
    # so approx-new reaches FEC no later than exact reaches FEC / RATIO_HIGH
    cap = (fec_crossing(BerMethod.EXACT, FEC / RATIO_HIGH, d, link).p_cross_dbm
           - fec_crossing(BerMethod.EXACT, FEC, d, link).p_cross_dbm)
    assert signed <= cap + _CELL_DB, (
        f"{case}: delta(exact, approx-new) = {signed:.4f} dB exceeds the ratio bound's "
        f"cap {cap:+.4f} dB"
    )
    measured = abs(signed)
    expected = DELTA_NEW_EXPECTED[case]
    ok = abs(measured - expected) <= 0.05
    _line(f"criterion 1 ({case})", ok,
          f"|delta(exact, approx-new)| = {measured:.4f} dB (independent reference "
          f"{abs(reference):.4f} dB, ratio-bound cap {cap:+.4f} dB), expected {expected} "
          "+/- 0.05")
    assert ok, (
        f"{case}: measured |delta| = {measured:.4f} dB vs expected {expected} +/- 0.05 dB. "
        f"An independent gain-space evaluation gives {abs(reference):.4f} dB, so the "
        "measured gap is the value of the two documented integrals. Their ratio "
        f"approx-new / exact lies in [{RATIO_LOW:.5f}, {RATIO_HIGH:.5f}] "
        f"(tests/test_domain.py), which caps the gap at {cap:+.4f} dB"
        + (f", below the target's {expected - 0.05:.2f} dB lower edge."
           if cap < expected - 0.05 else ".")
    )


# --- criterion 2: legacy approximation power gaps ------------------------------


def _legacy_endpoint_divergence(p_dbm: float, ber: float, d, link) -> str:
    """Check that approx-prev's K/v endpoint term defeats the tolerance at p_dbm.

    Written out from the ``ber_approx_prev`` docstring, not taken from fso_ber:
    near v = 0 its integrand
    (gamma^2 sigma_X / (sqrt(2) pi)) exp(-(v - beta/2)^2 - u^2) / (u v)
    tends to K / v with u0 = c h_hat, so each halving of the quadrature's lower
    cut-off adds K ln 2 to the integral. Asserts that this exceeds the relative
    tolerance times ``ber``; returns the figures for the failure message.
    """
    beta = d.gamma_sq * math.sqrt(8.0 * d.sigma_x_sq)
    u0 = _snr_scale(p_dbm, link) * d.a0 * d.h_l * math.exp(-d.mu)
    prefactor = d.gamma_sq * math.sqrt(d.sigma_x_sq) / (math.sqrt(2.0) * math.pi)
    k = prefactor * math.exp(-0.25 * beta * beta - u0 * u0) / u0
    per_halving = k * math.log(2.0)
    figures = (f"K = {k:.3e} at {p_dbm:.3f} dBm: K/BER = {k / ber:.3g}, "
               f"K ln 2/BER = {per_halving / ber:.3g} per halving of the lower cut-off")
    assert per_halving > Tolerance().rel_tol * ber, (
        f"approx-prev raised NonConvergenceError where its endpoint term is negligible "
        f"({figures}); the integral is finite there, so the raise is a quadrature fault"
    )
    return figures


@pytest.mark.parametrize("case", CASES)
def test_criterion_2_delta_legacy(case, links, deriveds):
    link, d = links[case], deriveds[case]
    expected = DELTA_PREV_EXPECTED[case]
    try:
        measured = abs(delta(BerMethod.EXACT, BerMethod.APPROX_PREV, FEC, d, link))
    except NonConvergenceError as exc:
        p_cross = fec_crossing(BerMethod.EXACT, FEC, d, link).p_cross_dbm
        figures = _legacy_endpoint_divergence(p_cross, FEC, d, link)
        _line(f"criterion 2 ({case})", False, f"legacy integral diverges: {figures}")
        pytest.fail(
            f"{case}: legacy approximation unevaluable at the threshold; its integrand "
            f"behaves as K/v at the lower endpoint, {figures} at exact's FEC crossing, "
            f"so the integral has no finite value ({exc})"
        )
    ok = abs(measured - expected) <= 0.10
    _line(f"criterion 2 ({case})", ok,
          f"|delta(exact, approx-prev)| = {measured:.4f} dB, expected {expected} +/- 0.1")
    assert ok, f"{case}: measured |delta| = {measured:.4f} dB vs expected {expected} +/- 0.1 dB"


# --- criterion 3: gain density normalization -----------------------------------


@pytest.mark.parametrize("case", CASES)
def test_criterion_3_pdf_normalization(case, deriveds):
    d = deriveds[case]
    h_max = gain_of(log_gain_window(d)[1], d)
    mode = d.a0 * d.h_l * math.exp(-2.0 * d.sigma_x_sq)
    total = 0.0
    for a, b in zip([0.0, d.h_hat, mode], [d.h_hat, mode, h_max]):
        res = integrate(lambda h: pdf_h(h, d), a, b, Tolerance(rel_tol=1e-10))
        assert res.converged
        total += res.value
    ok = abs(total - 1.0) <= 1e-8
    _line(f"criterion 3 ({case})", ok, f"integral of pdf over [0, H_max] = {total:.12f}")
    assert ok, f"{case}: normalization = {total!r}"


# --- criterion 4: Monte Carlo / quadrature equivalence -------------------------


@pytest.mark.parametrize("case", CASES)
def test_criterion_4_mc_quadrature_equivalence(case, links, deriveds):
    link, d = links[case], deriveds[case]
    details = []
    ok = True
    for i, level in enumerate((1e-2, FEC, 1e-4)):
        p_dbm = fec_crossing(BerMethod.EXACT, level, d, link).p_cross_dbm
        p = dbm_to_watts(p_dbm)
        truth = ber_exact(p, d, link)
        est = mc_ber(p, d, link, trials=10_000_000, seed=90_000 + i)
        contained = est.ci_low <= truth <= est.ci_high
        ok = ok and contained
        details.append(
            f"BER~{level:.2e} @ {p_dbm:.2f} dBm: exact={truth:.3e} "
            f"CI=[{est.ci_low:.3e}, {est.ci_high:.3e}] {'ok' if contained else 'MISS'}"
        )
    _line(f"criterion 4 ({case})", ok, "; ".join(details))
    assert ok, f"{case}: " + "; ".join(details)


# --- criterion 5: sampler fidelity ---------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_criterion_5_sampler_ks(case, deriveds):
    d = deriveds[case]
    h = sample_h(d, 100_000, seed=55_000)
    v = (np.log(h / (d.a0 * d.h_l)) + d.mu) / d.log_gain_scale
    lo = log_gain_window(d)[0]
    grid = np.linspace(v.min() - 0.5, v.max() + 0.5, 3001)
    seg = [integrate(lambda t: log_gain_pdf(t, d), lo, float(grid[0])).value]
    quick = Tolerance(rel_tol=1e-8, abs_tol=1e-13)
    for a, b in zip(grid[:-1], grid[1:]):
        seg.append(integrate(lambda t: log_gain_pdf(t, d), float(a), float(b), quick).value)
    cdf_grid = np.cumsum(seg)
    res = kstest(v, lambda x: np.interp(x, grid, cdf_grid))
    ok = res.pvalue > 0.01
    _line(f"criterion 5 ({case})", ok,
          f"KS stat = {res.statistic:.5f}, p = {res.pvalue:.4f} at n = 1e5")
    assert ok, f"{case}: KS p-value {res.pvalue}"


# --- criterion 6: erfc branch properties ----------------------------------------


def test_criterion_6_upper_bound_and_unity():
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    worst = 0.0
    for z in grid:
        z = float(z)
        if z >= 0.0:
            worst = min(worst, erfc_approx(z) - erfc(z))
    unity = abs(erfc_approx(0.0) - 1.0) <= 1e-15 and abs(erfc(0.0) - 1.0) <= 1e-15
    ok = worst >= -1e-15 and unity
    _line("criterion 6 (bound, unity)", ok,
          f"min(erfc_approx - erfc) on z >= 0 grid = {worst:.2e}; both equal 1 at z = 0")
    assert ok


def test_criterion_6_relative_error_deep_tail():
    # formula-level ratio via 40-digit arithmetic; doubles underflow past z ~ 26.6
    worst = 0.0
    for z in (40.0, 60.0, 100.0, 1000.0):
        zz = mp.mpf(z)
        approx = 2 / mp.sqrt(mp.pi) * mp.e ** (-zz * zz) / (zz + mp.sqrt(zz * zz + 4 / mp.pi))
        rel = abs(float(approx / mp.erfc(zz) - 1))
        worst = max(worst, rel)
    # implementation-level check where both values are representable
    for z in np.arange(13.5, 26.5, 0.25):
        z = float(z)
        worst_double = abs(erfc_approx(z) / erfc(z) - 1.0)
        assert worst_double <= 1e-3
    ok = worst <= 1e-3
    _line("criterion 6 (tail accuracy)", ok,
          f"max relative error of the z >= 0 branch for z >= 40: {worst:.3e}")
    assert ok


def test_criterion_6_saturation_erfc():
    grid = np.arange(-10.0, -4.5 + 1e-9, 1e-3)
    worst = max(abs(erfc(float(z)) - 2.0) for z in grid)
    ok = worst <= 1e-9
    _line("criterion 6 (erfc saturation)", ok, f"max |erfc(z) - 2| for z <= -4.5: {worst:.3e}")
    assert ok


def test_criterion_6_saturation_erfc_approx():
    # The negative branch 1 + tanh(-pi z / sqrt(6)) falls short of 2 by exactly
    # 2 / (1 + exp(-2 pi z / sqrt(6))), 1.9e-5 at z = -4.5: the 1e-9 saturation of
    # erfc holds for it only from the onset where that deficit is 1e-9.
    grid = np.arange(-10.0, -4.5 + 1e-9, 1e-3)
    values = np.array([erfc_approx(float(z)) for z in grid])
    rate = 2 * mp.pi / mp.sqrt(6)
    deficit = np.array([float(2 / (1 + mp.exp(-rate * mp.mpf(float(z))))) for z in grid])
    rate_err = float(np.max(np.abs((2.0 - values) - deficit)))
    monotone = bool(np.all(np.diff(values) <= 0.0) and np.all(values <= 2.0))
    onset = -math.sqrt(6.0) / (2.0 * math.pi) * math.log(2e9 - 1.0)
    deep = float(np.max(2.0 - values[grid <= onset]))
    extreme = [erfc_approx(z) for z in (-1e3, -1e300)]
    ok = rate_err <= 1e-15 and monotone and deep <= 1e-9 and extreme == [2.0, 2.0]
    detail = (
        f"max |(2 - erfc_approx(z)) - 2/(1 + exp(-2 pi z/sqrt(6)))| on [-10, -4.5] = "
        f"{rate_err:.2e}; non-increasing and <= 2: {monotone}; "
        f"max |erfc_approx(z) - 2| on [-10, {onset:.3f}] = {deep:.2e}; "
        f"erfc_approx(-1e3), erfc_approx(-1e300) = {extreme}"
    )
    _line("criterion 6 (erfc_approx saturation)", ok, detail)
    assert ok, detail


# --- criterion 7: slope fidelity -------------------------------------------------


def _log_slopes(fn, link, d, grid):
    vals = np.array([fn(dbm_to_watts(float(p)), d, link) for p in grid])
    return np.gradient(np.log10(vals), grid)


def test_criterion_7_split_kernel_slope(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p_lo = fec_crossing(BerMethod.EXACT, 1e-2, d, link).p_cross_dbm
    p_hi = fec_crossing(BerMethod.EXACT, 1e-5, d, link).p_cross_dbm
    grid = np.arange(p_lo, p_hi + 0.125, 0.25)
    dev = np.abs(_log_slopes(ber_approx_new, link, d, grid)
                 / _log_slopes(ber_exact, link, d, grid) - 1.0)
    worst = float(dev.max())
    ok = worst <= 0.05
    _line("criterion 7 (approx-new slope)", ok,
          f"max log-slope deviation from exact over BER [1e-5, 1e-2]: {worst * 100:.2f}%")
    assert ok, f"max slope deviation {worst * 100:.2f}% > 5%"


def test_criterion_7_legacy_slope_comparison(links, deriveds):
    link, d = links["case1"], deriveds["case1"]
    p_lo = fec_crossing(BerMethod.EXACT, 1e-2, d, link).p_cross_dbm
    p_hi = fec_crossing(BerMethod.EXACT, 1e-5, d, link).p_cross_dbm
    grid = np.arange(p_lo, p_hi + 0.125, 0.25)
    new_dev = np.abs(_log_slopes(ber_approx_new, link, d, grid)
                     / _log_slopes(ber_exact, link, d, grid) - 1.0).max()
    try:
        prev_dev = np.abs(_log_slopes(ber_approx_prev, link, d, grid)
                          / _log_slopes(ber_exact, link, d, grid) - 1.0).max()
    except NonConvergenceError as exc:
        figures = _legacy_endpoint_divergence(p_lo, 1e-2, d, link)
        _line("criterion 7 (vs approx-prev)", False,
              f"legacy approximation unevaluable over the comparison range: {figures}")
        pytest.fail(
            "legacy approximation slope cannot be measured over exact-BER in "
            "[1e-5, 1e-2] for the strong-pointing preset: its integrand behaves as "
            f"K/v at the lower endpoint, {figures} at the grid's first point, so "
            f"the integral has no finite value ({exc})"
        )
    ok = new_dev < prev_dev
    _line("criterion 7 (vs approx-prev)", ok,
          f"approx-new deviation {new_dev * 100:.2f}% vs approx-prev {prev_dev * 100:.2f}%")
    assert ok


# --- criterion 8: determinism ----------------------------------------------------


def test_criterion_8_byte_identical_outputs(tmp_path):
    base = preset_config("case1")

    def config(out, workers):
        return RunConfig(
            link=base.link,
            sweep=(-4.0, 16.0, 2.0),
            methods=(BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.MONTE_CARLO),
            mc_trials=100_000,
            seed=777,
            output_path=str(tmp_path / out),
            workers=workers,
        )

    a = run(config("a", 1))
    b = run(config("b", 1))
    c = run(config("c", 4))
    same_rerun = a.csv_path.read_bytes() == b.csv_path.read_bytes()
    same_width = a.csv_path.read_bytes() == c.csv_path.read_bytes()
    same_reports = (a.report_path.read_bytes() == b.report_path.read_bytes()
                    == c.report_path.read_bytes())
    ok = same_rerun and same_width and same_reports
    _line("criterion 8", ok,
          f"rerun identical: {same_rerun}; workers 1 vs 4 identical: {same_width}")
    assert ok
