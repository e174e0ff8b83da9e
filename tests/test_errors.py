"""Every library entry point refuses a bad number through the checks of
``fso_ber.errors``, in one wording: ``<name>: must be ... (got ...)``."""

import math
import re

import pytest

from fso_ber import ber_conditional, ber_exact, integrate, mc_ber, pdf_h, wilson_interval
from fso_ber.analysis import power_grid
from fso_ber.special import erfc_approx

HUGE = 10**400  # an int that no float holds


@pytest.mark.parametrize("call, name", [
    # an int beyond the float range escaped as OverflowError
    (lambda link, d: ber_exact(HUGE, d, link), "p_watts"),
    (lambda link, d: mc_ber(HUGE, d, link, trials=10, seed=1), "p_watts"),
    (lambda link, d: ber_conditional(HUGE, 1e-3, d, link), "h"),
    (lambda link, d: erfc_approx(HUGE), "z"),
    (lambda link, d: power_grid(HUGE, 16.0, 0.5), "sweep: lo"),
    (lambda link, d: pdf_h(HUGE, d), "h"),
    # a string escaped as TypeError
    (lambda link, d: ber_exact("1", d, link), "p_watts"),
    (lambda link, d: mc_ber("1", d, link, trials=10, seed=1), "p_watts"),
    (lambda link, d: erfc_approx("a"), "z"),
    # a fraction or a bool was taken as a count or a number
    (lambda link, d: wilson_interval(1.5, 10), "errors"),
    (lambda link, d: wilson_interval(True, 10), "errors"),
    (lambda link, d: ber_exact(True, d, link), "p_watts"),
    (lambda link, d: power_grid(True, 3, 1), "sweep: lo"),
    (lambda link, d: integrate(math.exp, False, True), "a"),
], ids=["ber_exact-huge", "mc_ber-huge", "ber_conditional-huge", "erfc_approx-huge",
        "power_grid-huge", "pdf_h-huge", "ber_exact-str", "mc_ber-str", "erfc_approx-str",
        "wilson_interval-fraction", "wilson_interval-bool", "ber_exact-bool",
        "power_grid-bool", "integrate-bool"])
def test_a_bad_argument_is_refused_by_name(call, name, links, deriveds):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}: must be .* \(got .*\)$"):
        call(links["case1"], deriveds["case1"])


@pytest.mark.parametrize("call, message", [
    (lambda link, d: ber_exact(0.0, d, link), "p_watts: must be > 0 (got 0.0)"),
    (lambda link, d: mc_ber([2e-3, 1e-3], d, link, trials=10, seed=1),
     "p_watts: must be non-decreasing (got [0.002, 0.001])"),
    (lambda link, d: ber_conditional(-0.1, 1e-3, d, link), "h: must be >= 0 (got -0.1)"),
    (lambda link, d: pdf_h(math.nan, d), "h: must be a finite number (got nan)"),
    (lambda link, d: erfc_approx(-math.inf), "z: must be a finite number (got -inf)"),
    (lambda link, d: wilson_interval(101, 100), "errors: must be <= trials = 100 (got 101)"),
    (lambda link, d: integrate(math.exp, 1.0, 0.0), "b: must be > a = 1.0 (got 0.0)"),
    (lambda link, d: power_grid(4.0, -4.0, 0.5), "sweep: hi: must be > lo = 4.0 (got -4.0)"),
    (lambda link, d: power_grid(-4.0, 16.0, 0.0), "sweep: step: must be > 0 (got 0.0)"),
    (lambda link, d: power_grid(0.0, 4000.0, 1000.0),
     "sweep: top power: must be at most about 3112.547 dBm, past which its watts "
     "overflow a float (got 4000.0)"),
], ids=["power", "powers", "gain", "density-gain", "erfc-argument", "errors", "limits",
        "sweep-order", "sweep-step", "sweep-top"])
def test_each_refusal_reads_name_must_be_got(call, message, links, deriveds):
    with pytest.raises(ValueError) as excinfo:
        call(links["case1"], deriveds["case1"])
    assert str(excinfo.value) == message


def test_pdf_h_still_gives_zero_at_and_below_zero_gain(deriveds):
    assert pdf_h(0.0, deriveds["case1"]) == pdf_h(-1, deriveds["case1"]) == 0.0


def test_a_sweep_stops_at_the_last_power_whose_watts_a_float_holds():
    # 3112.547 dBm is 1.7976e308 W; a step past 4000 dBm still counts the grid
    assert power_grid(3112.0, 3112.547, 0.547) == [3112.0, 3112.547]
    assert power_grid(0.0, 4000.0, 3000.0) == [0.0, 3000.0]
