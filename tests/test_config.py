import math
from dataclasses import fields

import pytest

from fso_ber import ConfigError, LinkParams, PRESETS, RunConfig, derive, sweep
from fso_ber.ber import BerMethod
from fso_ber.config import (
    _CHECKS,
    _PARSERS,
    parse_config_text,
    parse_methods,
    parse_sweep,
    preset_config,
    read_config,
)

GOOD_CONFIG = """\
# bench link
wavelength_nm = 1550
link_length_km = 3
aperture_radius_m = 0.05
beam_waist_m = 1.98
attenuation_db_per_km = 0.2208
responsivity_a_per_w = 0.5
noise_std = 1e-7
rytov_variance = 0.1
pointing_std_m = 0.35

sweep = -4:16:0.5
methods = exact,approx-new,mc
mc_trials = 250000
seed = 31415
fec_threshold = 3.84e-3
output_path = out
workers = 2
"""


def test_presets_bind_case_values():
    c1 = preset_config("case1")
    assert c1.link.pointing_std_m == 0.35
    assert c1.link.rytov_variance == 0.1
    c3 = preset_config("case3")
    assert c3.link.pointing_std_m == 0.2
    assert c3.link.rytov_variance == 0.9
    shared = preset_config("case2").link
    assert (shared.wavelength_nm, shared.link_length_km) == (1550.0, 3.0)
    assert (shared.noise_std, shared.responsivity_a_per_w) == (1e-7, 0.5)
    assert (shared.beam_waist_m, shared.aperture_radius_m) == (1.98, 0.05)
    assert shared.attenuation_db_per_km == 0.2208


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("case9")


def test_parse_full_config():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.link.rytov_variance == 0.1
    assert cfg.sweep == (-4.0, 16.0, 0.5)
    assert cfg.methods == (BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.MONTE_CARLO)
    assert cfg.mc_trials == 250_000
    assert cfg.seed == 31415
    assert cfg.fec_threshold == 3.84e-3
    assert cfg.output_path == "out"
    assert cfg.workers == 2


def test_defaults_applied():
    minimal = "\n".join(
        line for line in GOOD_CONFIG.splitlines()
        if line and not line.startswith(("sweep", "methods", "mc_trials", "seed",
                                         "fec_threshold", "output_path", "workers"))
    )
    cfg = parse_config_text(minimal)
    assert cfg.sweep == (-4.0, 16.0, 0.5)
    assert cfg.methods == (BerMethod.EXACT, BerMethod.APPROX_NEW)
    assert cfg.fec_threshold == 3.84e-3


def test_regime_rejection_via_config():
    bad = GOOD_CONFIG.replace("rytov_variance = 0.1", "rytov_variance = 1.5")
    with pytest.raises(ConfigError, match="weak-turbulence"):
        parse_config_text(bad)


def test_all_problems_reported_together():
    bad = (
        GOOD_CONFIG
        .replace("rytov_variance = 0.1", "rytov_variance = 1.5")
        .replace("methods = exact,approx-new,mc", "methods = exact,bogus")
        + "mystery_knob = 3\n"
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(bad)
    text = str(excinfo.value)
    assert "weak-turbulence" in text
    assert "bogus" in text
    assert "mystery_knob" in text
    assert len(excinfo.value.problems) >= 3


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"cfg:2"):
        parse_config_text("wavelength_nm = 1550\nnot a pair\n", origin="cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(GOOD_CONFIG + "seed = 1\n")


def test_missing_fields_rejected():
    with pytest.raises(ConfigError, match="missing required link fields"):
        parse_config_text("wavelength_nm = 1550\n")


def test_run_fields_checked_with_a_bad_link():
    bad = (GOOD_CONFIG.replace("rytov_variance = 0.1", "rytov_variance = 2")
           .replace("mc_trials = 250000", "mc_trials = 0").replace("seed = 31415", "seed = -1"))
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(bad)
    problems = excinfo.value.problems
    assert len(problems) == 3
    assert "weak-turbulence" in problems[0]
    assert "mc_trials" in problems[1] and "seed" in problems[2]


def test_run_fields_checked_with_a_missing_link_field():
    bad = GOOD_CONFIG.replace("noise_std = 1e-7\n", "").replace("mc_trials = 250000", "mc_trials = 0")
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(bad)
    problems = excinfo.value.problems
    assert len(problems) == 2
    assert "missing required link fields: noise_std" in problems[0]
    assert "mc_trials" in problems[1]


@pytest.mark.parametrize("link, problem", [
    ("aperture_radius_m = 3", "aperture radius 3.0 m must be smaller than the beam waist 1.98 m"),
    ("attenuation_db_per_km = 1e300", "the peak gain A0 h_l underflows to 0 at "),
], ids=["aperture", "underflow"])
def test_a_link_that_derive_refuses_is_named_with_the_run_fields(link, problem):
    key = link.split(" = ")[0]
    bad = (GOOD_CONFIG.replace(f"{key} = {PRESETS['case1'][key]}", link)
           .replace("mc_trials = 250000", "mc_trials = 0"))
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text(bad, origin="cfg")
    problems = excinfo.value.problems
    assert len(problems) == 2
    assert problems[0].startswith(f"cfg: {problem}")
    assert problems[1] == "cfg: mc_trials: must be >= 1 (got 0)"


def test_runconfig_refuses_a_link_that_derive_refuses():
    link = LinkParams(**{**PRESETS["case1"], "aperture_radius_m": 3.0})
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(link=link)
    assert excinfo.value.problems == [
        "aperture radius 3.0 m must be smaller than the beam waist 1.98 m"]


def test_runconfig_reports_a_link_whose_derivation_overflows():
    # the squared beam waist overflows in derive: a problem of the link, not a crash
    link = LinkParams(**{**PRESETS["case1"], "beam_waist_m": 1e200, "aperture_radius_m": 1e199})
    with pytest.raises(ConfigError):
        RunConfig(link=link)


def test_read_config_from_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(GOOD_CONFIG)
    assert read_config(str(path)) == parse_config_text(GOOD_CONFIG, origin=str(path))


def test_preset_config_is_the_preset_link_with_defaults():
    assert preset_config("case1") == RunConfig(link=LinkParams(**PRESETS["case1"]))


def test_read_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        read_config("/nonexistent/path.cfg")


def test_parse_methods():
    assert parse_methods("exact, mc") == (BerMethod.EXACT, BerMethod.MONTE_CARLO)
    assert parse_methods("exact,exact") == (BerMethod.EXACT,)
    with pytest.raises(ValueError, match="unknown method"):
        parse_methods("exactly")


def test_parse_sweep():
    assert parse_sweep("-4:16:0.5") == (-4.0, 16.0, 0.5)
    with pytest.raises(ValueError):
        parse_sweep("1:2")


def test_runconfig_validation():
    link = preset_config("case1").link
    with pytest.raises(ConfigError, match="mc_trials"):
        RunConfig(link=link, mc_trials=0)
    with pytest.raises(ConfigError, match="fec_threshold"):
        RunConfig(link=link, fec_threshold=0.6)
    with pytest.raises(ConfigError, match="methods"):
        RunConfig(link=link, methods=())
    with pytest.raises(ConfigError, match="workers"):
        RunConfig(link=link, workers=0)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(link=link, seed=-1)
    with pytest.raises(ConfigError, match="sweep"):
        RunConfig(link=link, sweep=(4.0, -4.0, 0.5))
    # each sweep fault is one problem, reported next to the other fields' problems
    for sweep, others in [
        ((-4.0, 16.0), {}),
        ((-4.0, 16.0, math.inf), {}),
        ((-4.0, 16.0, 5e-324), {}),
        ((16.0, -4.0, -0.5), {"mc_trials": 0}),
        ((-4.0, 16.0, 0.0), {"mc_trials": 0}),
    ]:
        with pytest.raises(ConfigError) as excinfo:
            RunConfig(link=link, sweep=sweep, **others)
        problems = excinfo.value.problems
        assert len([p for p in problems if p.startswith("sweep: ")]) == 1
        assert len(problems) == 1 + len(others)
        assert all(any(p.startswith(f"{key}: ") for p in problems) for key in others)
    with pytest.raises(ConfigError, match=r"sweep: expected \(lo, hi, step\)"):
        RunConfig(link=link, sweep=(-4.0, 16.0))


@pytest.mark.parametrize("field, value", [
    ("mc_trials", 2.5), ("mc_trials", True), ("mc_trials", "10"), ("mc_trials", None),
    ("seed", True), ("seed", 1.0), ("workers", 1.5), ("workers", False),
    ("fec_threshold", "0.1"), ("fec_threshold", True), ("fec_threshold", None),
    ("output_path", ""), ("output_path", 5), ("output_path", None),
])
def test_runconfig_rejects_a_count_or_threshold_of_the_wrong_type(field, value):
    # one problem naming the field, next to the other fields' problems
    link = preset_config("case1").link
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(link=link, methods=(), **{field: value})
    problems = excinfo.value.problems
    assert len(problems) == 2
    assert problems[0] == "methods: at least one method required"
    assert problems[1].startswith(f"{field}: must be ") and problems[1].endswith(f"(got {value!r})")


@pytest.mark.parametrize("link", [None, "x", PRESETS["case1"]], ids=["None", "str", "dict"])
def test_runconfig_refuses_a_link_that_is_not_link_params(link):
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(link=link, mc_trials=0)
    assert excinfo.value.problems == [f"link: must be a LinkParams (got {link!r})",
                                      "mc_trials: must be >= 1 (got 0)"]


@pytest.mark.parametrize("methods, problem", [
    (("exact",), "methods: must be BerMethod members (got 'exact')"),
    ((BerMethod.EXACT, "mc", "approx-new", "mc"),
     "methods: must be BerMethod members (got 'approx-new', 'mc')"),
    (5, "methods: must be a collection of BerMethod members (got 5)"),
])
def test_runconfig_refuses_methods_that_are_not_ber_methods(methods, problem):
    link = preset_config("case1").link
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(link=link, methods=methods)
    assert excinfo.value.problems == [problem]


@pytest.mark.parametrize("value", [0, -3, True, 2.5, None, "10"], ids=repr)
def test_a_trial_count_is_refused_alike_by_the_config_and_the_library(value):
    # one rule: the problem a RunConfig reports is the error a sweep raises
    config = preset_config("case1")
    with pytest.raises(ConfigError) as from_config:
        RunConfig(link=config.link, mc_trials=value)
    with pytest.raises(ValueError) as from_sweep:
        sweep({BerMethod.MONTE_CARLO}, config.sweep, derive(config.link), config.link,
              mc_trials=value, seed=1)
    assert from_config.value.problems == [str(from_sweep.value)]


def test_runconfig_rejects_a_sweep_with_too_many_points():
    link = preset_config("case1").link
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(link=link, sweep=(-4.0, 16.0, 1e-4))
    assert len(excinfo.value.problems) == 1
    assert excinfo.value.problems[0].startswith("sweep: 200001 points ")


def test_every_config_field_has_a_parser():
    run_fields = {f.name for f in fields(RunConfig)} - {"link"}
    assert set(_PARSERS) == {f.name for f in fields(LinkParams)} | run_fields
    # and one check each: the link fields, then the RunConfig fields, in field order
    assert list(_CHECKS) == ([f.name for f in fields(LinkParams)]
                             + [f.name for f in fields(RunConfig)])
