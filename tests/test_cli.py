import contextlib
import hashlib
import io
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_ber import PRESETS, RunConfig, derive, runner
from fso_ber.ber import BerMethod
from fso_ber.cli import main
from fso_ber.config import parse_sweep, preset_config
from fso_ber.runner import CSV_HEADER, run

FAST = dict(sweep=(-4.0, 16.0, 2.0), methods=(BerMethod.EXACT, BerMethod.APPROX_NEW))


def _fast_config(out, **overrides):
    base = preset_config("case1")
    merged = {**FAST, "output_path": str(out), **overrides}
    return RunConfig(link=base.link, **merged)


def test_run_writes_expected_csv(tmp_path):
    artifacts = run(_fast_config(tmp_path / "a"))
    lines = artifacts.csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 11  # header + grid rows
    first = lines[1].split(",")
    assert first[0] == "-4.00000000e+00"
    assert first[3] == ""  # approx-prev not requested
    assert first[4] == ""  # mc not requested


def test_csv_values_round_trip_at_printed_precision(tmp_path):
    artifacts = run(_fast_config(tmp_path / "a"))
    for line in artifacts.csv_path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            if cell and "e" in cell:
                assert f"{float(cell):.8e}" == cell


def test_rerun_is_byte_identical(tmp_path):
    first = run(_fast_config(tmp_path / "a", methods=(BerMethod.EXACT, BerMethod.MONTE_CARLO),
                             mc_trials=50_000))
    second = run(_fast_config(tmp_path / "b", methods=(BerMethod.EXACT, BerMethod.MONTE_CARLO),
                              mc_trials=50_000))
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
    assert first.report_path.read_bytes() == second.report_path.read_bytes()


def test_report_derived_params_exact(tmp_path):
    artifacts = run(_fast_config(tmp_path / "a"))
    d = derive(preset_config("case1").link)
    report = {
        line.split(" = ")[0]: line.split(" = ")[1]
        for line in artifacts.report_path.read_text().splitlines()
        if " = " in line
    }
    assert float(report["h_l"]) == d.h_l
    assert float(report["A0"]) == d.a0
    assert float(report["gamma"]) == d.gamma
    assert float(report["mu"]) == d.mu
    assert float(report["h_hat"]) == d.h_hat
    assert float(report["sigma_X_sq"]) == d.sigma_x_sq


@pytest.mark.parametrize("text", ("-4:16:0.5", "0:1:0.3333333", "-3.25:7.1:0.05",
                                  "1e-05:0.0001:1.5e-05", "-0.1:0.2:0.1"))
def test_report_echoes_the_sweep_that_ran(text):
    config = RunConfig(link=preset_config("case1").link, sweep=parse_sweep(text))
    report = runner.render_report(config, derive(config.link), {}, None, {})
    (echo,) = [line for line in report.splitlines() if line.startswith("sweep_dbm = ")]
    assert echo == f"sweep_dbm = {text}"
    assert parse_sweep(echo.removeprefix("sweep_dbm = ")) == config.sweep


@pytest.mark.parametrize("text", ("0.00384", "0.00384000000001", "1e-300", "0.1"))
def test_report_echoes_the_threshold_that_ran(text):
    config = RunConfig(link=preset_config("case1").link, fec_threshold=float(text))
    report = runner.render_report(config, derive(config.link), {}, None, {})
    assert f"\nfec_threshold = {text}\n" in report
    assert f"\n[FEC crossings at threshold {text}]\n" in report


def test_report_lists_crossings_and_deltas(tmp_path):
    artifacts = run(_fast_config(tmp_path / "a"))
    text = artifacts.report_path.read_text()
    assert "p_cross[exact]" in text
    assert "p_cross[approx-new]" in text
    assert "delta[exact -> approx-new]" in text
    gap = float(next(line.split("=")[1].replace("dB", "")
                     for line in text.splitlines() if "delta[exact -> approx-new]" in line))
    assert gap == pytest.approx(0.0651, abs=3e-3)


def test_mc_curve_columns_populated(tmp_path):
    cfg = _fast_config(tmp_path / "a", methods=(BerMethod.EXACT, BerMethod.MONTE_CARLO),
                       mc_trials=50_000, sweep=(-4.0, 2.0, 2.0))
    artifacts = run(cfg)
    row = artifacts.csv_path.read_text().splitlines()[1].split(",")
    assert row[4] != "" and row[5] != "" and row[6] != ""
    assert row[7] == "50000"


def test_run_without_mc_never_builds_a_generator(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("random generator constructed in a deterministic run")

    # batch_rng builds Generator(SFC64(SeedSequence(...))); either call fails the run
    monkeypatch.setattr(np.random, "SFC64", forbidden)
    monkeypatch.setattr(np.random, "Generator", forbidden)
    run(_fast_config(tmp_path / "a"))


def test_run_failure_leaves_no_artifacts(tmp_path):
    out = tmp_path / "a"
    cfg = _fast_config(out, methods=(BerMethod.EXACT, BerMethod.APPROX_PREV))
    with pytest.raises(Exception):
        run(cfg)
    assert not (out / "curves.csv").exists()
    assert not (out / "report.txt").exists()


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    out = tmp_path / "a"
    out.mkdir()
    probe = out / "probe"
    with open(probe, "w"):
        pass
    expected = stat.S_IMODE(probe.stat().st_mode)
    for _ in range(2):  # a rerun replaces files that already exist
        artifacts = run(_fast_config(out))
        for path in (artifacts.csv_path, artifacts.report_path):
            assert stat.S_IMODE(path.stat().st_mode) == expected, path


def test_a_failing_report_write_leaves_no_file(tmp_path, monkeypatch):
    out = tmp_path / "a"

    def unencodable(*args):
        return "\udc80"  # a lone surrogate: its UTF-8 write raises

    monkeypatch.setattr(runner, "render_report", unencodable)
    with pytest.raises(UnicodeEncodeError):
        run(_fast_config(out))
    # curves.csv's temp file was written first, and is gone with the report's
    assert [p.name for p in out.iterdir()] == []


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main(["run", "--preset", "case1", "--methods", "exact,approx-new",
                 "--sweep", "-4:16:2", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "curves.csv" in captured.out
    assert (out / "curves.csv").exists()
    assert (out / "report.txt").exists()


def test_cli_accepts_config_file(tmp_path):
    cfg_text = "\n".join(
        f"{k} = {v}" for k, v in dict(
            wavelength_nm=1550, link_length_km=3, aperture_radius_m=0.05,
            beam_waist_m=1.98, attenuation_db_per_km=0.2208,
            responsivity_a_per_w=0.5, noise_std=1e-7, rytov_variance=0.1,
            pointing_std_m=0.35,
        ).items()
    )
    path = tmp_path / "link.cfg"
    path.write_text(cfg_text + "\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--sweep", "0:4:2",
                 "--methods", "exact", "--out", str(out)])
    assert code == 0
    assert (out / "curves.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("rytov_variance = 1.5\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "missing required link fields" in capsys.readouterr().err


def test_cli_reports_file_and_override_problems_in_one_pass(tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError("run started with an invalid configuration")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    path = tmp_path / "two.cfg"
    path.write_text("wavelength_nm = 1550\nmc_trials = 0\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--mc-trials", "abc", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing required link fields" in err
    assert "rytov_variance, pointing_std_m" in err
    assert "mc_trials: must be >= 1 (got 0)" in err
    assert "mc_trials: invalid literal for int() with base 10: 'abc'" in err
    assert not out.exists()


def test_cli_checks_option_values_in_the_same_pass_as_a_bad_file(tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError("run started with an invalid configuration")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    link = dict(preset_config("case1").link.__dict__, rytov_variance=2)
    path = tmp_path / "strong.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in link.items()))
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--seed", "-1", "--mc-trials", "0",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "rytov_variance = 2.0 outside the weak-turbulence regime" in err
    assert "seed: must be >= 0 (got -1)" in err
    assert "mc_trials: must be >= 1 (got 0)" in err
    assert not out.exists()


def _case1_file(path, **lines):
    # case1's link, each of ``lines`` replacing its key's line (None drops it)
    link = {**preset_config("case1").link.__dict__, **lines}
    path.write_text("".join(f"{k} = {v}\n" for k, v in link.items() if v is not None))
    return str(path)


@pytest.mark.parametrize("lines, named", [
    (dict(noise_std="-1e-7", rytov_variance="2"),
     ["noise_std: must be > 0 (got -1e-07)", "rytov_variance = 2.0 outside the weak-turbulence"]),
    (dict(noise_std=None, rytov_variance="2"),
     ["missing required link fields: noise_std",
      "rytov_variance = 2.0 outside the weak-turbulence"]),
    (dict(noise_std="abc"), ["noise_std: could not convert string to float: 'abc'"]),
    (dict(aperture_radius_m="3"),
     ["aperture radius 3.0 m must be smaller than the beam waist 1.98 m"]),
    (dict(mc_trials="abc"), ["mc_trials: invalid literal for int() with base 10: 'abc'"]),
], ids=["two-bad-link-values", "missing-and-bad", "unparsed", "aperture", "bad-run-value"])
def test_cli_names_every_problem_of_a_file_once(lines, named, tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError("run started with an invalid configuration")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    out = tmp_path / "o"
    code = main(["run", "--config", _case1_file(tmp_path / "bad.cfg", **lines),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fso-ber: invalid configuration:\n")
    assert err.count("\n  - ") == len(named)
    for text in named:
        assert err.count(text) == 1
    assert not out.exists()


def test_cli_words_a_bad_value_alike_from_a_file_and_an_option(tmp_path, capsys):
    path = _case1_file(tmp_path / "bad.cfg", mc_trials="abc")
    cause = "mc_trials: invalid literal for int() with base 10: 'abc'"
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.endswith(f"  - {path}: {cause}\n")
    assert main(["run", "--preset", "case1", "--mc-trials", "abc",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.endswith(f"  - {cause}\n")
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "x.cfg"
    path.write_bytes(b"wavelength_nm = 1550\xff\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"cannot read config {str(path)!r}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_names_a_jitter_angle_line_an_unknown_key(tmp_path, capsys):
    # the pointing jitter is given as a displacement only:
    # pointing_std_m = jitter_angle_mrad * link_length_km
    link = {k: v for k, v in preset_config("case1").link.__dict__.items() if k != "pointing_std_m"}
    path = tmp_path / "angle.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in link.items())
                    + "jitter_angle_mrad = 0.116\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown key 'jitter_angle_mrad'" in err
    assert "missing required link fields: pointing_std_m" in err
    assert not out.exists()


def test_cli_reports_failing_power_point(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--methods", "approx-prev",
                 "--sweep", "-4:0:2", "--out", str(out)])
    assert code == 1
    assert "dBm" in capsys.readouterr().err
    assert not (out / "curves.csv").exists()


def test_cli_names_a_failing_crossing_probe(tmp_path, capsys):
    # every sweep point evaluates; the crossing search's first probe, -4 dBm, fails
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--methods", "exact,approx-prev",
                 "--sweep", "6:16:1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("fso-ber: run failed: approx-prev failed at P = -4 dBm: "
                          "the integrand is log-divergent at its lower endpoint; ")
    assert err.count("dBm") == 1
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    {"aperture_radius_m": 1e-160, "noise_std": 0.3},
    {"noise_std": 1e300},
    {"aperture_radius_m": 1e-160},
], ids=["u-zero", "u-times-density", "u-subnormal"])
def test_cli_names_approx_prev_s_overflowing_kernel(tmp_path, capsys, lines):
    # the legacy 1/u kernel overflows at 0 dBm: exit 1, naming the method and the power
    out = tmp_path / "o"
    code = main(["run", "--config", _case1_file(tmp_path / "tiny-u.cfg", **lines),
                 "--methods", "approx-prev", "--sweep", "0:1:1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("fso-ber: run failed: approx-prev failed at P = 0 dBm: "
                          "the legacy 1/u kernel overflows where u = ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_run_with_no_crossing_in_the_search_window(tmp_path):
    # exact never reaches 1e-300 up to 30 dBm, and the MC sweep never
    # straddles it: the report lists no crossing and the run still succeeds
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--methods", "exact,mc", "--mc-trials", "1000",
                 "--fec-threshold", "1e-300", "--sweep", "0:8:2", "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "[FEC crossings at threshold 1e-300]\n\n" in report
    assert "p_cross[" not in report
    assert len((out / "curves.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("earlier_run", [False, True])
def test_a_report_path_that_is_a_directory_replaces_nothing(tmp_path, capsys, earlier_run):
    out = tmp_path / "o"
    out.mkdir()
    if earlier_run:
        assert main(["run", "--preset", "case1", "--methods", "exact",
                     "--sweep", "0:4:2", "--out", str(out)]) == 0
        (out / "report.txt").unlink()
    old = sorted((p.name, p.read_bytes()) for p in out.iterdir())
    (out / "report.txt").mkdir()
    code = main(["run", "--preset", "case1", "--methods", "exact,approx-new",
                 "--sweep", "0:8:2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Is a directory" in err and str(out / "report.txt") in err
    left = sorted((p.name, p.read_bytes()) for p in out.iterdir() if p.is_file())
    assert left == old
    assert [p.name for p in out.iterdir() if p.is_dir()] == ["report.txt"]


def test_cli_bad_method_exit_code(capsys):
    code = main(["run", "--preset", "case1", "--methods", "nope"])
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


def test_cli_negative_seed_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError("run started with an invalid seed")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--methods", "exact,mc", "--seed", "-1",
                 "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["inf:16:0.5", "-inf:16:0.5", "nan:16:0.5",
                                   "-4:inf:0.5", "-4:-inf:0.5", "-4:nan:0.5",
                                   "-4:16:inf", "-4:16:-inf", "-4:16:nan"])
def test_cli_non_finite_sweep_rejected_before_any_work(sweep, tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError(f"run started with sweep {config.sweep!r}")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", f"--sweep={sweep}", "--out", str(out)])
    assert code == 2
    assert "sweep" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_sweep_whose_top_power_has_no_watts(tmp_path, capsys):
    # this exited 1 with "exact failed at P = 4000 dBm: (34, 'Numerical result
    # out of range')" after the work of the lower points
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--sweep=0:4000:1000", "--out", str(out)])
    assert code == 2
    assert "  - sweep: top power: must be at most about 3112.547 dBm" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_link_whose_beta_is_zero_before_any_work(tmp_path, capsys):
    # this exited 1 with "exact failed at P = -4 dBm: float division by zero"
    out = tmp_path / "o"
    code = main(["run", "--config", _case1_file(tmp_path / "bad.cfg", pointing_std_m="1e200"),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "beta = 0.0 has no finite log-gain window at pointing_std_m = 1e+200" in err
    assert not out.exists()


# the texts a config value is drawn from: ordinary values, ints no float
# holds, the float range's edges and bytes that are not UTF-8
_TEXTS = [b"0.1", b"0.35", b"3", b"1e-7", b"1" + b"0" * 400, b"-" + b"9" * 400, b"nan",
          b"inf", b"-inf", b"-1e308", b"0", b"-1", b"\xff", b"1e-7\xc3\x28"]
# drawn as often as all of the above: numbers a link field accepts, at the
# float range's edges
_EDGES = [b"1e308", b"1.7976931348623157e308", b"1e-308", b"5e-324"]
_KEYS = [*PRESETS["case1"], "mc_trials", "seed", "fec_threshold", "workers"]
_BARE_CAUSES = ("division by zero", "math domain error", "Numerical result out of range",
                "int too large")


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.dictionaries(st.sampled_from(_KEYS),
                      st.one_of(st.sampled_from(_EDGES), st.sampled_from(_TEXTS)),
                      min_size=1, max_size=3))
def test_cli_ends_every_config_in_a_named_outcome(texts):
    # case1's file with up to three keys' values drawn: it either runs, fails
    # naming its cause, or is refused naming a key or the file
    texts = {**{key: repr(value).encode() for key, value in PRESETS["case1"].items()}, **texts}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "drawn.cfg"), os.path.join(tmp, "o")
        with open(path, "wb") as fh:
            fh.write(b"".join(key.encode() + b" = " + text + b"\n" for key, text in texts.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", path, "--methods", "exact", "--sweep", "0:2:1",
                         "--out", out])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        if code == 2:
            problems = err.split("\n  - ")[1:]
            assert problems, err
            assert all(path in p or any(key in p for key in texts) for p in problems), err
        if code == 1:
            assert not any(cause in err for cause in _BARE_CAUSES), err
        assert os.path.exists(out) == (code == 0)


@pytest.mark.parametrize("option, value, field", [
    ("--mc-trials", "abc", "mc_trials"), ("--fec-threshold", "x", "fec_threshold"),
    ("--workers", "1.5", "workers"), ("--methods", "", "methods"), ("--sweep", "", "sweep"),
])
def test_cli_overrides_parse_like_config_keys(option, value, field, tmp_path, capsys, monkeypatch):
    import fso_ber.cli

    def no_run(config):
        raise AssertionError(f"run started with {option} {value!r}")

    monkeypatch.setattr(fso_ber.cli, "run", no_run)
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", option, value, "--out", str(out)])
    assert code == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not out.exists()


def test_config_file_named_like_a_preset_is_read_as_a_file(tmp_path, monkeypatch):
    link = dict(preset_config("case1").link.__dict__, pointing_std_m=0.1, rytov_variance=0.3)
    (tmp_path / "case1").write_text("".join(
        f"{key} = {value!r}\n" for key, value in link.items()))
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--config", "case1", "--methods", "exact", "--sweep", "-4:16:4",
                 "--out", "o"])
    assert code == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "sigma_X_sq = 0.074999999999999997\n" in report
    assert "gamma = 9.9033" in report


# SHA-256 of (curves.csv, report.txt) for whole CLI runs of a preset with the
# given methods and otherwise default settings.
GOLDEN_DIGESTS = {
    ("case1", "exact,approx-new"): (
        "8ca55dea05c3995f965a6d4b05a2cf90efd2bea154d35d80cf21be05509a1d5a",
        "1e7b969f342b87d7740afca4a1598d6bc38a4970e98709e375d8098563e5622a",
    ),
    ("case2", "exact,approx-new"): (
        "ece1bf64bd540bac54d9894e03d1f03e965d0cea1bbe5b340464847f4c6413fc",
        "ada117131560e431641eba6f1702011655f6e89126d5a8831f3c733560fc5fe1",
    ),
    ("case3", "exact,approx-new"): (
        "db2da60290194cbe97ad015ac9fd835b17c5715820a0d955f77b9bea17c47cdc",
        "231058cb68431d372605ec01f13efdd76909b3bf1910d5d1ee51fe87471be5c9",
    ),
    ("case2", "exact,approx-new,approx-prev,mc"): (
        "2ef425844457ba6a2e17893016c011eb4b9fa5cdffcd93877f0b25d88b5ce042",
        "282d88d65960891cb4a79bb855ab455f4fb3ae887e1badbfd254023d3304b3fa",
    ),
}


@pytest.mark.parametrize("preset, methods", sorted(GOLDEN_DIGESTS))
def test_outputs_match_golden_digests(preset, methods, tmp_path):
    """curves.csv and report.txt are byte-identical to the recorded runs.

    The digests hold on the pinned toolchain they were taken with (numpy 2.4,
    scipy 1.17, glibc 2.36 libm, x86-64): another libm or numpy build may
    round a last digit differently. A change meant to alter the outputs must
    update these digests and say in CHANGES.md which values moved and by how
    much. Monte Carlo runs at 2e5 trials per point.
    """
    out = tmp_path / "o"
    code = main(["run", "--preset", preset, "--methods", methods, "--mc-trials", "200000",
                 "--out", str(out)])
    assert code == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("curves.csv", "report.txt"))
    assert got == GOLDEN_DIGESTS[preset, methods]
