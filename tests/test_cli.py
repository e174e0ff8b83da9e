import hashlib

import numpy as np
import pytest

from fso_ber import RunConfig, derive
from fso_ber.ber import BerMethod
from fso_ber.cli import main
from fso_ber.config import preset_config
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

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    run(_fast_config(tmp_path / "a"))


def test_run_failure_leaves_no_artifacts(tmp_path):
    out = tmp_path / "a"
    cfg = _fast_config(out, methods=(BerMethod.EXACT, BerMethod.APPROX_PREV))
    with pytest.raises(Exception):
        run(cfg)
    assert not (out / "curves.csv").exists()
    assert not (out / "report.txt").exists()


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


def test_cli_reports_failing_power_point(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--preset", "case1", "--methods", "approx-prev",
                 "--sweep", "-4:0:2", "--out", str(out)])
    assert code == 1
    assert "dBm" in capsys.readouterr().err
    assert not (out / "curves.csv").exists()


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


# SHA-256 of (curves.csv, report.txt) for whole CLI runs of a preset with the
# given methods and otherwise default settings.
GOLDEN_DIGESTS = {
    ("case1", "exact,approx-new"): (
        "58678f0041c5d4494033ae88a3c98710b9ed297eb83dbc85fc6e46dc58c117ed",
        "26a514be01ab303e755f9fed0ec1d33c660a8e2d717177545472ed2380fc9b24",
    ),
    ("case2", "exact,approx-new"): (
        "ece1bf64bd540bac54d9894e03d1f03e965d0cea1bbe5b340464847f4c6413fc",
        "ee3353d4f6f938c74807b2652c5fe0ef18a4929c8041a87484d7e1331ad1aefa",
    ),
    ("case3", "exact,approx-new"): (
        "db2da60290194cbe97ad015ac9fd835b17c5715820a0d955f77b9bea17c47cdc",
        "2cc822170b7a8b1782e57405ec634f02718ae95944cc1279768129eda3b5f3b2",
    ),
    ("case2", "exact,approx-new,approx-prev,mc"): (
        "f1f68bbdb0c3808d3cec7929a34cf93b2aeadb22c362183403c6d8a63dbf529a",
        "5c6f3b3fac56295ed974a70fe399b6126d712d628446adf4a41a7205b676b902",
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
