"""The benchmark's own tests: the checker, the references, the tracer, and a
smoke run of every workload, untraced and traced, at a tiny size.

    python3 -m pytest -q bench/tests

They sit outside the package's test suite (pyproject's ``testpaths``), so
they do not add to its run time.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import mpmath
import pytest

import gate
import inputs
import reference
import run
import tracing
import worker

CASE2 = dict(inputs.SHARED_LINK, pointing_std_m=0.25, rytov_variance=0.5)
CASE1 = dict(inputs.SHARED_LINK, pointing_std_m=0.35, rytov_variance=0.1)


def _exact_closed_form(link: dict, p_dbm: float) -> mpmath.mpf:
    """exact BER with the E integral done in closed form, at 30 digits.

    int_0^inf e^-E erfc(a e^(-E/g)) dE
        = erfc(a) + a^-g gamma_lower((g + 1)/2, a^2) / sqrt(pi),   g = gamma^2.
    """
    k = reference.link_constants(link)
    with mpmath.workdps(30):
        g = mpmath.mpf(k["gamma_sq"])
        sx = mpmath.sqrt(mpmath.mpf(k["sigma_x_sq"]))
        c = (mpmath.mpf(link["responsivity_a_per_w"]) * mpmath.mpf(10) ** ((p_dbm - 30) / 10)
             / (mpmath.sqrt(2) * mpmath.mpf(link["noise_std"])))
        ck = c * mpmath.mpf(k["a0_h_l"])

        def over_e(z):
            a = ck * mpmath.exp(2 * (sx * z - sx * sx))
            return 0.5 * (mpmath.erfc(a) + a ** (-g) * mpmath.gammainc((g + 1) / 2, 0, a * a)
                          / mpmath.sqrt(mpmath.pi))

        return mpmath.quad(lambda z: mpmath.npdf(z) * over_e(z), [-12, -4, 0, 4, 12])


@pytest.mark.parametrize("link", [CASE1, CASE2], ids=["case1", "case2"])
@pytest.mark.parametrize("p_dbm", [-4.0, 4.0, 10.0])
def test_exact_reference_matches_closed_form(link, p_dbm):
    got = reference.ber_exact_ref(link, p_dbm)
    want = float(_exact_closed_form(link, p_dbm))
    assert abs(got - want) <= reference.REL_TOL / 10 * want + reference.ABS_TOL / 10


@pytest.mark.parametrize("p_dbm", [-4.0, 4.0, 10.0])
def test_approx_new_reference_matches_package_inside_its_window(p_dbm):
    # at case2's beta (about 16) the package's window holds the whole mass,
    # so two independent codings of the documented integrand must agree
    import fso_ber

    link = fso_ber.LinkParams(**CASE2)
    got = fso_ber.ber_approx_new(fso_ber.dbm_to_watts(p_dbm), fso_ber.derive(link), link)
    want = reference.ber_approx_new_ref(CASE2, p_dbm)
    assert abs(got - want) <= reference.REL_TOL / 100 * want


def _scan_spec() -> dict:
    # one case2 exact op over a sweep whose every BER is far above ABS_TOL
    return {"workload": "scan-analytic", "seed": 0, "sweep": [-4.0, 8.0, 0.5],
            "threshold": 3.84e-3, "links": [CASE2], "ops": [{"link": 0, "method": "exact"}]}


def _scan_record(spec: dict) -> dict:
    w = worker.ScanAnalytic(spec, None)
    out = w.run(0)
    return {"out": out, "error": None, "runs": 1, "mismatch": False, "own": w.own(0, out)}


def _gate(spec: dict, rec: dict) -> gate.Gate:
    g = gate.Gate(spec, reference.RefStore())
    g.check({"0": rec})
    return g


def test_checker_accepts_true_values_and_rejects_1e_3_perturbation():
    spec = _scan_spec()
    rec = _scan_record(spec)
    assert _gate(spec, rec).failed == 0

    swept = copy.deepcopy(rec)
    swept["out"]["ber"] = [b * (1 + 1e-3) for b in swept["out"]["ber"]]
    g = _gate(spec, swept)
    assert g.checks == {"exact": {"tolerance": 1}} and g.failed == 1

    at_end = copy.deepcopy(rec)
    at_end["own"]["bracket"][0] *= 1 + 1e-3
    assert _gate(spec, at_end).checks == {"exact": {"tolerance": 1}}


@pytest.mark.parametrize("p", [0.05, 1e-3, 1e-5])
def test_mc_check_rejects_a_6_sigma_shift(p):
    trials = 10**6
    mean = trials * p
    sigma = math.sqrt(mean * (1 - p))
    assert gate.mc_within(round(mean), trials, p)
    assert not gate.mc_within(round(mean + 6 * sigma), trials, p)
    if mean - 6 * sigma >= 0:
        assert not gate.mc_within(round(mean - 6 * sigma), trials, p)


def test_gate_flags_an_mc_count_shifted_by_6_sigma(tmp_path):
    spec = inputs.make_spec("full-mc", 0, smoke=True)
    w = worker.FullMc(spec, tmp_path)
    w.run(0)
    out = w.collect(0, None)
    rec = {"out": out, "error": None, "runs": 1, "mismatch": False, "own": w.own(0, out)}
    assert _gate(spec, rec).failed == 0

    lines = out["csv"].splitlines()
    row = lines[1].split(",")  # -4 dBm: the most errors, so sigma is largest
    trials = int(row[7])
    p_ref = reference.ber_exact_ref(spec["links"][0], float(row[0]))
    shifted = trials * p_ref + 6 * math.sqrt(trials * p_ref * (1 - p_ref))
    row[4] = f"{round(shifted) / trials:.8e}"
    bad = copy.deepcopy(rec)
    bad["out"]["csv"] = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
    assert _gate(spec, bad).checks == {"mc": {"5sigma": 1}}


def test_inputs_follow_the_seed():
    a, b, c = (inputs.make_spec("scan-analytic", s) for s in (3, 3, 4))
    assert a == b and a["inputs_sha256"] != c["inputs_sha256"]


def test_missing_target_is_reported_unmeasured(monkeypatch):
    from fso_ber import ber

    monkeypatch.delattr(ber, "integrate")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "fso_ber.ber.integrate" in tracer.missing
    out = tracing.finish({}, 1, tracer.installed, tracer.missing)
    assert out["quadrature.evaluations"] == "unmeasured"
    assert out["ber.integrand_s"] == "unmeasured"
    assert out["analysis.sweep_s"] == 0.0


def test_untraced_loop_installs_no_wrappers(tmp_path):
    code = (
        "import sys, pathlib; import worker, inputs; from fso_ber import analysis; "
        "before = analysis.sweep; "
        "spec = inputs.make_spec('scan-analytic', 0, smoke=True); "
        f"worker.timed_loop(worker.ScanAnalytic(spec, pathlib.Path({str(tmp_path)!r})), 0.01); "
        "print('tracing' in sys.modules, analysis.sweep is before)"
    )
    env = dict(run._env(), PYTHONPATH=f"{run.BENCH}:{run.SRC}")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert out == ["False", "True"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-analytic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# smoke mode: every workload and the traced pass, each a few seconds

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.execute(w, 0, 0.5, True, smoke=True) for _ in range(2)]
            for w in inputs.WORKLOADS}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = run.execute(workload, 0, 0.5, False, smoke=True)
    summary = result["summary"]
    assert summary["correct"] and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert {"failed_frac", "op_s_p90"} <= set(result["metrics"])
    assert ("mc_trials_per_s" in result["metrics"]) == (workload == "full-mc")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_traced(workload, traced_twice):
    result = traced_twice[workload][0]
    assert result["summary"]["correct"]
    assert set(result["summary"]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # a span wrapped twice (say runner.run, bound by cli at import) would
    # count twice and drive a self time such as cli.parse_s below 0
    times = {k: v["value"] for k, v in result["per_module"].items() if v["unit"] == "s"}
    assert all(v >= 0 for v in times.values() if isinstance(v, float)), times


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_counts_repeat(workload, traced_twice):
    first, second = ([r["per_module"][k]["value"] for k in (
        "quadrature.evaluations", "analysis.ber_calls_per_crossing", "montecarlo.trials",
        "ber.exact.failed", "ber.approx-new.failed", "ber.approx-prev.failed")]
        for r in traced_twice[workload])
    assert first == second
