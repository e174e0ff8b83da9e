"""The fso-ber benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload scan-analytic --seed 0 --seconds 12 --trace 0

Run it from the repository root. It prints the full result as JSON:
provenance, every metric with its unit and sample count, and the failure
taxonomy. The last line is a one-line summary with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` that summary
holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds
the per-module metrics. The process exits 0 when the run completed, whatever
the gate found, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

REF_TABLE = BENCH / f"refs_seed{inputs.DEFAULT_SEED}.json"
SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 150
# import fso_ber, then derive one link: what every caller pays before its first op
SETUP_SNIPPET = """
from time import perf_counter
t0 = perf_counter()
import fso_ber
fso_ber.derive(fso_ber.LinkParams(**{link!r}))
print(perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def _python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


def measure_setup(link: dict, samples: int) -> dict[str, list[float]]:
    """Seconds from a fresh interpreter's first statement to its first derived link."""
    snippet = SETUP_SNIPPET.format(link=link)
    _python(["-c", snippet])  # writes the bytecode caches; not counted
    return {"setup": [float(_python(["-c", snippet]).stdout) for _ in range(samples)]}


def measure_imports(samples: int) -> dict[str, list[float]]:
    """Cumulative ``-X importtime`` figures for fso_ber and scipy.special."""
    found = {"fso_ber": [], "scipy.special": []}
    _python(["-X", "importtime", "-c", "import fso_ber"])
    for _ in range(samples):
        err = _python(["-X", "importtime", "-c", "import fso_ber"]).stderr
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return found


def provenance(spec: dict, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    # only the checkout's own repository: git would otherwise report an
    # enclosing one
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True, timeout=10).stdout.strip()
            dirty = bool(subprocess.run([*git, "status", "--porcelain"], capture_output=True,
                                        text=True, check=True, timeout=10).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass  # git unavailable: commit and dirty stay unknown
    return {
        "nproc": inputs.nproc(),
        "cpu_model": cpu,
        **versions,
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": spec["workload"],
        "seed": spec["seed"],
        "inputs_sha256": spec["inputs_sha256"],
    }


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def op_costs(res: dict) -> list[float]:
    """Each timed op's latency in cal: over the mean of the calibrations
    before and after it.

    A cal is the time of the worker's fixed calibration loop. On a shared
    2-vCPU VM the speed of pure-Python code moved by up to 1.5x over seconds
    to minutes, and the ops' latencies moved with the calibration, so
    latencies in cal stay put where latencies in seconds do not.
    """
    lat, cal = res["latencies"], res["calibrations"]
    return [t / (0.5 * (cal[j] + cal[j + 1])) for j, t in enumerate(lat)]


def _p90(values: list[float], unit: str) -> dict:
    # the highest percentile with at least ten samples beyond it
    if len(values) >= 100:
        return _metric(statistics.quantiles(values, n=10)[-1], unit, len(values))
    return {"value": None, "unit": unit, "samples": len(values),
            "note": "omitted: fewer than 100 ops, so under 10 beyond p90"}


def end_to_end(spec: dict, res: dict, setup: list[float], tax: dict) -> dict:
    lat = res["latencies"]
    cost = op_costs(res)
    n = len(lat)
    m = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "op_cal_p50": _metric(statistics.median(cost), "cal", n),
        "op_cal_p90": _p90(cost, "cal"),
        "ops_per_kcal": _metric(1000.0 * n / sum(cost), "1/kcal", n),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB", 1),
        "failed_frac": _metric(tax["failed_frac"], "ratio", tax["attempted"]),
        "op_s_p50": _metric(statistics.median(lat), "s", n),
        "op_s_p90": _p90(lat, "s"),
        "ops_per_s": _metric(n / sum(lat), "1/s", n),
        "cal_s": _metric(statistics.median(res["calibrations"]), "s", len(res["calibrations"])),
    }
    if spec["workload"] == "full-mc":
        trials = tax["attempted_ok"] * len(gate.power_grid(*spec["sweep"])) * spec["mc_trials"]
        m["mc_trials_per_s"] = _metric(trials / sum(lat), "1/s", n)
    return m


PER_MODULE_UNITS = {"_s": "s", "_frac": "ratio", "s_per_call": "s", "speedup_2w": "ratio",
                    "per_crossing": "count"}


def _unit(name: str) -> str:
    return next((u for suffix, u in PER_MODULE_UNITS.items() if name.endswith(suffix)), "count")


def execute(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            refs: reference.RefStore | None = None) -> dict:
    """One benchmark run; returns the full result including the summary line.

    ``refs`` defaults to the committed reference table for the default seed
    and to an empty store for any other seed.
    """
    if not (SRC / "fso_ber" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}; run from a repository checkout")
    spec = inputs.make_spec(workload, seed, smoke)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    try:
        # half the set-up samples before the ops and half after, so that they
        # see the machine in more than one state
        half = 1 if smoke else SETUP_SAMPLES // 2
        measure = measure_imports if trace else partial(measure_setup, spec["links"][0])
        before = measure(samples=half)
        job = work / "job.json"
        job.write_text(json.dumps({"spec": spec, "work": str(work), "seconds": seconds,
                                   "trace": trace}))
        out = work / "result.json"
        try:
            _python([str(BENCH / "worker.py"), str(job), str(out)], timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
        res = json.loads(out.read_text())
        after = measure(samples=half)
        setup = {k: before[k] + after[k] for k in before}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run is still using it

    t0 = perf_counter()
    if refs is None:
        refs = reference.RefStore(REF_TABLE if seed == inputs.DEFAULT_SEED else None)
    g = gate.Gate(spec, refs)
    g.check(res["ops"])
    tax = g.taxonomy(res["attempted"])
    known = {}
    if "probe" in res:  # scan-analytic: the known defects, checked like any op
        probe = gate.Gate(inputs.probe_spec(spec["sweep"]), refs)
        probe.check(res["probe"])
        known["known_defects"] = probe.taxonomy(len(res["probe"]))
    gate_info = {"seconds": perf_counter() - t0, "references_computed": refs.computed,
                 "references_from_table": refs.hits, "rel_tol": reference.REL_TOL,
                 "abs_tol": reference.ABS_TOL}

    result = {"provenance": provenance(spec, res["versions"]), "failures": tax, **known,
              "gate": gate_info}
    if trace:
        per = res["per_module"]
        per["import.total_s"] = statistics.median(setup["fso_ber"])
        per["import.scipy_special_s"] = statistics.median(setup["scipy.special"])
        table = result["per_module"] = {k: {"value": v, "unit": _unit(k)} for k, v in per.items()}
        result["trace"] = res["trace"]
        wanted = _benchmark()["per_layer"]
    else:
        table = result["metrics"] = end_to_end(spec, res, setup["setup"], tax)
        wanted = _benchmark()["end_to_end"]
    result["summary"] = {
        "correct": tax["failed"] == 0,
        "attempted": res["attempted"],
        "failed": tax["failed"],
        "metrics": {
            w["name"]: {"value": table[w["name"]]["value"], "unit": w["unit"]}
            for w in wanted
            if isinstance(table.get(w["name"], {}).get("value"), (int, float))
        },
    }
    return result


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    summary = result.pop("summary")
    print(json.dumps(result, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
