"""Runs one workload's ops in a process of its own, so its peak RSS is its own.

    python3 bench/worker.py JOB.json RESULT.json

JOB.json holds the generated spec, the work directory, the run length and
whether to trace. The op loop is closed, with one caller: each op starts when
the previous one has returned. RESULT.json receives the op latencies, each
distinct op's output for the correctness gate, and the traced sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import fso_ber  # noqa: E402
from fso_ber import BerMethod, LinkParams, dbm_to_watts  # noqa: E402

import inputs  # noqa: E402

OWN_BER = {
    "exact": fso_ber.ber_exact,
    "approx-new": fso_ber.ber_approx_new,
    "approx-prev": fso_ber.ber_approx_prev,
}


# one calibration run takes about 0.4 ms on a 2-vCPU Xeon VM: long beside the
# clock's resolution, and three of them short beside an op (10 ms or more)
CAL_ITERS = 3000
CAL_REPEATS = 3


class CliExit(RuntimeError):
    """``fso-ber run`` returned a non-zero status."""


def own_ber(method: str, link: LinkParams, p_dbm: float) -> float:
    """The method's own BER at one power, computed outside the timed region."""
    return OWN_BER[method](dbm_to_watts(p_dbm), fso_ber.derive(link), link)


class ScanAnalytic:
    """One op: derive, sweep one analytic method, find its FEC crossing."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        links = [LinkParams(**link) for link in spec["links"]]
        self.ops = [(links[op["link"]], BerMethod(op["method"])) for op in spec["ops"]]

    def run(self, i: int):
        from fso_ber import analysis, channel

        link, method = self.ops[i]
        d = channel.derive(link)
        (curve,) = analysis.sweep([method], tuple(self.spec["sweep"]), d, link, workers=1)
        cross = analysis.fec_crossing(method, self.spec["threshold"], d, link)
        return {"ber": [p.ber for p in curve.points], "bracket": list(cross.bracket)}

    def collect(self, i: int, raw):
        return raw

    def own(self, i: int, out: dict) -> dict:
        link, method = self.ops[i]
        return {"bracket": [own_ber(method.value, link, p) for p in out["bracket"]]}


class FullMc:
    """One op: ``fso-ber run --config FILE --out DIR`` in process, with exact,
    approx-new and MC on a thread pool."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.links = [LinkParams(**link) for link in spec["links"]]
        self.out_dirs = [str(work / f"op{i}") for i in range(len(spec["ops"]))]
        self.ops = []
        for i, op in enumerate(spec["ops"]):
            path = work / f"op{i}.cfg"
            path.write_text(inputs.config_text(spec, spec["links"][op["link"]], op["mc_seed"]))
            self.ops.append(str(path))

    def run(self, i: int, workers: int | None = None):
        from fso_ber import cli

        args = ["run", "--config", self.ops[i], "--out", self.out_dirs[i]]
        if workers is not None:
            args += ["--workers", str(workers)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(args)
        if status != 0:
            lines = err.getvalue().strip().splitlines() or ["(no stderr)"]
            raise CliExit(f"exit {status}: {lines[-1]}")

    def collect(self, i: int, raw):
        out = Path(self.out_dirs[i])
        return {"csv": (out / "curves.csv").read_text(), "report": (out / "report.txt").read_text()}

    def own(self, i: int, out: dict) -> dict:
        import gate

        link = self.links[self.spec["ops"][i]["link"]]
        result = {}
        for method, p in gate.parse_crossings(out["report"]).items():
            result[method] = [own_ber(method, link, p - gate.CROSS_HALF_WIDTH),
                              own_ber(method, link, p + gate.CROSS_HALF_WIDTH)]
        return result


WORKLOADS = {"scan-analytic": ScanAnalytic, "full-mc": FullMc}


class Outcomes:
    """Each distinct op's first output; a repeat that differs is flagged."""

    def __init__(self):
        self.ops: dict[int, dict] = {}
        self.attempted = 0

    def add(self, i: int, out, error) -> None:
        self.attempted += 1
        rec = self.ops.setdefault(i, {"out": out, "error": error, "runs": 0, "mismatch": False})
        if rec["runs"] and (rec["out"], rec["error"]) != (out, error):
            rec["mismatch"] = True
        rec["runs"] += 1


def _one(w, i: int, outcomes: Outcomes, **kw) -> float:
    """Run op i, record its outcome, return its latency (collection excluded)."""
    error = None
    t0 = perf_counter()
    try:
        raw = w.run(i, **kw)
    except Exception as exc:  # a failed op is data for the gate, not a crash
        error = [type(exc).__name__, str(exc)]
    t1 = perf_counter()
    outcomes.add(i, None if error else w.collect(i, raw), error)
    return t1 - t0


def calibrate() -> float:
    """Seconds for a fixed pure-Python float loop: the machine's speed right now.

    It shares no code with the package, so a change to the package cannot
    move it, while a slower CPU moves it and the ops alike. The fastest of
    CAL_REPEATS runs, so that one interrupt does not count.
    """
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        s, x = 0.0, 0.5
        for _ in range(CAL_ITERS):
            s += math.exp(-x * x) + x
            x = x * 0.999 + 0.001
        best = min(best, perf_counter() - t0)
    return best


def timed_loop(w, seconds: float) -> dict:
    """Ops in turn until ``seconds`` have passed, with a calibration before
    each op and after the last."""
    outcomes = Outcomes()
    latencies, calibrations = [], [calibrate()]
    deadline = perf_counter() + seconds
    i = 0
    while True:
        latencies.append(_one(w, i % len(w.ops), outcomes))
        calibrations.append(calibrate())
        i += 1
        if perf_counter() >= deadline:
            break
    return {"latencies": latencies, "calibrations": calibrations, "outcomes": outcomes}


def traced_passes(w, spec: dict, seconds: float) -> dict:
    """Repeat the fixed trace pass under the tracer, then once untraced for the overhead."""
    import tracing

    pass_ops = range(spec["trace_pass"])
    tracer = tracing.Tracer()
    tracer.install()
    outcomes = Outcomes()
    traced_s = passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        tracer.active = True
        traced_s += sum(_one(w, i, outcomes) for i in pass_ops)
        tracer.active = False
        passes += 1
    tracer.uninstall()
    scratch = Outcomes()
    untraced_s = sum(_one(w, i, scratch) for i in pass_ops)
    metrics = tracing.finish(tracer.aggregate(), passes, tracer.installed, tracer.missing)
    metrics["trace.overhead_frac"] = traced_s / passes / untraced_s - 1.0
    if spec["workload"] == "full-mc" and spec["workers"] > 1:
        one_worker = sum(_one(w, i, scratch, workers=1) for i in pass_ops)
        metrics["analysis.speedup_2w"] = one_worker / untraced_s
    info = {"passes": passes, "ops_per_pass": len(pass_ops),
            "missing_targets": sorted(tracer.missing)}
    return {"latencies": [], "outcomes": outcomes, "per_module": metrics,
            "trace": info}


def own_outputs(w, outcomes: Outcomes) -> None:
    """Each distinct op's own BER at its checked points, for the gate."""
    for i, rec in outcomes.ops.items():
        if rec["error"] is None:
            try:
                rec["own"] = w.own(i, rec["out"])
            except Exception as exc:
                rec["own_error"] = [type(exc).__name__, str(exc)]


def run_probe(spec: dict, work: Path) -> dict[str, dict]:
    """Each known-defect probe op once, after the timed loop."""
    w = ScanAnalytic(spec, work)
    outcomes = Outcomes()
    for i in range(len(w.ops)):
        _one(w, i, outcomes)
    own_outputs(w, outcomes)
    return {str(i): rec for i, rec in outcomes.ops.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    spec = job["spec"]
    if not Path(fso_ber.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: fso_ber imported from {fso_ber.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[spec["workload"]](spec, Path(job["work"]))
    if job["trace"]:
        result = traced_passes(w, spec, job["seconds"])
    else:
        result = timed_loop(w, job["seconds"])
    result["peak_rss_mb"] = peak_rss_mb()

    outcomes = result.pop("outcomes")
    own_outputs(w, outcomes)
    if spec["workload"] == "scan-analytic":
        result["probe"] = run_probe(inputs.probe_spec(spec["sweep"]), Path(job["work"]))
    import numpy
    import scipy

    result.update(
        attempted=outcomes.attempted,
        ops={str(i): rec for i, rec in outcomes.ops.items()},
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "fso_ber": fso_ber.__version__},
    )
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
