"""Run orchestration: evaluate curves, locate crossings, emit CSV and report.

Output files are written only after every computation has succeeded: both go
to temp files in the target directory, with the mode open(path, "w") gives
under the umask, before either is renamed into place, and a target that is a
directory fails the run before either is written. So a failing run leaves no
partial artifacts behind, unless the second rename fails for another reason.

The sweep's analytic points are shared with a forked helper process where
more than one CPU is usable (:func:`~fso_ber.forkmap.map_tasks`). The FEC
crossings run in this process after it, one after another, so that each
starts from the sweep's BERs of its method (see
:func:`~fso_ber.analysis.fec_crossing`). The files depend neither on the CPU
count nor on the sweep grid's points.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .analysis import BerCurve, CrossingReport, fec_crossing, power_gap, sweep
from .ber import BerMethod
from .channel import DerivedParams, LinkParams, derive
from .config import RunConfig
from .errors import BracketError

CSV_HEADER = "p_dbm,ber_exact,ber_approx_new,ber_approx_prev,ber_mc,mc_ci_low,mc_ci_high,mc_trials"


@dataclass(frozen=True)
class RunArtifacts:
    csv_path: Path
    report_path: Path


def _sci(x: float) -> str:
    """Scientific notation, 9 significant digits."""
    return f"{x:.8e}"


def render_csv(curves: list[BerCurve]) -> str:
    """The CSV of one or more curves over one grid."""
    by_method = {c.method: c for c in curves}
    lines = [CSV_HEADER]
    for i, point in enumerate(curves[0].points):
        row = [_sci(point.p_dbm)]
        for method in (BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.APPROX_PREV):
            curve = by_method.get(method)
            row.append(_sci(curve.points[i].ber) if curve else "")
        mc = by_method.get(BerMethod.MONTE_CARLO)
        if mc:
            pt = mc.points[i]
            row += [_sci(pt.ber), _sci(pt.mc.ci_low), _sci(pt.mc.ci_high), str(pt.mc.trials)]
        else:
            row += ["", "", "", ""]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _mc_crossing_dbm(curve: BerCurve, threshold: float) -> float | None:
    """Log-linear interpolation of the Monte Carlo sweep at the threshold."""
    pts = [p for p in curve.points if p.ber > 0]
    for a, b in zip(pts[:-1], pts[1:]):
        if a.ber >= threshold >= b.ber:
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(threshold)
            if la == lb:
                return a.p_dbm
            return a.p_dbm + (b.p_dbm - a.p_dbm) * (lt - la) / (lb - la)
    return None


def render_report(
    config: RunConfig,
    d: DerivedParams,
    crossings: dict[BerMethod, CrossingReport],
    mc_cross_dbm: float | None,
    deltas: dict[tuple[BerMethod, BerMethod], float],
) -> str:
    lines = ["fso-ber run report", ""]
    lines.append("[configuration]")
    lines.append(f"methods = {','.join(m.value for m in config.methods)}")
    # repr round-trips through the config parsers, so these are the values that ran
    def echo(x: float) -> str:
        return repr(float(x)).removesuffix(".0")

    lines.append(f"sweep_dbm = {':'.join(map(echo, config.sweep))}")
    lines.append(f"fec_threshold = {echo(config.fec_threshold)}")
    lines.append(f"seed = {config.seed}")
    if BerMethod.MONTE_CARLO in config.methods:
        lines.append(f"mc_trials = {config.mc_trials}")
    lines.append("")
    lines.append("[derived channel parameters]")
    lines.append(f"h_l = {d.h_l:.17g}")
    lines.append(f"A0 = {d.a0:.17g}")
    lines.append(f"gamma = {d.gamma:.17g}")
    lines.append(f"mu = {d.mu:.17g}")
    lines.append(f"h_hat = {d.h_hat:.17g}")
    lines.append(f"sigma_X_sq = {d.sigma_x_sq:.17g}")
    lines.append("")
    lines.append(f"[FEC crossings at threshold {echo(config.fec_threshold)}]")
    for method, report in crossings.items():
        lines.append(f"p_cross[{method.value}] = {report.p_cross_dbm:.4f} dBm")
    if mc_cross_dbm is not None:
        lines.append(f"p_cross[mc] = {mc_cross_dbm:.4f} dBm (sweep interpolation)")
    lines.append("")
    lines.append("[pairwise power gaps, p_cross(b) - p_cross(a)]")
    if deltas:
        for (a, b), gap in deltas.items():
            lines.append(f"delta[{a.value} -> {b.value}] = {gap:+.4f} dB")
    else:
        lines.append("(fewer than two analytic methods requested)")
    return "\n".join(lines) + "\n"


def _write_atomic(outputs: dict[Path, str]) -> None:
    """Write every text to a temp file, then rename each onto its path; a
    failure removes the temp files. A path that is a directory is refused
    before anything is written."""
    for path in outputs:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    renames = []
    try:
        for path, text in outputs.items():
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            # 0o666 less the umask, as open(path, "w") creates a file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            renames.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in renames:
            tmp.unlink(missing_ok=True)
        raise


def _crossing(method: BerMethod, threshold: float, d: DerivedParams,
              link: LinkParams) -> CrossingReport | None:
    """The method's FEC crossing, or None when the threshold is not reached
    inside the search window, which the report then omits."""
    try:
        return fec_crossing(method, threshold, d, link)
    except BracketError:
        return None


def run(config: RunConfig) -> RunArtifacts:
    """Execute one configured run and write curves.csv and report.txt."""
    d = derive(config.link)
    curves = sweep(config.methods, config.sweep, d, config.link, mc_trials=config.mc_trials,
                   seed=config.seed)
    found = {m: _crossing(m, config.fec_threshold, d, config.link)
             for m in config.methods if m.is_analytic}
    crossings = {m: c for m, c in found.items() if c is not None}
    mc_cross = None
    if BerMethod.MONTE_CARLO in config.methods:
        mc_curve = next(c for c in curves if c.method is BerMethod.MONTE_CARLO)
        mc_cross = _mc_crossing_dbm(mc_curve, config.fec_threshold)

    deltas = {(a, b): power_gap(crossings[a], crossings[b]) for a, b in combinations(crossings, 2)}

    csv_text = render_csv(curves)
    report_text = render_report(config, d, crossings, mc_cross, deltas)

    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(out_dir / "curves.csv", out_dir / "report.txt")
    _write_atomic({artifacts.csv_path: csv_text, artifacts.report_path: report_text})
    return artifacts
