"""Run orchestration: evaluate curves, locate crossings, emit CSV and report.

Output files are written atomically (temp file in the target directory, then
rename) and only after every computation has succeeded, so a failing run
leaves no partial artifacts behind.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .analysis import BerCurve, CrossingReport, fec_crossing, sweep
from .ber import BerMethod
from .channel import DerivedParams, derive
from .config import RunConfig
from .errors import BracketError
from .montecarlo import McConfig

CSV_HEADER = "p_dbm,ber_exact,ber_approx_new,ber_approx_prev,ber_mc,mc_ci_low,mc_ci_high,mc_trials"


@dataclass(frozen=True)
class RunArtifacts:
    csv_path: Path
    report_path: Path


def _sci(x: float) -> str:
    """Scientific notation, 9 significant digits."""
    return f"{x:.8e}"


def render_csv(curves: list[BerCurve]) -> str:
    by_method = {c.method: c for c in curves}
    grids = [tuple(p.p_dbm for p in c.points) for c in curves]
    if not grids:
        return CSV_HEADER + "\n"
    grid = grids[0]
    lines = [CSV_HEADER]
    for i, p in enumerate(grid):
        row = [_sci(p)]
        for method in (BerMethod.EXACT, BerMethod.APPROX_NEW, BerMethod.APPROX_PREV):
            curve = by_method.get(method)
            row.append(_sci(curve.points[i].ber) if curve else "")
        mc = by_method.get(BerMethod.MONTE_CARLO)
        if mc:
            pt = mc.points[i]
            row += [_sci(pt.ber), _sci(pt.ci_low), _sci(pt.ci_high), str(pt.trials)]
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
    lo, hi, step = config.sweep
    lines.append(f"sweep_dbm = {lo:g}:{hi:g}:{step:g}")
    lines.append(f"fec_threshold = {config.fec_threshold:.9e}")
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
    lines.append(f"[FEC crossings at threshold {config.fec_threshold:.3e}]")
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


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(config: RunConfig) -> RunArtifacts:
    """Execute one configured run and write curves.csv and report.txt."""
    d = derive(config.link)
    mc = (
        McConfig(trials=config.mc_trials, seed=config.seed)
        if BerMethod.MONTE_CARLO in config.methods
        else None
    )
    curves = sweep(
        config.methods, config.sweep, d, config.link,
        mc=mc, workers=config.workers,
    )

    analytic = [m for m in config.methods if m.is_analytic]
    crossings: dict[BerMethod, CrossingReport] = {}
    for method in analytic:
        try:
            crossings[method] = fec_crossing(method, config.fec_threshold, d, config.link)
        except BracketError:
            # threshold not reached inside the search window; report omits it
            pass
    mc_cross = None
    if BerMethod.MONTE_CARLO in config.methods:
        mc_curve = next(c for c in curves if c.method is BerMethod.MONTE_CARLO)
        mc_cross = _mc_crossing_dbm(mc_curve, config.fec_threshold)

    deltas = {
        (a, b): crossings[b].p_cross_dbm - crossings[a].p_cross_dbm
        for a, b in combinations(crossings, 2)
    }

    csv_text = render_csv(curves)
    report_text = render_report(config, d, crossings, mc_cross, deltas)

    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(out_dir / "curves.csv", out_dir / "report.txt")
    _write_atomic(artifacts.csv_path, csv_text)
    _write_atomic(artifacts.report_path, report_text)
    return artifacts
