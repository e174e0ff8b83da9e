"""Seeded inputs for the two benchmark workloads.

The benchmark draws every input here, from the workload name and seed alone.
The package only ever sees the generated links and run settings. The shared
link fields are pinned here rather than read from ``fso_ber.PRESETS``, so a
change to the package's presets cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from reference import link_constants

DEFAULT_SEED = 0
WORKLOADS = ("scan-analytic", "full-mc")

# the presets' shared values (1550 nm, 3 km, 5 cm aperture, 1.98 m waist)
SHARED_LINK = {
    "wavelength_nm": 1550.0,
    "link_length_km": 3.0,
    "aperture_radius_m": 0.05,
    "beam_waist_m": 1.98,
    "attenuation_db_per_km": 0.2208,
    "responsivity_a_per_w": 0.5,
    "noise_std": 1e-7,
}
SWEEP = (-4.0, 16.0, 0.5)
SMOKE_SWEEP = (-4.0, 16.0, 4.0)
ANALYTIC = ("exact", "approx-new", "approx-prev")

# scan-analytic draws, for each method, one link per cell of a GRID x GRID
# grid over log10(beta) and log10(rytov_variance) in [-6, 0]; pointing_std_m
# follows from beta. beta = gamma^2 sqrt(8 sigma_X^2) sets both the op's cost
# and where each method is correct, so the boxes are in beta:
# * exact and approx-new: beta in [10^0.5, 10^2.5]. From beta of about 1e3 up
#   their integration window misses mass (ROADMAP item 1). Below beta of about
#   1, pointing_std_m passes 1 m and many links never reach the FEC threshold
#   in the crossing search (BracketError).
# * approx-prev: beta in [10^1.5, 10^2.5]. Below beta of about 15 it raises
#   NonConvergenceError by design.
# Both defects stay measured, outside the timed loop: see PROBE_LINKS.
# Each link lies in the middle JITTER of its cell, so every seed covers each
# box evenly. Op cost depends strongly on beta: with plain random draws the
# cost of a pass moves by about 10 % from seed to seed, and with links
# anywhere in their cells by about 4 %.
GRID = 5
JITTER = 0.2
LOG_BETA = {"exact": (0.5, 2.5), "approx-new": (0.5, 2.5), "approx-prev": (1.5, 2.5)}
# run once per run, untimed, so the two known defects show in every result:
# beta about 1e6 (ROADMAP item 1's 1 mm case, REL_TOL missed) and about 0.2
PROBE_LINKS = ((1e-3, 0.5), (0.5, 1e-3))
MC_LINKS = 3
# the traced run repeats a fixed pass of this many ops (scan-analytic: all of
# them), so its counts repeat exactly; a full-mc op takes about 3 s
MC_TRACE_PASS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _jitter(rng: random.Random) -> float:
    """Where in its cell a link lies: the middle JITTER of the cell."""
    return 0.5 + JITTER * (rng.random() - 0.5)


def _link(pointing_std_m: float, rytov_variance: float) -> dict:
    return dict(SHARED_LINK, pointing_std_m=pointing_std_m, rytov_variance=rytov_variance)


def _link_at_beta(beta: float, rytov_variance: float) -> dict:
    # beta = w_eq^2 / (4 pointing_std_m^2) * sqrt(2 rytov_variance)
    quarter_w_eq_sq = link_constants(_link(1.0, rytov_variance))["gamma_sq"]
    return _link(math.sqrt(quarter_w_eq_sq * math.sqrt(2.0 * rytov_variance) / beta),
                 rytov_variance)


def probe_spec(sweep: list[float]) -> dict:
    """The known-defect probe: every analytic method on each of PROBE_LINKS, once.

    Its inputs do not depend on the seed, so its references sit in the
    committed table.
    """
    links = [_link(*p) for p in PROBE_LINKS]
    return {"workload": "scan-analytic", "seed": DEFAULT_SEED, "sweep": sweep,
            "threshold": 3.84e-3, "links": links,
            "ops": [{"link": k, "method": m} for k in range(len(links)) for m in ANALYTIC]}


def _preset_region_link(rng: random.Random) -> dict:
    # the region the three presets span: sigma_s 0.2..0.35 m, sigma_R^2 0.1..0.9
    return _link(rng.uniform(0.2, 0.35), rng.uniform(0.1, 0.9))


def make_spec(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything one run needs: links, ops and run settings, all from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (valid: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    sweep = SMOKE_SWEEP if smoke else SWEEP
    spec = {"workload": workload, "seed": seed, "sweep": list(sweep), "threshold": 3.84e-3}
    if workload == "scan-analytic":
        grid = 2 if smoke else GRID
        links, ops = [], []
        for method in ANALYTIC:
            lo, hi = LOG_BETA[method]
            for i in range(grid):
                for j in range(grid):
                    beta = 10.0 ** (lo + (hi - lo) * (i + _jitter(rng)) / grid)
                    rytov = 10.0 ** (-6.0 + 6.0 * (j + _jitter(rng)) / grid)
                    ops.append({"link": len(links), "method": method})
                    links.append(_link_at_beta(beta, rytov))
        rng.shuffle(ops)
        spec.update(links=links, ops=ops, trace_pass=len(ops))
    else:  # full-mc
        n = 2 if smoke else MC_LINKS
        links = [_preset_region_link(rng) for _ in range(n)]
        ops = [{"link": k, "mc_seed": rng.randrange(2**32)} for k in range(n)]
        spec.update(
            links=links, ops=ops, methods=["exact", "approx-new", "mc"],
            mc_trials=20_000 if smoke else 1_000_000, workers=min(2, nproc()),
            trace_pass=min(MC_TRACE_PASS, n),
        )
    spec["inputs_sha256"] = hashlib.sha256(
        json.dumps({k: v for k, v in spec.items() if k != "inputs_sha256"},
                   sort_keys=True).encode()
    ).hexdigest()
    return spec


def config_text(spec: dict, link: dict, seed: int) -> str:
    """The key = value config file a full-mc op passes to ``fso-ber run``."""
    lines = [f"{k} = {v!r}" for k, v in link.items()]
    lo, hi, step = spec["sweep"]
    lines += [f"sweep = {lo!r}:{hi!r}:{step!r}", f"methods = {','.join(spec['methods'])}",
              f"mc_trials = {spec['mc_trials']}", f"seed = {seed}",
              f"fec_threshold = {spec['threshold']!r}", f"workers = {spec['workers']}"]
    return "\n".join(lines) + "\n"
