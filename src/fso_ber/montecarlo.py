"""Monte Carlo BER oracle: OOK symbols through sampled channels plus noise.

Each trial draws a composite gain h, transmits an equiprobable symbol
x in {0, 2P}, adds Gaussian detector noise n, and applies the midpoint
decision threshold eta P h (perfect channel knowledge), under which the
analytic conditional BER (1/2) erfc(eta P h / sqrt(2 sigma_n^2)) is exact.
The symbol itself is not drawn: a 0 is misread when n > eta P h and a 2P
when n < -eta P h, which for symmetric noise is the same event in
distribution, so a trial errs exactly when n / sigma_n > (eta P / sigma_n) h.
Trials run in the fixed-size batches of :func:`fso_ber.channel.batch_generators`,
so the estimate depends only on (seed, trials) regardless of execution order
or parallelism width.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import DerivedParams, LinkParams, batch_generators, draw_gains

# two-sided 99% normal quantile, Phi^-1(0.995); pinned and asserted in tests
WILSON_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings carried through sweeps."""

    trials: int = 1_000_000
    seed: int = 12345


@dataclass(frozen=True)
class McEstimate:
    """BER point estimate with a 99% Wilson score interval."""

    trials: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    seed: int
    low_confidence: bool  # True when no errors were observed (one-sided bound only)


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z99) -> tuple[float, float]:
    """Wilson score interval; stays valid at very low error counts."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must be in [0, trials], got {errors!r}")
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / denom
    # the interval always contains the point estimate; keep that true under rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def mc_ber(
    p_watts: float,
    d: DerivedParams,
    link: LinkParams,
    trials: int,
    seed: int,
    workers: int = 1,
    gain_override: float | None = None,
) -> McEstimate:
    """Estimate the average BER by direct simulation.

    ``gain_override`` pins the channel gain to a constant (fading disabled),
    which turns the estimate into a check of the conditional-BER detection
    model alone. Intended trial counts are >= 1e4; the Wilson interval keeps
    the CI meaningful down to zero observed errors.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not (p_watts > 0 and math.isfinite(p_watts)):
        raise ValueError(f"transmit power must be positive and finite, got {p_watts!r}")
    snr = link.responsivity_a_per_w * p_watts / link.noise_std
    batches = batch_generators(seed, trials)

    def count_errors(batch) -> int:
        """Errors in one batch: trials whose unit noise exceeds the margin snr * h."""
        rng, n = batch
        if gain_override is None:
            margin = draw_gains(rng, d, n)
            margin *= snr
        else:
            margin = snr * float(gain_override)
        return int(np.count_nonzero(rng.standard_normal(n) > margin))

    if workers > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(count_errors, batches))
    else:
        counts = [count_errors(b) for b in batches]

    errors = sum(counts)  # order-insensitive reduction keeps the result width-invariant
    ci_low, ci_high = wilson_interval(errors, trials)
    return McEstimate(
        trials=trials,
        errors=errors,
        ber=errors / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed,
        low_confidence=(errors == 0),
    )
