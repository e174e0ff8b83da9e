"""Monte Carlo BER oracle: OOK symbols through sampled channels plus noise.

Each trial draws a composite gain h, transmits an equiprobable symbol
x in {0, 2P}, adds Gaussian detector noise n, and applies the midpoint
decision threshold eta P h (perfect channel knowledge), under which the
analytic conditional BER (1/2) erfc(eta P h / sqrt(2 sigma_n^2)) is exact.
The symbol itself is not drawn: a 0 is misread when n > eta P h and a 2P
when n < -eta P h, which for symmetric noise is the same event in
distribution, so a trial errs exactly when n / sigma_n > (eta P / sigma_n) h.
Trials run in the fixed 50 000-trial batches of :func:`batch_generators`,
each on its own SFC64 generator, so the estimate depends only on (seed,
trials). Every batch draws into the same three arrays, allocated once per
call, so a call holds two float batches and one bool batch whatever the
trial count, and a batch allocates nothing. Parallelism lives one level up,
in the sweep's pool over power points, whose per-point seeds come from
:func:`point_seeds`. This module holds all of the package's randomness.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import DerivedParams, LinkParams

# fixed sub-batch size; part of the determinism contract. The buffers of one
# mc_ber call (two float and one bool batch, about 0.85 MB) fit in a core's L2
# cache, and it divides 5e4, 2e5 and 1e6.
_BATCH = 50_000
# two-sided 99% normal quantile, Phi^-1(0.995); pinned and asserted in tests
WILSON_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class McEstimate:
    """BER point estimate with a 99% Wilson score interval."""

    trials: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    low_confidence: bool  # True when no errors were observed (one-sided bound only)


def batch_generators(seed: int, n: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Split ``n`` draws into fixed-size batches, each with its own generator.

    Batch i draws from an SFC64 generator seeded by the i-th child spawned
    from the master seed, so the draws depend only on (seed, n), never on the
    order or the thread in which the batches run. ``n`` is checked at the
    call; the batches are made one at a time as they are consumed.
    """
    if n < 1:
        raise ValueError(f"draw count must be >= 1, got {n!r}")
    root = np.random.SeedSequence(seed)
    # successive spawn(1) calls give the same children as one spawn(k)
    return (
        (np.random.Generator(np.random.SFC64(root.spawn(1)[0])), min(_BATCH, n - start))
        for start in range(0, n, _BATCH)
    )


def point_seeds(seed: int, n: int) -> list[int]:
    """Seeds of the ``n`` points of a sweep, the i-th depending only on (seed, i)."""
    return np.random.SeedSequence(seed).generate_state(n, np.uint64).tolist()


def draw_gains(
    rng: np.random.Generator, d: DerivedParams, n: int, h: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Draw ``n`` composite gains h = h_a h_p h_l from one generator into ``h[:n]``.

    h_a = exp(2 sigma_X Z - 2 sigma_X^2) with Z standard normal, giving
    unit-mean fading. h_p = A0 exp(-2 r^2 / omega_z_eq^2) with r the radial
    pointing offset; r^2 / (2 sigma_s^2) = (x^2 + y^2) / 2 for standard normal
    x, y is a standard exponential E, so h_p = A0 exp(-E / gamma^2). One
    normal and one exponential draw per gain, combined in the log domain.
    Z is drawn into ``h`` and E into ``e``, the caller's float64 arrays of at
    least ``n`` elements; returns the view ``h[:n]``, and ``e[:n]`` is free
    once this returns.
    """
    ln_h, e = h[:n], e[:n]
    rng.standard_normal(out=ln_h)
    ln_h *= 2.0 * math.sqrt(d.sigma_x_sq)
    ln_h += math.log(d.a0_h_l) - 2.0 * d.sigma_x_sq
    rng.standard_exponential(out=e)
    e /= d.gamma_sq
    ln_h -= e
    return np.exp(ln_h, out=ln_h)


def sample_h(d: DerivedParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` gain samples, bit-reproducible for a given (seed, n).

    These are exactly the gains :func:`mc_ber` draws for ``trials = n`` and
    the same seed (see :func:`batch_generators`). Each batch is drawn straight
    into its slice of the result, so the peak is the result plus one batch.
    """
    batches = batch_generators(seed, n)  # checks n before the allocation
    h = np.empty(n)
    e = np.empty(min(_BATCH, n))
    for start, (rng, size) in zip(range(0, n, _BATCH), batches):
        draw_gains(rng, d, size, h[start:start + size], e)
    return h


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval; stays valid at very low error counts."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must be in [0, trials], got {errors!r}")
    z = WILSON_Z99
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / denom
    # the interval always contains the point estimate; keep that true under rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def mc_ber(
    p_watts: float, d: DerivedParams, link: LinkParams, trials: int, seed: int
) -> McEstimate:
    """Estimate the average BER by direct simulation.

    Intended trial counts are >= 1e4; the Wilson interval keeps the CI
    meaningful down to zero observed errors.
    """
    if not (p_watts > 0 and math.isfinite(p_watts)):
        raise ValueError(f"transmit power must be positive and finite, got {p_watts!r}")
    snr = link.responsivity_a_per_w * p_watts / link.noise_std

    batches = batch_generators(seed, trials)  # checks trials before the allocation
    # every batch draws into these; they are local, so pool threads share none
    size = min(_BATCH, trials)
    h, e, mask = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    errors = 0
    for rng, n in batches:
        # a trial errs when its unit noise exceeds the margin snr * h
        margin = draw_gains(rng, d, n, h, e)
        margin *= snr
        noise = rng.standard_normal(out=e[:n])
        errors += int(np.count_nonzero(np.greater(noise, margin, out=mask[:n])))
    ci_low, ci_high = wilson_interval(errors, trials)
    return McEstimate(
        trials=trials,
        errors=errors,
        ber=errors / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        low_confidence=(errors == 0),
    )
