"""Monte Carlo BER oracle: OOK symbols through sampled channels plus noise.

Each trial draws a composite gain h, transmits an equiprobable symbol
x in {0, 2P}, adds Gaussian detector noise n, and applies the midpoint
decision threshold eta P h (perfect channel knowledge), under which the
analytic conditional BER (1/2) erfc(eta P h / sqrt(2 sigma_n^2)) is exact.
The symbol itself is not drawn: a 0 is misread when n > eta P h and a 2P
when n < -eta P h, which for symmetric noise is the same event in
distribution, so a trial errs exactly when its unit noise over its gain
exceeds the threshold snr = eta P / sigma_n.

Neither the gain nor the noise depends on the power, so one set of trials
decides every power of a sweep: :func:`mc_ber`, given a list of powers,
forms r = n / h once per trial and counts it against all the thresholds at
once, and at one power it makes the same count against one threshold. A
sweep's point at P therefore equals ``mc_ber`` at P alone, and neighbouring
points share their trials. A trial with r at or below the lowest threshold
errs at no power, so each batch places only its upper tail, r > snr[0]
(about one trial in eight on the default sweep), among the thresholds: that
decision is exact, not a skip, as every trial that errs anywhere is in the
tail. Trials run in fixed 50 000-trial batches, batch i on the SFC64
generator :func:`batch_rng` makes from (seed, i). Of T threads, the calling
thread and T - 1 from a ``concurrent.futures`` pool, one per CPU the
process may run on, thread t decides batches t, t + T, t + 2T, ...; integer
counts add in any order, so the estimates depend only on (seed, trials),
never on the CPU count. Each thread draws into its own two float arrays and
marks its tail in its own boolean array, allocated once per call, so a
call's memory does not grow with the trial count. This module holds all of
the package's randomness. (The analytic BERs, pure Python, share the CPUs
with a forked helper process instead: see :mod:`fso_ber.forkmap`.)
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import DerivedParams, LinkParams
from .errors import check_integer, check_positive, refuse

# fixed sub-batch size; part of the determinism contract. The buffers of one
# thread (two float batches and one bool batch, about 0.85 MB) fit in a core's
# L2 cache, and it divides 5e4, 2e5 and 1e6.
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


def batch_rng(seed: int, i: int) -> np.random.Generator:
    """The generator of batch ``i``: SFC64 seeded by the i-th child of ``seed``.

    ``SeedSequence(seed, spawn_key=(i,))`` is the i-th child of
    ``SeedSequence(seed).spawn(k)`` for any k > i, so batch i's draws depend
    only on (seed, i), never on the order or the thread in which it runs.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(i,))))


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
    the same seed: batch i draws its up to 50 000 gains from
    :func:`batch_rng` (seed, i) straight into its slice of the result, so the
    peak is the result plus one batch.
    """
    check_integer("n", n, 1)
    check_integer("seed", seed, 0)
    h = np.empty(n)
    e = np.empty(min(_BATCH, n))
    for i, start in enumerate(range(0, n, _BATCH)):
        draw_gains(batch_rng(seed, i), d, min(_BATCH, n - start), h[start:start + _BATCH], e)
    return h


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval; stays valid at very low error counts."""
    check_integer("trials", trials, 1)
    check_integer("errors", errors, 0)
    if errors > trials:
        refuse("errors", f"<= trials = {trials!r}", errors)
    z = WILSON_Z99
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / denom
    # the interval always contains the point estimate; keep that true under rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _error_counts(snr: Sequence[float], d: DerivedParams, trials: int, seed: int) -> list[int]:
    """Errors at each of the non-decreasing thresholds ``snr``, all from one set of trials.

    A trial errs at threshold s when r = n / h > s. Every s is at least
    snr[0], so a trial errs somewhere exactly when r > snr[0]: each batch
    marks those k trials, copies their r into the free noise buffer and sorts
    them, and ``k - searchsorted(tail, s, side="right")`` is the number of
    them above s. A tie r == s does not err, and ``side="right"`` keeps it
    so. A gain that underflows to 0, or is so small that n / h overflows,
    gives r = +-inf, which errs at every threshold when n > 0 and at none
    when n < 0; r = 0/0 = nan fails r > snr[0], so it is counted nowhere, as
    n > s h is false for n = h = 0. An empty ``snr`` draws nothing.

    Of the T = ``min(cpus, batches)`` threads, the calling thread and T - 1
    helpers of a ``concurrent.futures`` pool, thread t decides batches t,
    t + T, t + 2T, ... of :func:`batch_rng` (numpy's drawing, dividing,
    copying and sorting release the GIL). Each thread decides into its own
    buffers and counts, and the counts are summed at the end. With one
    batch or one CPU no thread starts. An exception in any thread stops the
    others at their next batch and is raised once every helper has exited.
    """
    snr = np.asarray(snr, dtype=float)
    if snr.size == 0:
        return []
    batches = -(-trials // _BATCH)
    size = min(_BATCH, trials)
    # every thread's buffers exist for the whole call, so its peak memory does
    # not depend on how the threads happen to overlap
    buffers = [(np.empty(size), np.empty(size), np.empty(size, dtype=bool))
               for _ in range(min(_usable_cpus(), batches))]
    stop = threading.Event()

    def work(first: int, h: np.ndarray, e: np.ndarray, above: np.ndarray) -> np.ndarray:
        counts = np.zeros(snr.size, dtype=np.int64)
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # per thread
                for i in range(first, batches, len(buffers)):
                    if stop.is_set():
                        break
                    rng, n = batch_rng(seed, i), min(_BATCH, trials - i * _BATCH)
                    r = draw_gains(rng, d, n, h, e)
                    np.divide(rng.standard_normal(out=e[:n]), r, out=r)  # r = noise / gain
                    mask = np.greater(r, snr[0], out=above[:n])
                    k = np.count_nonzero(mask)
                    tail = np.compress(mask, r, out=e[:k])  # the noise is spent
                    tail.sort()
                    counts += k - np.searchsorted(tail, snr, side="right")
        except BaseException:
            stop.set()
            raise
        return counts

    if len(buffers) == 1:
        return work(0, *buffers[0]).tolist()
    from concurrent.futures import ThreadPoolExecutor  # importing the package does not load it

    with ThreadPoolExecutor(len(buffers) - 1, thread_name_prefix="fso_ber-mc") as pool:
        helpers = [pool.submit(work, t, *buffers[t]) for t in range(1, len(buffers))]
        counts = work(0, *buffers[0])
        for helper in helpers:
            counts += helper.result()
    return counts.tolist()


def _threshold(p_watts: float, link: LinkParams) -> float:
    """The threshold snr = R P / sigma_n that a trial's n / h must exceed to err."""
    check_positive("p_watts", p_watts)
    return link.responsivity_a_per_w * p_watts / link.noise_std


def mc_ber(
    p_watts: float | Sequence[float], d: DerivedParams, link: LinkParams, trials: int, seed: int
) -> McEstimate | list[McEstimate]:
    """Estimate the average BER by direct simulation, at one power or at several.

    Given a non-decreasing sequence of powers, one set of ``trials`` trials
    decides every one of them and a list of estimates is returned: the
    estimate at each power equals ``mc_ber`` at that power alone for the same
    (trials, seed), and the error count never rises with power. Intended
    trial counts are >= 1e4; the Wilson interval keeps the CI meaningful down
    to zero observed errors. ``trials`` must be an integer >= 1 and ``seed``
    an integer >= 0; either raises ``ValueError`` otherwise.
    """
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    single = np.ndim(p_watts) == 0
    snr = [_threshold(p, link) for p in ([p_watts] if single else p_watts)]
    if any(b < a for a, b in zip(snr, snr[1:])):
        refuse("p_watts", "non-decreasing", p_watts)
    estimates = []
    for errors in _error_counts(snr, d, trials, seed):
        ci_low, ci_high = wilson_interval(errors, trials)
        estimates.append(McEstimate(trials=trials, errors=errors, ber=errors / trials,
                                    ci_low=ci_low, ci_high=ci_high, low_confidence=errors == 0))
    return estimates[0] if single else estimates
