"""Power sweeps, FEC-threshold crossings, and power-gap comparison of methods."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ber import BerMethod, ber_approx_new, ber_approx_prev, ber_exact
from .channel import DerivedParams, LinkParams, dbm_to_watts
from .errors import BracketError, NonMonotoneError
from .montecarlo import McConfig, McEstimate, mc_ber

_ANALYTIC = {
    BerMethod.EXACT: ber_exact,
    BerMethod.APPROX_NEW: ber_approx_new,
    BerMethod.APPROX_PREV: ber_approx_prev,
}

# auto-expansion limits for crossing brackets, dBm
_P_FLOOR = -20.0
_P_CEIL = 30.0
# crossing bisection stops once the bracket is narrower than this, dB
_RESOLUTION_DB = 1e-3


@dataclass(frozen=True)
class BerPoint:
    p_dbm: float
    ber: float
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None


@dataclass(frozen=True)
class BerCurve:
    method: BerMethod
    points: tuple[BerPoint, ...]


@dataclass(frozen=True)
class CrossingReport:
    method: BerMethod
    threshold: float
    p_cross_dbm: float
    bracket: tuple[float, float]


def power_grid(lo: float, hi: float, step: float) -> list[float]:
    if not (lo < hi):
        raise ValueError(f"sweep needs lo < hi, got {lo!r} .. {hi!r}")
    if not (step > 0):
        raise ValueError(f"sweep step must be positive, got {step!r}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


def _annotate(exc: Exception, method: BerMethod, p_dbm: float) -> None:
    """Prefix the message with the method and power, in place, so the exception
    keeps its type, attributes and traceback whatever its constructor takes."""
    exc.args = (f"{method.value} failed at P = {p_dbm:g} dBm: {exc}",)


def sweep(
    methods,
    p_range_dbm: tuple[float, float, float],
    d: DerivedParams,
    link: LinkParams,
    mc: McConfig | None = None,
    workers: int = 1,
) -> list[BerCurve]:
    """One BER curve per requested method over a uniform dBm grid.

    Analytic methods are evaluated at every grid point, serially: they are
    pure Python, which threads cannot run in parallel. Monte Carlo runs at
    every grid point on ``workers`` threads, with per-point seeds spawned
    deterministically from the master seed, so results do not depend on
    evaluation order or worker count.
    """
    wanted = [m for m in BerMethod if m in set(methods)]
    if not wanted:
        return []
    grid = power_grid(*p_range_dbm)
    if BerMethod.MONTE_CARLO in wanted and mc is None:
        raise ValueError("Monte Carlo requested but no McConfig given")

    curves: list[BerCurve] = []
    for method in wanted:
        if method is BerMethod.MONTE_CARLO:
            point_seeds = np.random.SeedSequence(mc.seed).generate_state(len(grid), np.uint64)

            def eval_mc(i: int) -> BerPoint:
                p = grid[i]
                est: McEstimate = mc_ber(
                    dbm_to_watts(p), d, link, mc.trials, int(point_seeds[i])
                )
                return BerPoint(p, est.ber, est.ci_low, est.ci_high, est.trials)

            points = _map_indexed(eval_mc, len(grid), workers, method, grid)
        else:
            fn = _ANALYTIC[method]

            def eval_analytic(i: int, fn=fn) -> BerPoint:
                p = grid[i]
                return BerPoint(p, fn(dbm_to_watts(p), d, link))

            points = _map_indexed(eval_analytic, len(grid), 1, method, grid)
        curves.append(BerCurve(method, tuple(points)))
    return curves


def _map_indexed(fn, n: int, workers: int, method: BerMethod, grid: list[float]):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, i) for i in range(n)]
        fn = lambda i: futures[i].result()  # noqa: E731
    results = [None] * n
    for i in range(n):
        try:
            results[i] = fn(i)
        except Exception as exc:
            _annotate(exc, method, grid[i])
            raise
    return results


def fec_crossing(
    method: BerMethod,
    threshold: float,
    d: DerivedParams,
    link: LinkParams,
) -> CrossingReport:
    """Transmit power at which the method's BER falls to ``threshold``.

    Bisects on dBm over an auto-expanded bracket down to ``_RESOLUTION_DB``,
    relying on BER decreasing monotonically with power; a non-monotone sample
    pattern aborts with a diagnostic rather than returning a bogus root.
    """
    if not (0.0 < threshold < 0.5):
        raise ValueError(f"threshold must be in (0, 0.5), got {threshold!r}")
    if not method.is_analytic:
        raise ValueError("crossings are bisected on analytic methods only; "
                         "interpolate the Monte Carlo sweep instead")
    fn = _ANALYTIC[method]
    cache: dict[float, float] = {}

    def ber_at(p: float) -> float:
        if p not in cache:
            cache[p] = fn(dbm_to_watts(p), d, link)
        return cache[p]

    lo, hi = -4.0, 16.0
    while ber_at(lo) <= threshold:
        if lo <= _P_FLOOR:
            raise BracketError(
                f"{method.value}: BER({lo:g} dBm) = {ber_at(lo):.3e} never exceeds "
                f"threshold {threshold:.3e} down to {_P_FLOOR:g} dBm"
            )
        lo = max(_P_FLOOR, lo - 4.0)
    while ber_at(hi) >= threshold:
        if hi >= _P_CEIL:
            raise BracketError(
                f"{method.value}: BER({hi:g} dBm) = {ber_at(hi):.3e} never drops below "
                f"threshold {threshold:.3e} up to {_P_CEIL:g} dBm"
            )
        hi = min(_P_CEIL, hi + 4.0)

    probed = sorted(cache.items())
    for (p1, b1), (p2, b2) in zip(probed[:-1], probed[1:]):
        if b2 >= b1:
            raise NonMonotoneError(
                f"{method.value}: BER not strictly decreasing between "
                f"{p1:g} dBm ({b1:.6e}) and {p2:g} dBm ({b2:.6e})"
            )

    while hi - lo > _RESOLUTION_DB:
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return CrossingReport(method, threshold, 0.5 * (lo + hi), (lo, hi))


def delta(
    method_a: BerMethod,
    method_b: BerMethod,
    threshold: float,
    d: DerivedParams,
    link: LinkParams,
) -> float:
    """Power gap in dB between two methods' threshold crossings.

    Positive when ``method_b`` needs more power than ``method_a`` to reach the
    threshold; exactly antisymmetric under swapping the methods.
    """
    p_a = fec_crossing(method_a, threshold, d, link).p_cross_dbm
    p_b = fec_crossing(method_b, threshold, d, link).p_cross_dbm
    return p_b - p_a
