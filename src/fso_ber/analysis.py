"""Power sweeps, FEC-threshold crossings, and power-gap comparison of methods."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ber import BerMethod, ber_approx_new, ber_approx_prev, ber_exact
from .channel import DerivedParams, LinkParams, dbm_to_watts
from .errors import (BracketError, NonMonotoneError, check_integer, check_members, check_number,
                     check_positive, check_threshold, refuse)
from .montecarlo import McEstimate, mc_ber

_ANALYTIC = {
    BerMethod.EXACT: ber_exact,
    BerMethod.APPROX_NEW: ber_approx_new,
    BerMethod.APPROX_PREV: ber_approx_prev,
}

# auto-expansion limits for crossing brackets, dBm
_P_FLOOR = -20.0
_P_CEIL = 30.0
# crossing search stops once the bracket is at most this wide, dB
_RESOLUTION_DB = 1e-3
# largest sweep grid accepted; the default sweep has 41 points
_MAX_POINTS = 100_000


@dataclass(frozen=True)
class BerPoint:
    p_dbm: float
    ber: float
    mc: McEstimate | None = None  # the Monte Carlo estimate behind ``ber``


@dataclass(frozen=True)
class BerCurve:
    method: BerMethod
    points: tuple[BerPoint, ...]


@dataclass(frozen=True)
class CrossingReport:
    p_cross_dbm: float
    bracket: tuple[float, float]


def power_grid(lo: float, hi: float, step: float) -> list[float]:
    check_number("sweep: lo", lo)
    check_number("sweep: hi", hi)
    if not lo < hi:
        refuse("sweep: hi", f"> lo = {lo!r}", hi)
    check_positive("sweep: step", step)
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValueError(f"sweep: step {step!r} is too small for {lo!r} .. {hi!r}")
    n = int(math.floor(span + 1e-9)) + 1
    if n > _MAX_POINTS:
        raise ValueError(
            f"sweep: {n:.6g} points from {lo!r} .. {hi!r} at step {step!r}; "
            f"at most {_MAX_POINTS} are allowed"
        )
    top = lo + (n - 1) * step
    try:
        dbm_to_watts(top)
    except OverflowError:
        refuse("sweep: top power", "at most about 3112.547 dBm, past which its watts "
               "overflow a float", top)
    return [lo + i * step for i in range(n)]


def _ber_call(method: BerMethod, fn, p_dbm, *args):
    """``fn`` at ``p_dbm`` converted to watts, then ``args``: one BER call of
    ``method``. ``p_dbm`` is a power in dBm, or for Monte Carlo the list of a
    grid's powers.

    This is where every failed BER call is named: its message, which states
    only the cause, gets "<method> failed at P = <power> dBm: " in front, a
    list named by its span. The prefix is set in place, so the exception keeps
    its type, attributes and traceback whatever its constructor takes.
    """
    try:
        if isinstance(p_dbm, list):
            return fn([dbm_to_watts(p) for p in p_dbm], *args)
        return fn(dbm_to_watts(p_dbm), *args)
    except Exception as exc:
        at = f"{p_dbm[0]:g} .. {p_dbm[-1]:g}" if isinstance(p_dbm, list) else f"{p_dbm:g}"
        exc.args = (f"{method.value} failed at P = {at} dBm: {exc}",)
        raise


def sweep(
    methods,
    p_range_dbm: tuple[float, float, float],
    d: DerivedParams,
    link: LinkParams,
    mc_trials: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> list[BerCurve]:
    """One BER curve per requested method over a uniform dBm grid.

    Analytic methods are evaluated at every grid point, serially: they are
    pure Python, which threads cannot run in parallel. Monte Carlo makes one
    :func:`~fso_ber.montecarlo.mc_ber` call over the whole grid: one set of
    ``mc_trials`` trials from the master ``seed`` decides every point, so each
    point keeps the :class:`McEstimate` that ``mc_ber`` gives at its power
    alone, and the points share their trials. A failure names the method and
    the power, or for Monte Carlo the grid's span. ``workers`` has no effect
    and is kept for callers that pass it: Monte Carlo shares its batches
    among the CPUs the process may run on, and results depend on neither.
    Before any work, ``ValueError`` refuses an entry of ``methods`` that is
    not a :class:`BerMethod`, a ``workers`` that is not an integer >= 1 and,
    with Monte Carlo, an ``mc_trials`` that is not an integer >= 1 or a
    ``seed`` that is not an integer >= 0.
    """
    chosen = set(methods)
    check_members("methods", chosen, BerMethod)
    check_integer("workers", workers, 1)
    if BerMethod.MONTE_CARLO in chosen:
        check_integer("mc_trials", mc_trials, 1)
        check_integer("seed", seed, 0)
    wanted = [m for m in BerMethod if m in chosen]
    if not wanted:
        return []
    grid = power_grid(*p_range_dbm)

    curves: list[BerCurve] = []
    for method in wanted:
        if method is BerMethod.MONTE_CARLO:
            estimates = _ber_call(method, mc_ber, grid, d, link, mc_trials, seed)
            points = [BerPoint(p, est.ber, est) for p, est in zip(grid, estimates)]
        else:
            fn = _ANALYTIC[method]
            points = [BerPoint(p, _ber_call(method, fn, p, d, link)) for p in grid]
        curves.append(BerCurve(method, tuple(points)))
    return curves


def fec_crossing(
    method: BerMethod,
    threshold: float,
    d: DerivedParams,
    link: LinkParams,
) -> CrossingReport:
    """Transmit power at which the method's BER falls to ``threshold``.

    Brackets the crossing on dBm, expanding from -4..16 dBm in 4 dB steps up to
    the -20..30 dBm window, then narrows the bracket to ``_RESOLUTION_DB`` by
    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47(1),
    2020) on ln(BER / threshold). ITP converges superlinearly on a smooth
    curve and never takes more than one step beyond bisection's count. The
    result is the bracket midpoint, with BER(lo) > threshold >= BER(hi).
    BER must decrease with power: a rise, or a repeated positive value, among
    the probed points aborts with a diagnostic rather than returning a bogus
    root. A failed BER call names the method and the power, as in :func:`sweep`.
    A ``threshold`` that is not a number in (0, 0.5) raises ``ValueError``.
    """
    check_threshold("threshold", threshold)
    if not method.is_analytic:
        raise ValueError("crossings are located on analytic methods only; "
                         "interpolate the Monte Carlo sweep instead")
    fn = _ANALYTIC[method]
    cache: dict[float, float] = {}

    def ber_at(p: float) -> float:
        if p not in cache:
            cache[p] = _ber_call(method, fn, p, d, link)
        return cache[p]

    def check_monotone() -> None:
        probed = sorted(cache.items())
        for (p1, b1), (p2, b2) in zip(probed[:-1], probed[1:]):
            # two powers whose BER both underflowed to 0 are no defect
            if b2 >= b1 and b2 > 0.0:
                raise NonMonotoneError(
                    f"{method.value}: BER not strictly decreasing between "
                    f"{p1:g} dBm ({b1:.6e}) and {p2:g} dBm ({b2:.6e})"
                )

    def log_excess(p: float) -> float:
        ber = ber_at(p)
        return math.log(ber / threshold) if ber > 0.0 else -math.inf

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
    check_monotone()

    # ITP with eps = resolution / 2, kappa1 = 0.2 / first width, kappa2 = 2, n0 = 1:
    # the bracket after step j is at most eps * 2**(n_max - j) wide, and n_max is
    # bisection's count + 1. The projection aims a part in 1e9 inside that
    # bound, so rounding cannot leave the last bracket an ulp over 2 eps.
    eps = 0.5 * _RESOLUTION_DB
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / (2.0 * eps))) + 1
    bound = eps * (1.0 - 1e-9)
    g_lo, g_hi = log_excess(lo), log_excess(hi)
    j = 0
    while hi - lo > 2.0 * eps:
        mid = 0.5 * (lo + hi)
        if -math.inf < g_hi < g_lo:
            r = max(0.0, bound * 2.0 ** (n_max - j) - 0.5 * (hi - lo))
            x_f = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            sigma = math.copysign(1.0, mid - x_f)
            delta_t = kappa1 * (hi - lo) ** 2
            x_t = x_f + sigma * delta_t if delta_t <= abs(mid - x_f) else mid
            p = x_t if abs(x_t - mid) <= r else mid - sigma * r
        else:
            # no secant through the ends: BER underflowed to 0 at hi
            p = mid
        if ber_at(p) > threshold:
            lo, g_lo = p, log_excess(p)
        else:
            hi, g_hi = p, log_excess(p)
        j += 1
    check_monotone()
    return CrossingReport(0.5 * (lo + hi), (lo, hi))


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
    return power_gap(fec_crossing(method_a, threshold, d, link),
                     fec_crossing(method_b, threshold, d, link))


def power_gap(a: CrossingReport, b: CrossingReport) -> float:
    """Power gap in dB from crossing ``a`` to crossing ``b``: p_cross(b) - p_cross(a)."""
    return b.p_cross_dbm - a.p_cross_dbm
