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
# a crossing's bracket is one cell of the lattice k * _CELL_DB dBm, whose
# points in the search window are exact floats, as are the default grid's
_CELL_DB = 2.0 ** -10
# largest sweep grid accepted; the default sweep has 41 points
_MAX_POINTS = 100_000

# this process's most recent sweep, replaced by each call: (d, link,
# {method: (fn, {p_dbm: ber})}) for its analytic curves, where fn is the
# _ANALYTIC entry that computed them; None after a sweep that raised
_last_sweep = None


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


def _analytic_ber(method: BerMethod, p_dbm: float, d: DerivedParams, link: LinkParams) -> float:
    """The analytic ``method``'s BER at ``p_dbm``: one sweep task."""
    return _ber_call(method, _ANALYTIC[method], p_dbm, d, link)


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

    Analytic methods are evaluated at every grid point, the (method, power)
    points shared out by :func:`~fso_ber.forkmap.map_tasks` between this
    process and a forked helper when it may run on more than one CPU; each
    point is the same call wherever it runs, so the curves do not depend on
    the CPU count, and a failure raises as it would serially, at the first
    failing point in method and grid order. Monte Carlo makes one
    :func:`~fso_ber.montecarlo.mc_ber` call over the whole grid: one set of
    ``mc_trials`` trials from the master ``seed`` decides every point, so each
    point keeps the :class:`McEstimate` that ``mc_ber`` gives at its power
    alone, and the points share their trials. A failure names the method and
    the power, or for Monte Carlo the grid's span. ``workers`` has no effect
    and is kept for callers that pass it: analytic points and Monte Carlo
    batches are shared among the CPUs the process may run on, and results
    depend on neither. The analytic curves are kept, until the next call,
    for :func:`fec_crossing` to start from: keyed by ``d``, ``link``, the
    method and its ``_ANALYTIC`` function, and only once every curve is done.
    Before any work, ``ValueError`` refuses an entry of ``methods`` that is
    not a :class:`BerMethod`, a ``workers`` that is not an integer >= 1 and,
    with Monte Carlo, an ``mc_trials`` that is not an integer >= 1 or a
    ``seed`` that is not an integer >= 0.
    """
    global _last_sweep
    _last_sweep = None
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

    from . import forkmap  # importing the package does not load it

    fns = {m: _ANALYTIC[m] for m in wanted if m.is_analytic}
    bers = iter(forkmap.map_tasks(_analytic_ber, [(m, p, d, link) for m in fns for p in grid]))
    curves: list[BerCurve] = []
    for method in wanted:
        if method is BerMethod.MONTE_CARLO:
            estimates = _ber_call(method, mc_ber, grid, d, link, mc_trials, seed)
            points = [BerPoint(p, est.ber, est) for p, est in zip(grid, estimates)]
        else:
            points = [BerPoint(p, next(bers)) for p in grid]
        curves.append(BerCurve(method, tuple(points)))
    _last_sweep = (d, link, {c.method: (fns[c.method], {pt.p_dbm: pt.ber for pt in c.points})
                             for c in curves if c.method in fns})
    return curves


def _swept(method: BerMethod, fn, d: DerivedParams, link: LinkParams) -> dict[float, float]:
    """The BERs that this process's most recent sweep computed with ``fn`` for
    ``method`` on this link, at its powers inside the search window."""
    record = _last_sweep  # read once: a sweep on another thread may replace it
    if record is None:
        return {}
    swept_d, swept_link, curves = record
    swept_fn, bers = curves.get(method, (None, {}))
    if swept_fn is not fn or swept_d != d or swept_link != link:
        return {}
    return {p: ber for p, ber in bers.items() if _P_FLOOR <= p <= _P_CEIL}


def fec_crossing(
    method: BerMethod,
    threshold: float,
    d: DerivedParams,
    link: LinkParams,
) -> CrossingReport:
    """Transmit power at which the method's BER falls to ``threshold``.

    The result is a function of the method, ``threshold``, ``d`` and ``link``
    alone: the bracket is the one cell (lo, hi) of the lattice k * 2^-10 dBm
    with BER(lo) > threshold >= BER(hi), and ``p_cross_dbm`` is its midpoint.
    Every lattice point is an exact float, so BER at one is the same call on
    any search path, and the search may start from any BERs of the same
    function. It starts from the ones that the process's most recent
    :func:`sweep` computed for this method with the same ``_ANALYTIC``
    function, ``d`` and ``link``, at its powers in the -20..30 dBm window:
    when two adjacent ones straddle the threshold, their lattice cells
    outward are the first bracket. Otherwise the bracket expands from
    -4..16 dBm in 4 dB steps up to that window. The bracket is then narrowed
    over lattice indices. Each probe aims at the root of G = ln(-ln BER) -
    ln(-ln threshold), nearly linear in dBm, interpolated through the known
    points next to the bracket, or at the midpoint where BER is 0 at its
    upper end. It is projected as in ITP (Oliveira & Takahashi, ACM TOMS
    47(1), 2020), so that no search takes more than one step beyond
    bisection's shortest count. BER must decrease with power: a rise, or a
    repeated positive value, among the probed and sweep points aborts with a
    diagnostic rather than returning a bogus root. A failed BER call names
    the method and the power, as in :func:`sweep`. A ``threshold`` that is
    not a number in (0, 0.5) raises ``ValueError``.
    """
    check_threshold("threshold", threshold)
    if not method.is_analytic:
        raise ValueError("crossings are located on analytic methods only; "
                         "interpolate the Monte Carlo sweep instead")
    fn = _ANALYTIC[method]
    cache = _swept(method, fn, d, link)

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

    ln_ln_t = math.log(-math.log(threshold))

    def excess(ber: float) -> float:
        """ln(-ln BER) - ln(-ln threshold): < 0 above the threshold, >= 0 at or
        below it, and -inf or inf where BER is 1 or more, or 0."""
        if not 0.0 < ber < 1.0:
            return math.inf if ber <= 0.0 else -math.inf
        return math.log(-math.log(ber)) - ln_ln_t

    def straddle() -> tuple[float, float] | None:
        probed = sorted(cache.items())
        return next(((p1, p2) for (p1, b1), (p2, b2) in zip(probed[:-1], probed[1:])
                     if b1 > threshold >= b2), None)

    if straddle() is None:
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
    lo, hi = straddle()
    # the lattice points on or outside the straddling pair; known already where
    # the pair is on the lattice, as the default grid's points are
    a, b = math.floor(lo / _CELL_DB), math.ceil(hi / _CELL_DB)
    for k in (a, b):
        ber_at(k * _CELL_DB)

    def estimate() -> float | None:
        """The root, in cells, of the polynomial in G through the cached points
        from the last below a to the first above b; else of the secant through
        a and b; None where neither lies inside (a, b)."""
        powers = sorted(cache)
        i, k = powers.index(a * _CELL_DB), powers.index(b * _CELL_DB)
        for near in (powers[max(i - 1, 0):k + 2], (powers[i], powers[k])):
            g = [excess(cache[p]) for p in near]
            if all(-math.inf < g1 < g2 < math.inf for g1, g2 in zip(g[:-1], g[1:])):
                x = sum(p / _CELL_DB * math.prod(gj / (gj - gi) for gj in g if gj != gi)
                        for p, gi in zip(near, g))
                if a < x < b:
                    return x
        return None

    # ITP's projection on indices: the probe m in step j leaves at most
    # 2**(n_max - j - 1) cells, which bisection closes in the steps left. So
    # no search takes more than n_max steps, one more than bisection's
    # shortest path over the same cells
    n_max = (b - a).bit_length()
    j = 0
    while b - a > 1:
        half = 1 << (n_max - j - 1)
        x = estimate()
        if x is None:
            m = (a + b) // 2
        else:
            # the cell edge that leaves the shorter bracket if x is right
            m = math.ceil(x) if 2.0 * x < a + b else math.floor(x)
        m = min(max(m, b - half), a + half, b - 1)
        if ber_at(m * _CELL_DB) > threshold:
            a = m
        else:
            b = m
        j += 1
    check_monotone()
    lo, hi = a * _CELL_DB, b * _CELL_DB
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
