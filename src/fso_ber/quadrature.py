"""Adaptive one-dimensional quadrature with embedded error estimates.

The integrator applies the 31-point Kronrod extension of 15-point Gauss on
each subinterval, bisecting the subinterval with the largest estimated error
until the global estimate meets the tolerance or the evaluation budget is
exhausted. Neither rule evaluates interval endpoints, so integrable endpoint
behaviour is tolerated without special casing.

The rule is unrolled for speed. The order in which it evaluates its nodes and
the left-to-right order of each of its sums are part of the package's
bit-for-bit output contract: reordering either moves results in their last
digits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IntegrandError, check_number, refuse

# 31-point Kronrod abscissae on [-1, 1] (positive half; the rule is symmetric)
# and the matching Kronrod / embedded 15-point Gauss weights (QUADPACK dqk31)
_XGK = (
    0.998002298693397060285172840152271,
    0.987992518020485428489565718586613,
    0.967739075679139134257347978784337,
    0.937273392400705904307758947710209,
    0.897264532344081900882509656454496,
    0.848206583410427216200648320774217,
    0.790418501442465932967649294817947,
    0.724417731360170047416186054613938,
    0.650996741297416970533735895313275,
    0.570972172608538847537226737253911,
    0.485081863640239680693655740232351,
    0.394151347077563369897207370981045,
    0.299180007153168812166780024266389,
    0.201194093997434522300628303394596,
    0.101142066918717499027074231447392,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.005377479872923348987792051430128,
    0.015007947329316122538374763075807,
    0.025460847326715320186874001019653,
    0.035346360791375846222037948478360,
    0.044589751324764876608227299373280,
    0.053481524690928087265343147239430,
    0.062009567800670640285139230960803,
    0.069854121318728258709520077099147,
    0.076849680757720378894432777482659,
    0.083080502823133021038289247286104,
    0.088564443056211770647275443693774,
    0.093126598170825321225486872747346,
    0.096642726983623678505179907627589,
    0.099173598721791959332393173484603,
    0.100769845523875595044946662617570,
    0.101330007014791549017374792767493,
)
_WG = (
    0.030753241996117268354628393577204,
    0.070366047488108124709267416450667,
    0.107159220467171935011869546685869,
    0.139570677926154314447804794511028,
    0.166269205816993933553200860481209,
    0.186161000015562211026800561866423,
    0.198431485327111576456118326443839,
    0.202578241925561272880620199967519,
)

_EPS = math.ulp(1.0)
# QUADPACK dqage's iroff2 limits on bisections that raise the error (see integrate)
_GROWING_AFTER = 10
_GROWING_LIMIT = 20
# integrate returns unconverged rather than exceed this many integrand evaluations
_MAX_EVALUATIONS = 200_000


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for one integral."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-15

    def __post_init__(self):
        check_number("rel_tol", self.rel_tol, 1e-14)
        check_number("abs_tol", self.abs_tol, 0.0)


class QuadratureResult(NamedTuple):
    """Value of one integral together with its accuracy diagnostics."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# the Kronrod abscissae and weights by name, pair 1 outermost, K0 the center's
# weight; the Gauss nodes are Kronrod pairs 2, 4, ..., 14 and the center
(_X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9, _X10, _X11, _X12, _X13, _X14,
 _X15) = _XGK[:15]
(_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10, _K11, _K12, _K13, _K14, _K15,
 _K0) = _WGK
_G2, _G4, _G6, _G8, _G10, _G12, _G14, _G0 = _WG


def _rule(f, a: float, b: float):
    """Apply Gauss 15 / Kronrod 31 on [a, b]; return (k31, error).

    Evaluates the center, then each -/+ node pair from the outermost inwards,
    and raises :class:`~fso_ber.errors.IntegrandError` for the first of these
    abscissae whose value is not finite. Keep the node order and each sum's
    left-to-right order: they are part of the bit-for-bit output.
    """
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fc = f(center)
    dx = half * _X1
    f1l = f(center - dx)
    f1h = f(center + dx)
    dx = half * _X2
    f2l = f(center - dx)
    f2h = f(center + dx)
    dx = half * _X3
    f3l = f(center - dx)
    f3h = f(center + dx)
    dx = half * _X4
    f4l = f(center - dx)
    f4h = f(center + dx)
    dx = half * _X5
    f5l = f(center - dx)
    f5h = f(center + dx)
    dx = half * _X6
    f6l = f(center - dx)
    f6h = f(center + dx)
    dx = half * _X7
    f7l = f(center - dx)
    f7h = f(center + dx)
    dx = half * _X8
    f8l = f(center - dx)
    f8h = f(center + dx)
    dx = half * _X9
    f9l = f(center - dx)
    f9h = f(center + dx)
    dx = half * _X10
    f10l = f(center - dx)
    f10h = f(center + dx)
    dx = half * _X11
    f11l = f(center - dx)
    f11h = f(center + dx)
    dx = half * _X12
    f12l = f(center - dx)
    f12h = f(center + dx)
    dx = half * _X13
    f13l = f(center - dx)
    f13h = f(center + dx)
    dx = half * _X14
    f14l = f(center - dx)
    f14h = f(center + dx)
    dx = half * _X15
    f15l = f(center - dx)
    f15h = f(center + dx)

    abs_ = abs
    s2 = f2l + f2h
    s4 = f4l + f4h
    s6 = f6l + f6h
    s8 = f8l + f8h
    s10 = f10l + f10h
    s12 = f12l + f12h
    s14 = f14l + f14h
    resk = (_K0 * fc + _K1 * (f1l + f1h) + _K2 * s2 + _K3 * (f3l + f3h) + _K4 * s4
            + _K5 * (f5l + f5h) + _K6 * s6 + _K7 * (f7l + f7h) + _K8 * s8 + _K9 * (f9l + f9h)
            + _K10 * s10 + _K11 * (f11l + f11h) + _K12 * s12 + _K13 * (f13l + f13h) + _K14 * s14
            + _K15 * (f15l + f15h))
    if (fc >= 0.0 and f1l >= 0.0 and f1h >= 0.0 and f2l >= 0.0 and f2h >= 0.0 and f3l >= 0.0
            and f3h >= 0.0 and f4l >= 0.0 and f4h >= 0.0 and f5l >= 0.0 and f5h >= 0.0
            and f6l >= 0.0 and f6h >= 0.0 and f7l >= 0.0 and f7h >= 0.0 and f8l >= 0.0
            and f8h >= 0.0 and f9l >= 0.0 and f9h >= 0.0 and f10l >= 0.0 and f10h >= 0.0
            and f11l >= 0.0 and f11h >= 0.0 and f12l >= 0.0 and f12h >= 0.0 and f13l >= 0.0
            and f13h >= 0.0 and f14l >= 0.0 and f14h >= 0.0 and f15l >= 0.0 and f15h >= 0.0):
        # the abs-sum below, term for term and in the same order; -0.0 for 0.0
        # can only turn a zero sum into -0.0, which compares the same
        resabs = resk
    else:
        resabs = (_K0 * abs_(fc) + _K1 * (abs_(f1l) + abs_(f1h)) + _K2 * (abs_(f2l) + abs_(f2h))
                  + _K3 * (abs_(f3l) + abs_(f3h)) + _K4 * (abs_(f4l) + abs_(f4h))
                  + _K5 * (abs_(f5l) + abs_(f5h)) + _K6 * (abs_(f6l) + abs_(f6h))
                  + _K7 * (abs_(f7l) + abs_(f7h)) + _K8 * (abs_(f8l) + abs_(f8h))
                  + _K9 * (abs_(f9l) + abs_(f9h)) + _K10 * (abs_(f10l) + abs_(f10h))
                  + _K11 * (abs_(f11l) + abs_(f11h)) + _K12 * (abs_(f12l) + abs_(f12h))
                  + _K13 * (abs_(f13l) + abs_(f13h)) + _K14 * (abs_(f14l) + abs_(f14h))
                  + _K15 * (abs_(f15l) + abs_(f15h)))
    # the terms are non-negative, so an inf or nan value leaves resabs
    # non-finite; resabs overflowing from finite values raises nothing
    if not math.isfinite(resabs):
        _raise_first_nonfinite(center, half, (fc, f1l, f1h, f2l, f2h, f3l, f3h, f4l, f4h, f5l,
                                              f5h, f6l, f6h, f7l, f7h, f8l, f8h, f9l, f9h, f10l,
                                              f10h, f11l, f11h, f12l, f12h, f13l, f13h, f14l,
                                              f14h, f15l, f15h))
    resg = (_G0 * fc + _G2 * s2 + _G4 * s4 + _G6 * s6 + _G8 * s8 + _G10 * s10 + _G12 * s12
            + _G14 * s14)
    mean = 0.5 * resk
    resasc = (_K0 * abs_(fc - mean) + _K1 * (abs_(f1l - mean) + abs_(f1h - mean))
              + _K2 * (abs_(f2l - mean) + abs_(f2h - mean))
              + _K3 * (abs_(f3l - mean) + abs_(f3h - mean))
              + _K4 * (abs_(f4l - mean) + abs_(f4h - mean))
              + _K5 * (abs_(f5l - mean) + abs_(f5h - mean))
              + _K6 * (abs_(f6l - mean) + abs_(f6h - mean))
              + _K7 * (abs_(f7l - mean) + abs_(f7h - mean))
              + _K8 * (abs_(f8l - mean) + abs_(f8h - mean))
              + _K9 * (abs_(f9l - mean) + abs_(f9h - mean))
              + _K10 * (abs_(f10l - mean) + abs_(f10h - mean))
              + _K11 * (abs_(f11l - mean) + abs_(f11h - mean))
              + _K12 * (abs_(f12l - mean) + abs_(f12h - mean))
              + _K13 * (abs_(f13l - mean) + abs_(f13h - mean))
              + _K14 * (abs_(f14l - mean) + abs_(f14h - mean))
              + _K15 * (abs_(f15l - mean) + abs_(f15h - mean)))

    value = resk * half
    resabs *= abs_(half)
    resasc *= abs_(half)
    err = abs_((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _raise_first_nonfinite(center: float, half: float, values: tuple) -> None:
    """Raise for the first non-finite of ``values``, which _rule evaluated at
    the center, then at each -/+ pair from the outermost inwards."""
    nodes = [center]
    for x in _XGK[:15]:
        dx = half * x
        nodes += (center - dx, center + dx)
    for x, y in zip(nodes, values):
        if not math.isfinite(y):
            raise IntegrandError(x, y)


DEFAULT_TOLERANCE = Tolerance()


def integrate(f, a: float, b: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Integrate ``f`` over the finite interval [a, b].

    Subdivision stops once the summed error estimate satisfies
    ``error <= max(rel_tol * |value|, abs_tol)`` (converged), or with
    ``converged=False`` when the evaluation budget runs out or when bisection
    stops reducing the error: after the first ``_GROWING_AFTER`` bisections,
    ``_GROWING_LIMIT`` bisections whose two halves' summed error exceeds the
    error of the interval they split (QUADPACK dqage's ``iroff2`` test). That
    stall stop ends work on a non-integrable endpoint pole K/x: the rule's
    error estimate on [0, w] is about 10.71 K for every width w, so halving
    the endpoint interval adds error instead of removing it. 1/x on [0, 1]
    stops after 1 + 2 * (_GROWING_AFTER + _GROWING_LIMIT) = 61 rules; a pole
    beside other error takes a few more. The partial value and its estimate
    are still returned so the caller can decide. Finiteness is checked once
    per rule: a non-finite integrand value raises
    :class:`~fso_ber.errors.IntegrandError` naming the first non-finite
    abscissa in the rule's evaluation order.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCE
    check_number("a", a)
    check_number("b", b)
    if not a < b:
        refuse("b", f"> a = {a!r}", b)

    value, err = _rule(f, a, b)
    evaluations = 31
    # heap entries: (-error, tie_breaker, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_error = err
    bisections = 0
    growing = 0
    rel_tol, abs_tol, budget = tol.rel_tol, tol.abs_tol, _MAX_EVALUATIONS

    while total_error > max(rel_tol * abs(total_value), abs_tol):
        if evaluations + 62 > budget or not heap or growing >= _GROWING_LIMIT:
            return QuadratureResult(total_value, total_error, evaluations, False)
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if not (ia < mid < ib):
            # interval narrower than float resolution; its error is irreducible
            continue
        lval, lerr = _rule(f, ia, mid)
        rval, rerr = _rule(f, mid, ib)
        evaluations += 62
        bisections += 1
        if bisections > _GROWING_AFTER and lerr + rerr > ierr:
            growing += 1
        total_value += (lval + rval) - ival
        total_error += (lerr + rerr) - ierr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, ia, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, ib, rval, rerr))

    return QuadratureResult(total_value, total_error, evaluations, True)
