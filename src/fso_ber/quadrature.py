"""Adaptive one-dimensional quadrature with embedded error estimates.

The integrator applies the 15-point Kronrod extension of 7-point Gauss on each
subinterval, bisecting the subinterval with the largest estimated error until
the global estimate meets the tolerance or the evaluation budget is exhausted.
Neither rule evaluates interval endpoints, so integrable endpoint behaviour is
tolerated without special casing.

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

# 15-point Kronrod abscissae on [-1, 1] (positive half; the rule is symmetric)
# and the matching Kronrod / embedded 7-point Gauss weights.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
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
# weight; the Gauss nodes are Kronrod pairs 2, 4 and 6 and the center
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = _XGK[:7]
_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K0 = _WGK
_G2, _G4, _G6, _G0 = _WG


def _rule(f, a: float, b: float):
    """Apply Gauss 7 / Kronrod 15 on [a, b]; return (k15, error).

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

    abs_ = abs
    s2 = f2l + f2h
    s4 = f4l + f4h
    s6 = f6l + f6h
    resk = (_K0 * fc + _K1 * (f1l + f1h) + _K2 * s2 + _K3 * (f3l + f3h) + _K4 * s4
            + _K5 * (f5l + f5h) + _K6 * s6 + _K7 * (f7l + f7h))
    if (fc >= 0.0 and f1l >= 0.0 and f1h >= 0.0 and f2l >= 0.0 and f2h >= 0.0
            and f3l >= 0.0 and f3h >= 0.0 and f4l >= 0.0 and f4h >= 0.0 and f5l >= 0.0
            and f5h >= 0.0 and f6l >= 0.0 and f6h >= 0.0 and f7l >= 0.0 and f7h >= 0.0):
        # the abs-sum below, term for term and in the same order; -0.0 for 0.0
        # can only turn a zero sum into -0.0, which compares the same
        resabs = resk
    else:
        resabs = (_K0 * abs_(fc) + _K1 * (abs_(f1l) + abs_(f1h))
                  + _K2 * (abs_(f2l) + abs_(f2h)) + _K3 * (abs_(f3l) + abs_(f3h))
                  + _K4 * (abs_(f4l) + abs_(f4h)) + _K5 * (abs_(f5l) + abs_(f5h))
                  + _K6 * (abs_(f6l) + abs_(f6h)) + _K7 * (abs_(f7l) + abs_(f7h)))
    # the terms are non-negative, so an inf or nan value leaves resabs
    # non-finite; resabs overflowing from finite values raises nothing
    if not math.isfinite(resabs):
        _raise_first_nonfinite(center, half, (fc, f1l, f1h, f2l, f2h, f3l, f3h, f4l, f4h,
                                              f5l, f5h, f6l, f6h, f7l, f7h))
    resg = _G0 * fc + _G2 * s2 + _G4 * s4 + _G6 * s6
    mean = 0.5 * resk
    resasc = (_K0 * abs_(fc - mean) + _K1 * (abs_(f1l - mean) + abs_(f1h - mean))
              + _K2 * (abs_(f2l - mean) + abs_(f2h - mean))
              + _K3 * (abs_(f3l - mean) + abs_(f3h - mean))
              + _K4 * (abs_(f4l - mean) + abs_(f4h - mean))
              + _K5 * (abs_(f5l - mean) + abs_(f5h - mean))
              + _K6 * (abs_(f6l - mean) + abs_(f6h - mean))
              + _K7 * (abs_(f7l - mean) + abs_(f7h - mean)))

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
    for x in _XGK[:7]:
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
    error estimate on [0, w] is about 8.16 K for every width w, so halving
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
    evaluations = 15
    # heap entries: (-error, tie_breaker, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_error = err
    bisections = 0
    growing = 0
    rel_tol, abs_tol, budget = tol.rel_tol, tol.abs_tol, _MAX_EVALUATIONS

    while total_error > max(rel_tol * abs(total_value), abs_tol):
        if evaluations + 30 > budget or not heap or growing >= _GROWING_LIMIT:
            return QuadratureResult(total_value, total_error, evaluations, False)
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if not (ia < mid < ib):
            # interval narrower than float resolution; its error is irreducible
            continue
        lval, lerr = _rule(f, ia, mid)
        rval, rerr = _rule(f, mid, ib)
        evaluations += 30
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
