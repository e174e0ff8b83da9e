"""Adaptive one-dimensional quadrature with embedded error estimates.

The integrator applies the 15-point Kronrod extension of 7-point Gauss on each
subinterval, bisecting the subinterval with the largest estimated error until
the global estimate meets the tolerance or the evaluation budget is exhausted.
Neither rule evaluates interval endpoints, so integrable endpoint behaviour is
tolerated without special casing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import IntegrandError

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


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for one integral."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-15
    max_evaluations: int = 200_000

    def __post_init__(self):
        if not (self.rel_tol >= 1e-14):
            raise ValueError(f"rel_tol must be >= 1e-14 (got {self.rel_tol!r})")
        if not (self.abs_tol >= 0.0):
            raise ValueError(f"abs_tol must be >= 0 (got {self.abs_tol!r})")
        if self.max_evaluations < 15:
            raise ValueError("max_evaluations must allow at least one 15-point rule")

    def target(self, value: float) -> float:
        return max(self.rel_tol * abs(value), self.abs_tol)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of one integral together with its accuracy diagnostics."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _rule(f, a: float, b: float):
    """Apply Gauss 7 / Kronrod 15 on [a, b]; return (k15, error)."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)

    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    lo_vals = [0.0] * 7
    hi_vals = [0.0] * 7
    for i in range(7):
        dx = half * _XGK[i]
        flo = f(center - dx)
        fhi = f(center + dx)
        lo_vals[i] = flo
        hi_vals[i] = fhi
        resk += _WGK[i] * (flo + fhi)
        resabs += _WGK[i] * (abs(flo) + abs(fhi))
        if i % 2 == 1:
            resg += _WG[i // 2] * (flo + fhi)

    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
        resasc += _WGK[i] * (abs(lo_vals[i] - mean) + abs(hi_vals[i] - mean))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    return value, err


# The rule's error estimate on [0, w] for 1/x, the same for every width w: the
# floor that bisection toward a K/x endpoint pole cannot push below K * POLE_ERROR.
POLE_ERROR = _rule(lambda x: 1.0 / x, 0.0, 1.0)[1]


def integrate(f, a: float, b: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Integrate ``f`` over the finite interval [a, b].

    Subdivision stops once the summed error estimate satisfies
    ``error <= max(rel_tol * |value|, abs_tol)`` (converged), or with
    ``converged=False`` when the evaluation budget runs out or when bisection
    stops reducing the error: after the first ``_GROWING_AFTER`` bisections,
    ``_GROWING_LIMIT`` bisections whose two halves' summed error exceeds the
    error of the interval they split (QUADPACK dqage's ``iroff2`` test; a
    non-integrable endpoint pole K/x keeps its error at K * POLE_ERROR on every
    halving). The partial value and its estimate are still returned so the
    caller can decide. A non-finite integrand value raises
    :class:`~fso_ber.errors.IntegrandError` naming the abscissa.
    """
    if tol is None:
        tol = Tolerance()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite (got {a!r}, {b!r})")
    if not a < b:
        raise ValueError(f"integration requires a < b (got {a!r}, {b!r})")

    def checked(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise IntegrandError(x, y)
        return y

    value, err = _rule(checked, a, b)
    evaluations = 15
    # heap entries: (-error, tie_breaker, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value = value
    total_error = err
    bisections = 0
    growing = 0

    while total_error > tol.target(total_value):
        if evaluations + 30 > tol.max_evaluations or not heap or growing >= _GROWING_LIMIT:
            return QuadratureResult(total_value, total_error, evaluations, False)
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if not (ia < mid < ib):
            # interval narrower than float resolution; its error is irreducible
            continue
        lval, lerr = _rule(checked, ia, mid)
        rval, rerr = _rule(checked, mid, ib)
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
