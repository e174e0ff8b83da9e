"""Average bit-error rate of OOK over the composite FSO channel.

Four routes to the same quantity:

* ``ber_conditional``  -- BER at a known gain, (1/2) erfc(eta P h / sqrt(2 sigma_n^2)).
* ``ber_exact``        -- conditional BER averaged over the gain density.
* ``ber_approx_new``   -- the exact integrand with both erfc factors replaced
  by the two-branch elementary approximation; splits at h_hat where the
  density's erfc argument changes sign.
* ``ber_approx_prev``  -- the simpler legacy single integral that uses the
  positive-branch asymptotic for both factors from h_hat upward. Its printed
  integrand carries 1/(ln(h/(A0 h_l)) + mu), which blows up logarithmically at
  the lower endpoint; evaluation raises when that contribution prevents the
  requested tolerance from being met.

All averages are computed in the normalized log-gain variable v (see
:mod:`fso_ber.channel`), an exact change of variables under which the split
point h_hat maps to v = 0 and the truncation bound to v = beta/2 + 6. Direct
gain-space quadrature is numerically untrustworthy here: for strong-turbulence
presets the integrand mass occupies a ~1e-3 relative sliver of the domain that
low-order panel rules can miss entirely, converging confidently to nonsense.
"""

from __future__ import annotations

import enum
import math

from . import special
from .channel import DerivedParams, LinkParams, log_gain_pdf, watts_to_dbm
from .errors import NonConvergenceError
from .quadrature import POLE_ERROR, Tolerance, integrate

_FOUR_OVER_PI = 4.0 / math.pi
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_LN2 = math.log(2.0)
# beyond this the Gaussian detection factor underflows to zero anyway
_U_CUTOFF = 40.0


class BerMethod(enum.Enum):
    """The four BER computation routes."""

    EXACT = "exact"
    APPROX_NEW = "approx-new"
    APPROX_PREV = "approx-prev"
    MONTE_CARLO = "mc"

    @property
    def is_analytic(self) -> bool:
        return self is not BerMethod.MONTE_CARLO


def _snr_scale(p_watts: float, link: LinkParams) -> float:
    """c such that u = c * h in the conditional BER."""
    if not (p_watts > 0 and math.isfinite(p_watts)):
        raise ValueError(f"transmit power must be positive and finite, got {p_watts!r}")
    return link.responsivity_a_per_w * p_watts / math.sqrt(2.0 * link.noise_std**2)


def ber_conditional(h: float, p_watts: float, d: DerivedParams, link: LinkParams) -> float:
    """BER for a known channel gain h under midpoint-threshold detection."""
    if h < 0:
        raise ValueError(f"channel gain must be >= 0, got {h!r}")
    return 0.5 * special.erfc(_snr_scale(p_watts, link) * h)


def _u_of_v(v: float, d: DerivedParams, c: float) -> float:
    """Detection argument u = c * h(v); inf when the exponent would overflow."""
    ln_u = math.log(c * d.a0_h_l) + d.log_gain_scale * v - d.mu
    return math.exp(ln_u) if ln_u < 300.0 else math.inf


def _v_limits(d: DerivedParams) -> tuple[float, float]:
    """Integration window in v: pdf tail below the floor is < exp(-120)."""
    b = d.beta
    return min(-8.0, 0.25 * b - 120.0 / b), 0.5 * b + 6.0


def _v_breakpoints(d: DerivedParams, c: float, lo: float, hi: float) -> list[float]:
    """Segment boundaries at the density peak and the detection transition."""
    v_u1 = -(math.log(c * d.a0_h_l) - d.mu) / d.log_gain_scale  # u(v_u1) = 1
    width = 2.0 / d.log_gain_scale
    candidates = [0.0, 0.5 * d.beta, v_u1 - width, v_u1, v_u1 + width]
    pts = [lo]
    for p in sorted(candidates):
        if p > pts[-1] + 1e-9 and p < hi - 1e-9:
            pts.append(p)
    pts.append(hi)
    return pts


def _integrate_segments(f, pts: list[float], tol: Tolerance, what: str) -> float:
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        res = integrate(f, a, b, tol)
        if not res.converged:
            raise NonConvergenceError(
                f"{what}: quadrature did not reach tolerance on segment "
                f"[{a:.6g}, {b:.6g}] (error estimate {res.error_estimate:.3e} "
                f"after {res.evaluations} evaluations)"
            )
        total += res.value
    return total


def ber_exact(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Exact average BER: the conditional BER integrated against the gain density."""
    tol = tol or Tolerance()
    c = _snr_scale(p_watts, link)

    def f(v: float) -> float:
        u = _u_of_v(v, d, c)
        if u > _U_CUTOFF:
            return 0.0
        return 0.5 * special.erfc(u) * log_gain_pdf(v, d)

    lo, hi = _v_limits(d)
    return _integrate_segments(
        f, _v_breakpoints(d, c, lo, hi), tol,
        f"exact BER at {watts_to_dbm(p_watts):.3f} dBm",
    )


def _detection_kernel(u: float) -> float:
    """exp(-u^2) / (u + sqrt(u^2 + 4/pi)); the u >= 0 approximation kernel."""
    if u > _U_CUTOFF:
        return 0.0
    return math.exp(-u * u) / (u + math.sqrt(u * u + _FOUR_OVER_PI))


def ber_approx_new(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Split-kernel approximation of the average BER (two one-dimensional integrals).

    Below h_hat (v < 0) the density's erfc takes the saturating tanh branch;
    above it both factors take the rational-exponential branch. At v = 0 the
    two branches agree (both equal 1), so the integrand is continuous across
    the split.
    """
    tol = tol or Tolerance()
    c = _snr_scale(p_watts, link)
    b = d.beta

    def f(v: float) -> float:
        ku = 0.5 * _TWO_OVER_SQRT_PI * _detection_kernel(_u_of_v(v, d, c))
        if ku == 0.0:
            return 0.0
        if v >= 0.0:
            t = v - 0.5 * b
            density = (
                0.5 * b * _TWO_OVER_SQRT_PI * math.exp(-t * t)
                / (v + math.sqrt(v * v + _FOUR_OVER_PI))
            )
        else:
            exponent = b * v - 0.25 * b * b
            if exponent < -700.0:
                return 0.0
            density = 0.5 * b * math.exp(exponent) * special.erfc_approx(v)
        return ku * density

    lo, hi = _v_limits(d)
    return _integrate_segments(
        f, _v_breakpoints(d, c, lo, hi), tol,
        f"split-kernel BER at {watts_to_dbm(p_watts):.3f} dBm",
    )


def ber_approx_prev(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Legacy single-integral approximation of the average BER.

    Integrates, from h_hat upward, the product of the positive-branch
    asymptotic kernels for both erfc factors. In log-gain form the integrand is

        prefactor exp(-(v - beta/2)^2) exp(-u^2) / (u v),

    with prefactor = gamma^2 sigma_X / (sqrt(2) pi). Near the lower endpoint it
    behaves as K / v with K = prefactor exp(-beta^2/4 - u0^2) / u0 and
    u0 = c h_hat, so the integral diverges logarithmically: each halving of a
    lower cut-off adds K ln 2. The quadrature's error estimate on an endpoint
    interval of K / v is POLE_ERROR * K (about 11.8 K ln 2) however narrow the
    interval, so when that exceeds the tolerance target of the endpoint
    segment, estimated by one rule, this raises :class:`NonConvergenceError`
    without refining. Regimes with beta^2/4 or u0^2 large suppress K and
    converge cleanly.
    """
    tol = tol or Tolerance()
    c = _snr_scale(p_watts, link)
    b = d.beta
    prefactor = d.gamma_sq * math.sqrt(d.sigma_x_sq) / (math.sqrt(2.0) * math.pi)

    def f(v: float) -> float:
        u = _u_of_v(v, d, c)
        if u > _U_CUTOFF or u <= 0.0:
            return 0.0
        t = v - 0.5 * b
        if t * t + u * u > 700.0:
            return 0.0
        return math.exp(-t * t - u * u) / (u * v)

    lo, hi = _v_limits(d)
    pts = [0.0] + [p for p in _v_breakpoints(d, c, lo, hi) if p > 0.0]
    what = f"legacy BER approximation at {watts_to_dbm(p_watts):.3f} dBm"
    u0 = _u_of_v(0.0, d, c)
    k = prefactor * math.exp(-0.25 * b * b - u0 * u0) / u0 if 0.0 < u0 <= _U_CUTOFF else 0.0
    endpoint_estimate = integrate(f, pts[0], pts[1], Tolerance(max_evaluations=15)).value
    target = prefactor * tol.target(endpoint_estimate)
    if k * POLE_ERROR > target:
        raise NonConvergenceError(
            f"{what}: the integrand is log-divergent at its lower endpoint; its K/v "
            f"term adds K ln 2 = {k * _LN2:.3e} per halving of the lower cut-off and "
            f"holds the error estimate at {k * POLE_ERROR:.3e}, above the tolerance "
            f"target {target:.3e}"
        )
    return prefactor * _integrate_segments(f, pts, tol, what)
