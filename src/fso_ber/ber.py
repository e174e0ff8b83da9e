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
point h_hat maps to v = 0, only where the integrand has mass: over the window
:func:`fso_ber.channel.log_gain_window`, clipped above where the scaled gain u
reaches _U_CUTOFF, past which the integrand is exactly 0. A power whose
clipped window is empty has BER 0.0. Direct gain-space quadrature is
numerically untrustworthy here: for strong-turbulence presets the integrand
mass occupies a ~1e-3 relative sliver of the domain that low-order panel rules
can miss entirely, converging confidently to nonsense.

The three analytic averages are one integrand,

    0.5 E(u) (beta/2) exp(beta v - beta^2/4) E(v),   u = c h(v),

with the method's erfc stand-in E substituted for both erfc factors (see the
kernel pairs in :mod:`fso_ber.special`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace

from .channel import DerivedParams, LinkParams, log_gain_density, log_gain_window, watts_to_dbm
from .errors import NonConvergenceError, RegimeError
from .quadrature import POLE_ERROR, Tolerance, integrate
from .special import APPROX_KERNEL, ASYMPTOTIC_KERNEL, EXACT_KERNEL, Kernel

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
    if not 0.0 <= h < math.inf:
        raise ValueError(f"channel gain must be finite and >= 0, got {h!r}")
    return 0.5 * math.erfc(_snr_scale(p_watts, link) * h)


def _integrand(kernel: Kernel, c: float, d: DerivedParams):
    """v-space BER integrand 0.5 E(u) (beta/2) D_E(v) of one kernel pair."""
    e, e_x = kernel
    ln_c = math.log(c * d.a0_h_l)
    s = d.log_gain_scale
    mu = d.mu
    b = d.beta
    exp, inf, cutoff, density_of = math.exp, math.inf, _U_CUTOFF, log_gain_density

    def f(v: float) -> float:
        ln_u = ln_c + s * v - mu
        u = exp(ln_u) if ln_u < 300.0 else inf
        if u > cutoff:
            return 0.0
        density = density_of(v, b, e, e_x)
        if density == 0.0:
            # a kernel that grows as u -> 0 must not turn 0 into inf * 0
            return 0.0
        return 0.5 * e(u) * density

    return f


def _v_at(u: float, c: float, d: DerivedParams) -> float:
    """The v at which the scaled gain u = c h(v) takes the value u."""
    return (math.log(u) - math.log(c * d.a0_h_l) + d.mu) / d.log_gain_scale


def _v_breakpoints(d: DerivedParams, c: float, start: float = -math.inf) -> list[float]:
    """Segment boundaries of the window where the integrand has mass, or [] if
    there is none.

    The window is :func:`fso_ber.channel.log_gain_window` from ``start`` on,
    clipped above where u reaches _U_CUTOFF: past that the integrand is 0.
    Inside it, the boundaries sit at the density peak and the detection
    transition.
    """
    lo, hi = log_gain_window(d)
    lo = max(lo, start)
    hi = min(hi, _v_at(_U_CUTOFF, c, d))
    if hi <= lo:
        return []
    v_u1 = _v_at(1.0, c, d)
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


def _ber_average(
    kernel: Kernel, p_watts: float, d: DerivedParams, link: LinkParams,
    tol: Tolerance | None, what: str,
) -> float:
    """The kernel pair's BER integrand integrated over the whole v window."""
    c = _snr_scale(p_watts, link)
    return _integrate_segments(
        _integrand(kernel, c, d), _v_breakpoints(d, c), tol or Tolerance(),
        f"{what} at {watts_to_dbm(p_watts):.3f} dBm",
    )


def ber_exact(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Exact average BER: the conditional BER integrated against the gain density."""
    return _ber_average(EXACT_KERNEL, p_watts, d, link, tol, "exact BER")


def ber_approx_new(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Split-kernel approximation of the average BER (two one-dimensional integrals).

    Below h_hat (v < 0) the density's erfc takes the saturating tanh branch;
    above it both factors take the rational-exponential branch. At v = 0 the
    two branches agree (both equal 1), so the integrand is continuous across
    the split.
    """
    return _ber_average(APPROX_KERNEL, p_watts, d, link, tol, "split-kernel BER")


def ber_approx_prev(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Legacy single-integral approximation of the average BER.

    Integrates, from h_hat upward, the product of the positive-branch
    asymptotic kernels for both erfc factors. In log-gain form the integrand is

        (beta / (4 pi)) exp(-(v - beta/2)^2) exp(-u^2) / (u v),

    the shared integrand with the asymptotic kernel pair; beta / (4 pi) equals
    the printed prefactor gamma^2 sigma_X / (sqrt(2) pi). Near the lower
    endpoint it behaves as K / v with K = (beta / (4 pi)) exp(-beta^2/4 - u0^2)
    / u0 and u0 = c h_hat, so the integral diverges logarithmically: each
    halving of a lower cut-off adds K ln 2. The quadrature's error estimate on
    an endpoint interval of K / v is POLE_ERROR * K (about 11.8 K ln 2) however
    narrow the interval, so when that exceeds the tolerance target of the
    endpoint segment, estimated by one rule, this raises
    :class:`NonConvergenceError` without refining. Regimes with beta^2/4 or
    u0^2 large suppress K and converge cleanly.

    The integral starts at max(0, lo), lo being the lower end of
    :func:`fso_ber.channel.log_gain_window`. For beta >= 2 sqrt(120) that is
    lo = beta/2 - sqrt(120) > 0. On the [0, lo] left out, exp(-(v - beta/2)^2)
    is below exp(-120) of its peak value, and the 1/u kernel tilts the
    integrand by at most exp(s (beta/2 - v)) with s = sqrt(8 sigma_X^2) <=
    sqrt(2). So, its 1/v factor aside, that segment stays below exp(-104) of
    the peak, and the factor exp(-beta^2/4) of K is below exp(-120).

    At low power the kernel 1/(u sqrt(pi)), unbounded as u -> 0, can carry the
    integral above 0.5; such a result raises :class:`RegimeError` instead of
    being returned as a BER.
    """
    tol = tol or Tolerance()
    c = _snr_scale(p_watts, link)
    b = d.beta
    prefactor = b / (4.0 * math.pi)
    # abs_tol bounds the integral without its prefactor, as the printed form has it
    tol = replace(tol, abs_tol=tol.abs_tol * prefactor)
    f = _integrand(ASYMPTOTIC_KERNEL, c, d)

    pts = _v_breakpoints(d, c, 0.0)
    if not pts:
        return 0.0
    what = f"legacy BER approximation at {watts_to_dbm(p_watts):.3f} dBm"
    u0 = c * d.h_hat
    k = prefactor * math.exp(-0.25 * b * b - u0 * u0) / u0 if 0.0 < u0 <= _U_CUTOFF else 0.0
    endpoint_estimate = integrate(f, pts[0], pts[1], replace(tol, max_evaluations=15)).value
    target = tol.target(endpoint_estimate)
    if k * POLE_ERROR > target:
        raise NonConvergenceError(
            f"{what}: the integrand is log-divergent at its lower endpoint; its K/v "
            f"term adds K ln 2 = {k * _LN2:.3e} per halving of the lower cut-off and "
            f"holds the error estimate at {k * POLE_ERROR:.3e}, above the tolerance "
            f"target {target:.3e}"
        )
    value = _integrate_segments(f, pts, tol, what)
    if value > 0.5:
        raise RegimeError(
            f"{what}: the result {value:.6g} is above 0.5 and so not a bit-error "
            "probability; the legacy 1/u kernel exceeds erfc(u) at small u, where "
            "this approximation does not hold"
        )
    return value
