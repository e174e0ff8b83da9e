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
  the lower endpoint; where that term keeps the quadrature from its tolerance,
  the quadrature's stall stop ends the refinement and evaluation raises,
  naming the term.

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
kernels in :mod:`fso_ber.special`).

A failed average raises with its cause alone; :mod:`fso_ber.analysis` puts
the method and the power in front of it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace

from .channel import (DerivedParams, LinkParams, gain_of, log_gain_window,
                      weighted_log_gain_density)
from .errors import (IntegrandError, NonConvergenceError, RegimeError, check_number,
                     check_positive)
from .quadrature import DEFAULT_TOLERANCE, Tolerance, integrate
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
    check_positive("p_watts", p_watts)
    # sqrt(2 noise_std^2), without squaring's overflow and underflow
    return link.responsivity_a_per_w * p_watts / math.hypot(link.noise_std, link.noise_std)


def ber_conditional(h: float, p_watts: float, d: DerivedParams, link: LinkParams) -> float:
    """BER for a known channel gain h under midpoint-threshold detection."""
    check_number("h", h, 0.0)
    c = _snr_scale(p_watts, link)
    return 0.5 * math.erfc(c * h) if h else 0.5  # c may be inf, and inf * 0 is nan


def _v_breakpoints(d: DerivedParams, c: float, start: float = -math.inf) -> list[float]:
    """Segment boundaries of the window where the integrand has mass, or [] if
    there is none.

    The window is :func:`fso_ber.channel.log_gain_window` from ``start`` on,
    clipped above where u reaches _U_CUTOFF: past that the integrand is 0.
    Inside it, the boundaries sit at the density peak and the detection
    transition.
    """
    ln_c = math.log(c * d.a0_h_l)
    mu = d.mu
    s = d.log_gain_scale

    def v_at(u: float) -> float:  # the v at which u = c h(v)
        return (math.log(u) - ln_c + mu) / s

    lo, hi = log_gain_window(d)
    lo = max(lo, start)
    hi = min(hi, v_at(_U_CUTOFF))
    if hi <= lo:
        return []
    v_u1 = v_at(1.0)
    width = 2.0 / s
    candidates = [0.0, 0.5 * d.beta, v_u1 - width, v_u1, v_u1 + width]
    pts = [lo]
    for p in sorted(candidates):
        if p > pts[-1] + 1e-9 and p < hi - 1e-9:
            pts.append(p)
    pts.append(hi)
    return pts


def _integrate_segments(f, pts: list[float], tol: Tolerance) -> float:
    """The sum of the integrals over consecutive segments of ``pts``."""
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        res = integrate(f, a, b, tol)
        if not res.converged:
            raise NonConvergenceError(
                "quadrature did not reach tolerance on segment "
                f"[{a:.6g}, {b:.6g}] (error estimate {res.error_estimate:.3e} "
                f"after {res.evaluations} evaluations)"
            )
        total += res.value
    return total


def _ber_average(
    kernel: Kernel, p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None,
    start: float = -math.inf,
) -> float:
    """The kernel's BER integrand integrated over the v window from ``start`` on."""
    c = _snr_scale(p_watts, link)
    if c * d.a0_h_l == 0.0:  # it has no logarithm
        raise RegimeError(f"R P A0 h_l / (sqrt(2) noise_std) underflows to 0 at p_watts = "
                          f"{p_watts!r}, responsivity_a_per_w = {link.responsivity_a_per_w!r} "
                          f"and noise_std = {link.noise_std!r}")
    f = weighted_log_gain_density(d, kernel, c, kernel.e_pos)
    return _integrate_segments(f, _v_breakpoints(d, c, start), tol or DEFAULT_TOLERANCE)


def ber_exact(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Exact average BER: the conditional BER integrated against the gain density."""
    return _ber_average(EXACT_KERNEL, p_watts, d, link, tol)


def ber_approx_new(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Split-kernel approximation of the average BER (two one-dimensional integrals).

    Below h_hat (v < 0) the density's erfc takes the saturating tanh branch;
    above it both factors take the rational-exponential branch. At v = 0 the
    two branches agree (both equal 1), so the integrand is continuous across
    the split.
    """
    return _ber_average(APPROX_KERNEL, p_watts, d, link, tol)


def ber_approx_prev(
    p_watts: float, d: DerivedParams, link: LinkParams, tol: Tolerance | None = None
) -> float:
    """Legacy single-integral approximation of the average BER.

    Integrates, from h_hat upward, the product of the positive-branch
    asymptotic kernels for both erfc factors. In log-gain form the integrand is

        (beta / (4 pi)) exp(-(v - beta/2)^2) exp(-u^2) / (u v),

    the shared integrand with the asymptotic kernel; beta / (4 pi) equals
    the printed prefactor gamma^2 sigma_X / (sqrt(2) pi). Near the lower
    endpoint it behaves as K / v with K = (beta / (4 pi)) exp(-beta^2/4 - u0^2)
    / u0 and u0 = c h_hat, so the integral diverges logarithmically: each
    halving of a lower cut-off adds K ln 2. The quadrature's error estimate on
    an endpoint interval of K / v is about 15.4 K ln 2 however narrow the
    interval, so where that exceeds the tolerance target, bisection toward
    v = 0 adds error instead of removing it, and the quadrature's stall stop
    (see :func:`fso_ber.quadrature.integrate`) ends it within a few dozen
    rules. The resulting :class:`NonConvergenceError` names K ln 2 first,
    then the segment, error estimate and evaluation count. Regimes with
    beta^2/4 or u0^2 large suppress K and converge cleanly.

    The integral starts at max(0, lo), lo being the lower end of
    :func:`fso_ber.channel.log_gain_window`. For beta >= 2 sqrt(120) that is
    lo = beta/2 - sqrt(120) > 0. On the [0, lo] left out, exp(-(v - beta/2)^2)
    is below exp(-120) of its peak value, and the 1/u kernel tilts the
    integrand by at most exp(s (beta/2 - v)) with s = sqrt(8 sigma_X^2) <=
    sqrt(2). So, its 1/v factor aside, that segment stays below exp(-104) of
    the peak, and the factor exp(-beta^2/4) of K is below exp(-120).

    At low power the kernel 1/(u sqrt(pi)), unbounded as u -> 0, can carry the
    integral above 0.5; such a result raises :class:`RegimeError` instead of
    being returned as a BER. So does a u so small on the window that the
    kernel overflows: u = 0 has no 1/u, and a subnormal u makes 1/u, or 1/u
    times the density's 1/v, exceed the float range. The smallest u is at the
    window's start, v = max(0, lo).
    """
    b = d.beta
    prefactor = b / (4.0 * math.pi)
    # abs_tol bounds the integral without its prefactor, as the printed form has it
    tol = tol or DEFAULT_TOLERANCE
    tol = replace(tol, abs_tol=tol.abs_tol * prefactor)
    try:
        value = _ber_average(ASYMPTOTIC_KERNEL, p_watts, d, link, tol, 0.0)
    except NonConvergenceError as exc:
        if log_gain_window(d)[0] > 0.0:
            raise
        u0 = _snr_scale(p_watts, link) * d.h_hat
        k = prefactor * math.exp(-0.25 * b * b - u0 * u0) / u0 if 0.0 < u0 else 0.0
        raise NonConvergenceError(
            "the integrand is log-divergent at its lower endpoint; its K/v term adds "
            f"K ln 2 = {k * _LN2:.3e} per halving of the lower cut-off; {exc}"
        ) from None
    except (IntegrandError, ZeroDivisionError):  # the 1/u kernel, at u = c h near 0
        v = max(0.0, log_gain_window(d)[0])
        u = _snr_scale(p_watts, link) * gain_of(v, d)
        raise RegimeError(
            f"the legacy 1/u kernel overflows where u = R P h / (sqrt(2) noise_std) is smallest "
            f"on the window, u = {u!r} at v = {v!r}, at p_watts = {p_watts!r}, "
            f"responsivity_a_per_w = {link.responsivity_a_per_w!r}, noise_std = "
            f"{link.noise_std!r} and A0 h_l = {d.a0_h_l!r}"
        ) from None
    if value > 0.5:
        raise RegimeError(
            f"the result {value:.6g} is above 0.5 and so not a bit-error probability; the "
            "legacy 1/u kernel exceeds erfc(u) at small u, where this approximation does not hold"
        )
    return value
