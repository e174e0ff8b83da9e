"""Composite FSO channel model: turbulence, pointing error, and path loss.

The multiplicative channel gain is ``h = h_a * h_p * h_l`` with lognormal
turbulence fading ``h_a`` (unit mean), Gaussian-beam pointing loss ``h_p``
through a circular aperture, and deterministic Beer-Lambert loss ``h_l``.
This module derives every quantity the BER expressions need and evaluates
the composite gain density.

Numerically the density is handled through the normalized log-gain variable

    v = (ln(h / (A0 h_l)) + mu) / sqrt(8 sigma_X^2),

in which it takes the well-conditioned form
``f_V(v) = (beta/2) exp(beta v - beta^2/4) erfc(v)`` with
``beta = gamma^2 sqrt(8 sigma_X^2)``: every feature has O(1) width and the
huge prefactors of the direct gain-space expression cancel analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import GeometryError, RegimeError, check_number, check_positive
from .special import EXACT_KERNEL, Kernel

# log_gain_window drops at most exp(-_TAIL) of the mass below its lower end
_TAIL = 120.0
_SQRT_TAIL = math.sqrt(_TAIL)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkParams:
    """Raw physical inputs of one link.

    ``wavelength_nm`` is stored for configuration completeness only; no
    formula consumes it because turbulence strength enters directly through
    ``rytov_variance``.
    """

    wavelength_nm: float
    link_length_km: float
    aperture_radius_m: float
    beam_waist_m: float
    attenuation_db_per_km: float
    responsivity_a_per_w: float
    noise_std: float  # total noise standard deviation at the detector, A
    rytov_variance: float
    pointing_std_m: float  # pointing displacement standard deviation at the receiver, m

    def __post_init__(self):
        for field in fields(self):
            check_link_field(field.name, getattr(self, field.name))


def check_link_field(name: str, value) -> None:
    """Refuse ``value`` for the LinkParams field ``name``: a finite number, > 0
    but for attenuation (>= 0) and rytov_variance (the weak-turbulence (0, 1])."""
    check_number(name, value)
    if name == "rytov_variance" and not 0.0 < value <= 1.0:
        raise RegimeError(f"rytov_variance = {value!r} outside the weak-turbulence "
                          "regime (0, 1] this model covers")
    if name == "attenuation_db_per_km":
        check_number(name, value, 0.0)
    else:
        check_positive(name, value)


@dataclass(frozen=True)
class DerivedParams:
    """Every derived quantity the gain density and BER expressions use."""

    h_l: float           # Beer-Lambert path loss, 10^(-att_dB * L / 10)
    v: float             # sqrt(pi/2) * a / omega_z
    a0: float            # erf(v)^2, peak collected-power fraction
    omega_z_eq_m: float  # equivalent beam radius after aperture integration
    gamma: float         # omega_z_eq / (2 sigma_s)
    gamma_sq: float
    sigma_x_sq: float    # log-amplitude variance, rytov_variance / 4
    mu: float            # 2 sigma_x_sq (1 + 2 gamma_sq)
    h_hat: float         # a0 h_l exp(-mu); gain where the density's erfc argument is zero

    @property
    def a0_h_l(self) -> float:
        return self.a0 * self.h_l

    @property
    def log_gain_scale(self) -> float:
        """sqrt(8 sigma_X^2); the log-gain normalization denominator."""
        return math.sqrt(8.0 * self.sigma_x_sq)

    @property
    def beta(self) -> float:
        """gamma^2 * sqrt(8 sigma_X^2); twice the log-gain density's peak location."""
        return self.gamma_sq * self.log_gain_scale


def derive(params: LinkParams) -> DerivedParams:
    """Map raw link inputs to the derived channel quantities.

    Raises :class:`GeometryError` when the aperture is not small against the
    beam (a >= omega_z), where the equivalent-beam pointing model breaks down,
    and :class:`RegimeError` when the peak gain A0 h_l underflows to 0, where
    no gain has a logarithm and every BER method would fail, or when beta is
    0, inf or so small that 120 / beta overflows, as then no window is finite.
    """
    if params.aperture_radius_m >= params.beam_waist_m:
        raise GeometryError(
            f"aperture radius {params.aperture_radius_m} m must be smaller than "
            f"the beam waist {params.beam_waist_m} m"
        )
    h_l = 10.0 ** (-params.attenuation_db_per_km * params.link_length_km / 10.0)
    v = math.sqrt(math.pi / 2.0) * params.aperture_radius_m / params.beam_waist_m
    erf_v = math.erf(v)
    a0 = erf_v * erf_v
    if a0 * h_l == 0.0:
        raise RegimeError(
            f"the peak gain A0 h_l underflows to 0 at attenuation_db_per_km = "
            f"{params.attenuation_db_per_km!r}, link_length_km = {params.link_length_km!r}, "
            f"aperture_radius_m = {params.aperture_radius_m!r} and "
            f"beam_waist_m = {params.beam_waist_m!r}"
        )
    try:
        omega_z_eq_sq = (
            params.beam_waist_m**2 * math.sqrt(math.pi) * erf_v / (2.0 * v * math.exp(-v * v))
        )
    except OverflowError:  # a waist past about 1.3e154 m; beta is then inf
        omega_z_eq_sq = math.inf
    omega_z_eq = math.sqrt(omega_z_eq_sq)
    gamma = omega_z_eq / (2.0 * params.pointing_std_m)
    gamma_sq = gamma * gamma
    sigma_x_sq = params.rytov_variance / 4.0
    mu = 2.0 * sigma_x_sq * (1.0 + 2.0 * gamma_sq)
    h_hat = a0 * h_l * math.exp(-mu)
    d = DerivedParams(
        h_l=h_l,
        v=v,
        a0=a0,
        omega_z_eq_m=omega_z_eq,
        gamma=gamma,
        gamma_sq=gamma_sq,
        sigma_x_sq=sigma_x_sq,
        mu=mu,
        h_hat=h_hat,
    )
    if not (0.0 < d.beta < math.inf and _TAIL / d.beta < math.inf):  # see log_gain_window
        raise RegimeError(
            f"beta = {d.beta!r} has no finite log-gain window at pointing_std_m = "
            f"{params.pointing_std_m!r}, rytov_variance = {params.rytov_variance!r}, "
            f"beam_waist_m = {params.beam_waist_m!r} and aperture_radius_m = "
            f"{params.aperture_radius_m!r}"
        )
    return d


def log_gain_of(h: float, d: DerivedParams) -> float:
    """Normalized log-gain v(h); h must be positive."""
    return (math.log(h / d.a0_h_l) + d.mu) / d.log_gain_scale


def gain_of(v: float, d: DerivedParams) -> float:
    """Inverse of :func:`log_gain_of`."""
    return d.a0_h_l * math.exp(d.log_gain_scale * v - d.mu)


def log_gain_window(d: DerivedParams) -> tuple[float, float]:
    """Finite v interval standing in for the whole real line in the BER integrals.

    Above the density's peak at v = beta/2 the mass falls off as a unit-width
    Gaussian; the upper end sits six of those widths above it, where the
    density's erfc factor is below erfc(6) < 1e-17. The lower end follows two
    bounds on the density: (beta/2) exp(-(v - beta/2)^2) for v >= 0 and
    beta exp(beta v - beta^2/4) for v < 0. For beta >= 2 sqrt(120) it sits
    sqrt(120) below the peak, past which that Gaussian holds about exp(-120)
    of the mass, and the whole v < 0 part holds at most exp(-beta^2/4) <=
    exp(-120). For smaller beta it is where the exponential tail below it
    holds exp(-120). The two ends meet at 0 when beta = 2 sqrt(120).
    """
    b = d.beta
    lo = 0.5 * b - _SQRT_TAIL if b >= 2.0 * _SQRT_TAIL else 0.25 * b - _TAIL / b
    return lo, 0.5 * b + 6.0


def weighted_log_gain_density(d: DerivedParams, kernel: Kernel, c: float, weight):
    """v -> 0.5 weight(u) f_E(v) with u = c h(v): the v-space integrand of the
    average of 0.5 weight(c h) over the gain density, with erfc replaced by the
    stand-in E of a kernel, see :mod:`fso_ber.special`.

    It checks no range: every BER window (:func:`log_gain_window`, clipped
    where u = 40) keeps (v - b/2)^2 <= 120 above 0 and b v - b^2/4 >= -120
    below it, so u is finite and the density at least exp(-120) times a
    positive factor at every node; past a window weight(u) and math.exp
    underflow to 0.0. Only u's overflow is guarded, as the density alone takes
    any v. The density f_E(v) = (b/2) exp(b v - b^2/4) E(v) is evaluated
    through E_x(v) = exp(v^2) E(v) for v >= 0 so the Gaussian factors combine
    into exp(-(v - b/2)^2) and nothing overflows however large b gets; below 0
    it calls E's z < 0 branch. This is the only place the density's two
    branches are written: the BER integrands take weight = E's z >= 0 branch,
    since u >= 0, and the density alone is weight = 2, since 0.5 * 2 is
    exactly 1.
    """
    e_neg, _, e_x = kernel
    b = d.beta
    half_b = 0.5 * b
    quarter_b_sq = 0.25 * b * b
    ln_c = math.log(c * d.a0_h_l)
    s = d.log_gain_scale
    mu = d.mu
    exp, inf = math.exp, math.inf

    def f(v: float) -> float:
        ln_u = ln_c + s * v - mu
        u = exp(ln_u) if ln_u < 300.0 else inf
        if v >= 0.0:
            t = v - half_b
            density = half_b * e_x(v) * exp(-t * t)
        else:
            density = half_b * e_neg(v) * exp(b * v - quarter_b_sq)
        return 0.5 * weight(u) * density

    return f


def _two(u: float) -> float:
    return 2.0


def log_gain_pdf(v: float, d: DerivedParams) -> float:
    """Density of the normalized log-gain, (beta/2) exp(beta v - beta^2/4) erfc(v)."""
    return weighted_log_gain_density(d, EXACT_KERNEL, 1.0, _two)(v)


def pdf_h(h: float, d: DerivedParams) -> float:
    """Composite channel-gain density at gain h; zero for h <= 0."""
    check_number("h", h)
    if h <= 0.0:
        return 0.0
    return log_gain_pdf(log_gain_of(h, d), d) / (h * d.log_gain_scale)

