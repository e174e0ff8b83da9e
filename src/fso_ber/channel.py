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
from dataclasses import dataclass

from .errors import GeometryError, RegimeError
from .special import EXACT_KERNEL

# log_gain_window drops at most exp(-_TAIL) of the mass below its lower end
_TAIL = 120.0
_SQRT_TAIL = math.sqrt(_TAIL)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


@dataclass(frozen=True)
class LinkParams:
    """Raw physical inputs of one link.

    ``wavelength_nm`` is stored for configuration completeness only; no
    formula consumes it because turbulence strength enters directly through
    ``rytov_variance``. Exactly one of ``pointing_std_m`` (displacement jitter
    at the receiver) or ``jitter_angle_mrad`` (transmitter angle jitter, which
    maps to displacement via the link length) must be given.
    """

    wavelength_nm: float
    link_length_km: float
    aperture_radius_m: float
    beam_waist_m: float
    attenuation_db_per_km: float
    responsivity_a_per_w: float
    noise_std: float  # total noise standard deviation at the detector, A
    rytov_variance: float
    pointing_std_m: float | None = None
    jitter_angle_mrad: float | None = None

    def __post_init__(self):
        positive = {
            "wavelength_nm": self.wavelength_nm,
            "link_length_km": self.link_length_km,
            "aperture_radius_m": self.aperture_radius_m,
            "beam_waist_m": self.beam_waist_m,
            "responsivity_a_per_w": self.responsivity_a_per_w,
            "noise_std": self.noise_std,
        }
        for name, value in positive.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not (math.isfinite(self.attenuation_db_per_km) and self.attenuation_db_per_km >= 0):
            raise ValueError(f"attenuation_db_per_km must be >= 0, got {self.attenuation_db_per_km!r}")
        if not (0.0 < self.rytov_variance <= 1.0):
            raise RegimeError(
                f"rytov_variance = {self.rytov_variance!r} outside the weak-turbulence "
                "regime (0, 1] this model covers"
            )
        given = [x is not None for x in (self.pointing_std_m, self.jitter_angle_mrad)]
        if sum(given) != 1:
            raise ValueError("exactly one of pointing_std_m / jitter_angle_mrad must be set")
        sigma_s = self.sigma_s_m
        if not (math.isfinite(sigma_s) and sigma_s > 0):
            raise ValueError(f"pointing displacement must be positive, got {sigma_s!r}")

    @property
    def sigma_s_m(self) -> float:
        """Pointing displacement standard deviation at the receiver, meters."""
        if self.pointing_std_m is not None:
            return self.pointing_std_m
        # mrad * km = 1e-3 rad * 1e3 m = m
        return self.jitter_angle_mrad * self.link_length_km


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
    beam (a >= omega_z), where the equivalent-beam pointing model breaks down.
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
    omega_z_eq_sq = (
        params.beam_waist_m**2 * math.sqrt(math.pi) * erf_v / (2.0 * v * math.exp(-v * v))
    )
    omega_z_eq = math.sqrt(omega_z_eq_sq)
    gamma = omega_z_eq / (2.0 * params.sigma_s_m)
    gamma_sq = gamma * gamma
    sigma_x_sq = params.rytov_variance / 4.0
    mu = 2.0 * sigma_x_sq * (1.0 + 2.0 * gamma_sq)
    h_hat = a0 * h_l * math.exp(-mu)
    return DerivedParams(
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


def log_gain_density(v: float, b: float, e, e_x) -> float:
    """(b/2) exp(b v - b^2/4) E(v): the log-gain density with erfc replaced by
    the stand-in E of a kernel pair (E, E_x), see :mod:`fso_ber.special`.

    Evaluated through E_x(v) = exp(v^2) E(v) for v >= 0 so the Gaussian
    factors combine into exp(-(v - b/2)^2) and nothing overflows however large
    b gets.
    """
    if v >= 0.0:
        t = v - 0.5 * b
        return 0.5 * b * e_x(v) * math.exp(-t * t)
    exponent = b * v - 0.25 * b * b
    if exponent < -700.0:
        return 0.0
    return 0.5 * b * e(v) * math.exp(exponent)


def log_gain_pdf(v: float, d: DerivedParams) -> float:
    """Density of the normalized log-gain, (beta/2) exp(beta v - beta^2/4) erfc(v)."""
    return log_gain_density(v, d.beta, *EXACT_KERNEL)


def pdf_h(h: float, d: DerivedParams) -> float:
    """Composite channel-gain density at gain h; zero for h <= 0."""
    if h <= 0.0:
        return 0.0
    return log_gain_pdf(log_gain_of(h, d), d) / (h * d.log_gain_scale)

