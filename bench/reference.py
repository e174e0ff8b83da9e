"""Independent BER references for the benchmark's correctness gate.

Nothing here imports ``fso_ber``. The channel constants are derived again from
the raw link fields, and each reference is an mpmath quadrature that shares
neither the package's integrator nor its integration window:

* ``exact``: a double integral over the physical random variables. X is the
  turbulence log-amplitude, X = sigma_X * Z - sigma_X^2 with Z standard normal.
  E = (x^2 + y^2) / 2 ~ Exp(1) is the pointing term. The gain is
  h = A0 h_l exp(2X) exp(-E / gamma^2), and the BER is
  E_Z E_E[0.5 erfc(c h)]. There is no log-gain variable v and no beta window.
* ``approx-new``: the split-kernel integrand as the package documents it in
  v-space, integrated over the whole real line rather than a truncated window.

Accuracy: both use mpmath's double-precision context (``mpmath.fp``) with
tanh-sinh quadrature. The self-test compares ``exact`` with a closed form of
the inner E integral evaluated at 30 digits; they agree to about 3e-8
relative wherever the BER exceeds 1e-12. That figure bounds ``REL_TOL`` below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

fp = mpmath.fp

# |value - reference| <= REL_TOL * |reference| + ABS_TOL.
# The package's Tolerance asks for rel_tol 1e-9 and abs_tol 1e-15 on each of
# at most six segments. The reference is good to about 3e-8 relative (see
# above). REL_TOL sits 30x above the reference's error and 1000x above the
# package's target. It is still 1000x below the 1e-3 perturbation that the
# checker self-test must reject. ABS_TOL is 100x the six-segment abs_tol sum
# (6e-15), so values that the package only promises in absolute terms are
# not judged relatively.
REL_TOL = 1e-6
ABS_TOL = 1e-13

_Z_MAX = 12.0   # standard-normal mass beyond |z| = 12 is 3.6e-33
_E_MAX = 60.0   # Exp(1) mass beyond 60 is 8.8e-27
_LN_ERFC_ZERO = 5.0  # erfc(e^5) = erfc(148.4) underflows double precision
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_FOUR_OVER_PI = 4.0 / math.pi
_PI_OVER_SQRT6 = math.pi / math.sqrt(6.0)


def link_constants(link: dict) -> dict:
    """Channel constants from raw link fields (Gaussian beam, square-law pointing)."""
    a = link["aperture_radius_m"]
    w = link["beam_waist_m"]
    nu = math.sqrt(math.pi / 2.0) * a / w
    erf_nu = math.erf(nu)
    w_eq_sq = w * w * math.sqrt(math.pi) * erf_nu / (2.0 * nu * math.exp(-nu * nu))
    gamma_sq = w_eq_sq / (4.0 * link["pointing_std_m"] ** 2)
    sigma_x_sq = link["rytov_variance"] / 4.0
    return {
        "a0_h_l": erf_nu * erf_nu
        * 10.0 ** (-link["attenuation_db_per_km"] * link["link_length_km"] / 10.0),
        "gamma_sq": gamma_sq,
        "sigma_x_sq": sigma_x_sq,
    }


def _ln_k(link: dict, p_dbm: float, a0_h_l: float) -> float:
    """ln of c * A0 * h_l, where c * h is the erfc argument of the conditional BER."""
    p_watts = 10.0 ** ((p_dbm - 30.0) / 10.0)
    c = link["responsivity_a_per_w"] * p_watts / (math.sqrt(2.0) * link["noise_std"])
    return math.log(c * a0_h_l)


def ber_exact_ref(link: dict, p_dbm: float) -> float:
    """Average BER as a double integral over the turbulence Z and pointing E."""
    k = link_constants(link)
    ln_k = _ln_k(link, p_dbm, k["a0_h_l"])
    sx = math.sqrt(k["sigma_x_sq"])
    g2 = k["gamma_sq"]

    def over_e(z: float) -> float:
        ln_a = ln_k + 2.0 * (sx * z - sx * sx)  # ln(c h) at E = 0

        def f(e: float) -> float:
            ln_u = ln_a - e / g2
            if ln_u > _LN_ERFC_ZERO:
                return 0.0
            return math.exp(-e) * math.erfc(math.exp(ln_u))

        e_mid = g2 * ln_a  # c h = 1 here
        pts = [0.0, e_mid, _E_MAX] if 0.0 < e_mid < _E_MAX else [0.0, _E_MAX]
        return fp.quad(f, pts)

    z_mid = (sx * sx - ln_k) / (2.0 * sx)  # c h = 1 at E = 0
    pts = [-_Z_MAX, z_mid, _Z_MAX] if -_Z_MAX < z_mid < _Z_MAX else [-_Z_MAX, _Z_MAX]
    total = fp.quad(lambda z: math.exp(-0.5 * z * z) * over_e(z), pts)
    return 0.5 * total / math.sqrt(2.0 * math.pi)


def _kernel(u: float) -> float:
    """exp(-u^2) / (u + sqrt(u^2 + 4/pi)) for u >= 0, without overflow."""
    if u > 1e150:
        return 0.0
    return math.exp(-u * u) / (u + math.sqrt(u * u + _FOUR_OVER_PI))


def ber_approx_new_ref(link: dict, p_dbm: float) -> float:
    """The documented split-kernel v-space integrand, integrated over the real line."""
    k = link_constants(link)
    ln_k = _ln_k(link, p_dbm, k["a0_h_l"])
    s = math.sqrt(8.0 * k["sigma_x_sq"])
    b = k["gamma_sq"] * s
    mu = 2.0 * k["sigma_x_sq"] * (1.0 + 2.0 * k["gamma_sq"])

    def f(v: float) -> float:
        ln_u = ln_k + s * v - mu
        if ln_u > _LN_ERFC_ZERO:
            return 0.0
        ku = 0.5 * _TWO_OVER_SQRT_PI * _kernel(math.exp(ln_u))
        if v >= 0.0:
            density = 0.5 * b * _TWO_OVER_SQRT_PI * math.exp(-(v - 0.5 * b) ** 2) / (
                v + math.sqrt(v * v + _FOUR_OVER_PI)
            )
        else:
            expo = b * v - 0.25 * b * b
            if expo < -745.0:
                return 0.0
            density = 0.5 * b * math.exp(expo) * (1.0 + math.tanh(-_PI_OVER_SQRT6 * v))
        return ku * density

    v_u1 = (mu - ln_k) / s  # u = 1 here
    inner = sorted({0.0, 0.5 * b - 8.0, 0.5 * b, 0.5 * b + 8.0, v_u1})
    return fp.quad(f, [-math.inf, *inner, math.inf])


REFERENCES = {"exact": ber_exact_ref, "approx-new": ber_approx_new_ref}


def key(method: str, link: dict, p_dbm: float) -> str:
    return f"{method}|{json.dumps(link, sort_keys=True)}|{p_dbm!r}"


class RefStore:
    """Reference values keyed by method, link fields and power.

    Loads a committed table if there is one and computes every other value on
    demand. ``computed`` counts the lookups the table could not answer and
    ``hits`` the ones it could.
    """

    def __init__(self, path: Path | None = None):
        self.values: dict[str, float] = {}
        if path is not None and path.is_file():
            self.values.update(json.loads(path.read_text()))
        self.computed = self.hits = 0

    def get(self, method: str, link: dict, p_dbm: float) -> float:
        k = key(method, link, p_dbm)
        if k in self.values:
            self.hits += 1
        else:
            self.values[k] = float(REFERENCES[method](link, p_dbm))
            self.computed += 1
        return self.values[k]

    def write(self, path: Path) -> None:
        text = json.dumps(self.values, sort_keys=True, indent=0, separators=(",", ":"))
        path.write_text(text + "\n")
