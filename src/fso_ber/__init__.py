"""Average BER of OOK free-space-optical links under weak turbulence,
pointing errors, and atmospheric loss: an exact integral expression, two
analytical approximations, and an independent Monte Carlo oracle."""

from .analysis import BerCurve, BerPoint, CrossingReport, delta, fec_crossing, sweep
from .ber import BerMethod, ber_approx_new, ber_approx_prev, ber_conditional, ber_exact
from .channel import (
    DerivedParams,
    LinkParams,
    dbm_to_watts,
    derive,
    log_gain_pdf,
    pdf_h,
)
from .config import PRESETS, RunConfig
from .errors import (
    BracketError,
    ConfigError,
    GeometryError,
    IntegrandError,
    NonConvergenceError,
    NonMonotoneError,
    RegimeError,
)
from .montecarlo import McEstimate, mc_ber, sample_h, wilson_interval
from .quadrature import QuadratureResult, Tolerance, integrate
from .runner import RunArtifacts, run
from .special import erfc_approx

__version__ = "0.1.0"

__all__ = [
    "BerCurve", "BerPoint", "BerMethod", "BracketError", "ConfigError",
    "CrossingReport", "DerivedParams", "GeometryError", "IntegrandError",
    "LinkParams", "McEstimate", "NonConvergenceError",
    "NonMonotoneError", "PRESETS", "QuadratureResult", "RegimeError",
    "RunArtifacts", "RunConfig", "Tolerance",
    "ber_approx_new", "ber_approx_prev", "ber_conditional", "ber_exact",
    "dbm_to_watts", "delta", "derive", "erfc_approx", "fec_crossing",
    "integrate", "log_gain_pdf", "mc_ber", "pdf_h", "run",
    "sample_h", "sweep", "wilson_interval",
]
