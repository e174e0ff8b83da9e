"""Stand-ins for the complementary error function, and their kernels.

``erfc_approx`` is the closed-form surrogate whose substitution into the exact
integrand yields the split-kernel BER approximation; the exact integrand uses
the C library's ``math.erfc``.

Each BER method is the same average with a different stand-in E for erfc. A
method is given by its kernel: E on z < 0, E on z >= 0, and the scaled form
E_x(z) = exp(z^2) E(z) on z >= 0, used there so that Gaussian factors combine
instead of underflowing separately. Each branch is a function of its own, so
the integrand calls a formula without testing the sign of its argument again:

* ``EXACT_KERNEL``      -- erfc on both sides and erfcx, scipy's compiled
  scalar kernel, which returns a Python float.
* ``APPROX_KERNEL``     -- the two branches of erfc_approx, and erfcx_approx.
* ``ASYMPTOTIC_KERNEL`` -- the 1/z asymptotic exp(-z^2) / (z sqrt(pi)) of
  erfc and its scaled form 1 / (z sqrt(pi)); defined for z > 0 only.
"""

import math
from typing import Callable, NamedTuple

from scipy.special import cython_special

from .errors import check_number

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_FOUR_OVER_PI = 4.0 / math.pi
_PI_OVER_SQRT6 = math.pi / math.sqrt(6.0)

# the double specialization of the kernel behind scipy.special.erfcx, called
# on a Python float without the ufunc machinery; it returns a Python float
_erfcx = cython_special.erfcx["double"]


def erfcx_approx(z: float) -> float:
    """exp(z^2) erfc_approx(z) for z >= 0: ``(2/sqrt(pi)) / (z + sqrt(z^2 + 4/pi))``."""
    return _TWO_OVER_SQRT_PI / (z + math.sqrt(z * z + _FOUR_OVER_PI))


def _erfc_approx_pos(z: float) -> float:
    return math.exp(-z * z) * erfcx_approx(z)


def _erfc_approx_neg(z: float) -> float:
    return 1.0 + math.tanh(-_PI_OVER_SQRT6 * z)


def erfc_approx(z: float) -> float:
    """Two-branch elementary approximation of erfc(z).

    For z >= 0 returns ``(2/sqrt(pi)) * exp(-z^2) / (z + sqrt(z^2 + 4/pi))``,
    an upper bound that tightens as z grows. For z < 0 returns
    ``1 + (exp(-2 pi z / sqrt(6)) - 1) / (exp(-2 pi z / sqrt(6)) + 1)``,
    evaluated in the algebraically identical form ``1 + tanh(-pi z / sqrt(6))``
    so that large negative arguments saturate instead of overflowing the
    exponential. Both branches equal 1 at z = 0.
    """
    check_number("z", z)
    if z >= 0.0:
        return _erfc_approx_pos(z)
    return _erfc_approx_neg(z)


def _asymptotic(z: float) -> float:
    return math.exp(-z * z) / (z * _SQRT_PI)


def _asymptotic_x(z: float) -> float:
    return 1.0 / (z * _SQRT_PI)


class Kernel(NamedTuple):
    """An erfc stand-in E by branch, and its scaled form E_x(z) = exp(z^2) E(z)."""

    e_neg: Callable[[float], float]  # E on z < 0
    e_pos: Callable[[float], float]  # E on z >= 0
    e_x: Callable[[float], float]    # E_x on z >= 0


EXACT_KERNEL = Kernel(math.erfc, math.erfc, _erfcx)
APPROX_KERNEL = Kernel(_erfc_approx_neg, _erfc_approx_pos, erfcx_approx)
ASYMPTOTIC_KERNEL = Kernel(_asymptotic, _asymptotic, _asymptotic_x)
