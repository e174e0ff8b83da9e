import math

import mpmath as mp
import numpy as np
import pytest

from fso_ber import erfc_approx
from fso_ber.special import EXACT_KERNEL

mp.mp.dps = 30

# the erfc the exact BER integrand calls
erfc = EXACT_KERNEL.e

# frozen against mpmath.erfc / direct 30-digit evaluation of the branch formulas
ERFC_1 = 0.15729920705028513
ERFC_M1 = 1.8427007929497149
ERFC_APPROX_1 = 0.16553140002740541
ERFC_APPROX_M1 = 1.8571627939933577


def test_erfc_frozen_points():
    assert erfc(0.0) == 1.0
    assert erfc(1.0) == pytest.approx(ERFC_1, rel=1e-13)
    assert erfc(-1.0) == pytest.approx(ERFC_M1, rel=1e-13)
    assert erfc(-1.0) == pytest.approx(2.0 - erfc(1.0), abs=1e-14)


def test_erfc_against_high_precision_oracle():
    for z in np.linspace(-6.0, 6.0, 121):
        expected = float(mp.erfc(mp.mpf(float(z))))
        assert erfc(float(z)) == pytest.approx(expected, rel=1e-12)
    for z in (8.0, 12.0, 20.0, 26.0):
        expected = float(mp.erfc(mp.mpf(z)))
        assert erfc(z) == pytest.approx(expected, rel=1e-12)


def test_erfc_reflection_identity():
    for z in np.linspace(-8.0, 8.0, 161):
        assert erfc(float(z)) + erfc(float(-z)) == pytest.approx(2.0, abs=1e-12)


def test_erfc_strictly_decreasing():
    # strict where doubles resolve the tail; non-increasing out to saturation
    grid = np.linspace(-5.0, 8.0, 1301)
    values = [erfc(float(z)) for z in grid]
    assert all(a > b for a, b in zip(values[:-1], values[1:]))
    wide = [erfc(float(z)) for z in np.linspace(-10.0, 10.0, 2001)]
    assert all(a >= b for a, b in zip(wide[:-1], wide[1:]))


def test_erfc_approx_frozen_points():
    assert erfc_approx(0.0) == pytest.approx(1.0, abs=1e-15)
    assert erfc_approx(1.0) == pytest.approx(ERFC_APPROX_1, rel=1e-12)
    assert erfc_approx(-1.0) == pytest.approx(ERFC_APPROX_M1, rel=1e-12)
    # the negative branch in its tanh form
    assert erfc_approx(-1.0) == pytest.approx(1.0 + math.tanh(math.pi / math.sqrt(6.0)), abs=1e-15)


def test_erfc_approx_upper_bounds_erfc_for_nonnegative():
    for z in np.arange(0.0, 10.0 + 1e-12, 0.01):
        assert erfc_approx(float(z)) >= erfc(float(z)) - 1e-15


def test_erfc_approx_range():
    for z in np.linspace(-10.0, 10.0, 2001):
        val = erfc_approx(float(z))
        assert 0.0 < val < 2.0


def test_erfc_approx_branch_continuity():
    eps = 1e-12
    assert abs(erfc_approx(-eps) - erfc_approx(eps)) < 1e-11


def test_erfc_approx_negative_branch_saturates_without_overflow():
    assert erfc_approx(-300.0) == 2.0
    assert erfc_approx(-1e12) == 2.0


def test_erfc_approx_positive_tail_underflows_cleanly():
    assert erfc_approx(40.0) == 0.0  # exp(-1600) below double range
    assert 0.0 < erfc_approx(20.0) < 1e-170


def test_non_finite_inputs_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            erfc_approx(bad)
