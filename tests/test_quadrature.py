import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fso_ber import IntegrandError, Tolerance, integrate, quadrature
from fso_ber.channel import DerivedParams, gain_of, log_gain_window
from fso_ber.quadrature import _WG, _WGK, _XGK, _rule


def test_constant_integrand():
    res = integrate(lambda x: 1.0, 0.0, 1.0, Tolerance(rel_tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_power_integrand_closed_form():
    exponent = 8.006 - 1.0
    res = integrate(lambda x: x**exponent, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 8.006, rel=1e-9)


def test_gaussian_integrand_closed_form():
    res = integrate(lambda x: math.exp(-x * x), 0.0, 6.0)
    expected = 0.5 * math.sqrt(math.pi) * math.erf(6.0)
    assert res.converged
    assert abs(res.value - expected) < 1e-9


def test_integrable_endpoint_singularity():
    res = integrate(lambda x: x**-0.5, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-7)


@pytest.mark.parametrize("b", [0.3, 1.0, 4.7])
def test_endpoint_singularity_antiderivative(b):
    res = integrate(lambda x: x**-0.5, 0.0, b)
    assert res.converged
    assert res.value == pytest.approx(2.0 * math.sqrt(b), rel=1e-7)


def test_interval_additivity_random_smooth():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        coeffs = rng.normal(size=4)
        w = rng.uniform(0.5, 3.0)

        def f(x):
            return coeffs[0] + coeffs[1] * x + coeffs[2] * math.sin(w * x) + coeffs[3] * x * x

        pts = np.sort(rng.uniform(-5.0, 5.0, size=3))
        a, c, b = (float(p) for p in pts)
        if c - a < 1e-3 or b - c < 1e-3:
            continue
        whole = integrate(f, a, b)
        left = integrate(f, a, c)
        right = integrate(f, c, b)
        tol = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-12
        assert abs(left.value + right.value - whole.value) <= 10 * tol


def test_linearity_in_scalar():
    f = lambda x: math.exp(-x) * math.cos(3 * x)
    base = integrate(f, 0.0, 2.0)
    scaled = integrate(lambda x: -7.5 * f(x), 0.0, 2.0)
    assert scaled.value == pytest.approx(-7.5 * base.value, rel=1e-9)


def test_matches_scipy_oracle():
    cases = [
        (lambda x: math.exp(-x * x) * math.cos(x), -3.0, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0),
        (lambda x: x**2.5 * math.exp(-x), 0.0, 20.0),
    ]
    for f, a, b in cases:
        mine = integrate(f, a, b)
        ref, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11)
        assert mine.converged
        assert mine.value == pytest.approx(ref, rel=1e-8)


def test_converged_respects_tolerance_contract():
    tol = Tolerance(rel_tol=1e-8, abs_tol=1e-14)
    res = integrate(lambda x: math.sin(x) ** 2, 0.0, 7.0, tol)
    assert res.converged
    assert res.error_estimate <= max(tol.rel_tol * abs(res.value), tol.abs_tol)


def test_nan_integrand_reports_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(IntegrandError) as excinfo:
        integrate(f, 0.0, 1.0)
    assert 0.4 < excinfo.value.abscissa < 0.6


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_integrand_reports_abscissa(bad):
    def f(x):
        return bad if 0.4 < x < 0.6 else 1.0

    with pytest.raises(IntegrandError) as excinfo:
        integrate(f, 0.0, 1.0)
    assert 0.4 < excinfo.value.abscissa < 0.6
    assert excinfo.value.value == bad


# the first rule on [0, 1] evaluates 0.5, then 0.5 -/+ 0.5 * x for each Kronrod
# abscissa x from the outermost inwards
_OUTER = 0.5 * 0.998002298693397060285172840152271


@pytest.mark.parametrize("bad_region, first", [
    pytest.param(lambda x: x > 0.3, 0.5, id="center-and-above"),
    pytest.param(lambda x: x < 0.3, 0.5 - _OUTER, id="below-only"),
    pytest.param(lambda x: x > 0.7, 0.5 + _OUTER, id="above-only"),
    pytest.param(lambda x: abs(x - 0.5) > 0.2, 0.5 - _OUTER, id="both-sides-not-center"),
])
def test_integrand_error_names_the_first_non_finite_node(bad_region, first):
    seen = []

    def f(x):
        seen.append(x)
        return math.nan if bad_region(x) else 1.0

    with pytest.raises(IntegrandError) as excinfo:
        integrate(f, 0.0, 1.0)
    assert excinfo.value.abscissa == first
    assert [x for x in seen if bad_region(x)][0] == first


def test_budget_exhaustion_returns_unconverged(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 300)
    res = integrate(lambda x: math.sin(1.0 / (x + 1e-9)), 0.0, 1.0, Tolerance(rel_tol=1e-12))
    assert not res.converged
    assert res.evaluations <= 300


def test_non_integrable_pole_stops_when_error_stops_shrinking():
    # each halving toward the pole keeps the endpoint interval's error at the
    # rule's estimate on [0, 1]; 10 free bisections plus 20 growing ones, one
    # rule plus two each
    res = integrate(lambda x: 1.0 / x, 0.0, 1.0)
    assert not res.converged
    assert res.evaluations == 31 * (1 + 2 * 30)
    assert res.error_estimate == pytest.approx(_rule(lambda x: 1.0 / x, 0.0, 1.0)[1], rel=1e-9)


@pytest.mark.parametrize("f, exact", [(lambda x: x**-0.5, 2.0), (math.log, -1.0)])
def test_integrable_endpoint_singularities_still_converge(f, exact):
    res = integrate(f, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_tol=1e-15)
    with pytest.raises(ValueError):
        Tolerance(rel_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1e-3)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [True, False, "1e-9", None, math.inf, math.nan,
                                   # no float holds it: math.isfinite would overflow
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")], ids=repr)
def test_tolerance_refuses_a_value_that_is_not_a_finite_number(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be a finite number \(got "):
        Tolerance(**{field: value})


def test_an_infinite_abs_tol_cannot_pass_an_unconverged_integral():
    # with abs_tol = inf the first rules' error estimate (0.87 on a value of
    # 1.24) would count as converged
    with pytest.raises(ValueError, match="abs_tol"):
        integrate(lambda x: math.sin(50.0 * x) ** 2, 0.0, 3.0, Tolerance(abs_tol=math.inf))
    res = integrate(lambda x: math.sin(50.0 * x) ** 2, 0.0, 3.0)
    assert res.converged
    assert res.value == pytest.approx(1.5 - math.sin(300.0) / 200.0, rel=1e-9)


def _degenerate_derived(sigma_x_sq):
    a0, h_l = 1.2745287784456591e-3, 0.85853894423298793
    gamma_sq = 8.006161312523107
    mu = 2.0 * sigma_x_sq * (1.0 + 2.0 * gamma_sq)
    return DerivedParams(
        h_l=h_l, v=0.031648951810298424, a0=a0, omega_z_eq_m=1.9806610085724147,
        gamma=math.sqrt(gamma_sq), gamma_sq=gamma_sq, sigma_x_sq=sigma_x_sq,
        mu=mu, h_hat=a0 * h_l * math.exp(-mu),
    )


def truncation_bound(d):
    """The gain at the upper end of the BER integration window."""
    return gain_of(log_gain_window(d)[1], d)


def test_truncation_bound_degenerate_limit():
    d = _degenerate_derived(1e-30)
    assert truncation_bound(d) == pytest.approx(d.a0 * d.h_l, rel=1e-12)


def test_truncation_bound_case1_value(deriveds):
    d = deriveds["case1"]
    expected = d.a0 * d.h_l * math.exp(6.0 * math.sqrt(8.0 * 0.025) - 2.0 * 0.025)
    assert truncation_bound(d) == pytest.approx(expected, rel=1e-14)
    assert truncation_bound(d) == pytest.approx(0.015231031019036306, rel=1e-12)


def test_truncation_bound_exceeds_split_gain(deriveds):
    for d in deriveds.values():
        assert truncation_bound(d) > d.h_hat


def _monomial_integral(k):
    """The integral of x**k over [-1, 1]."""
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


# x**k multiplies the rounding error of an abscissa by k, so the sums are held
# to a few ulps rather than to one; odd powers cancel exactly
@pytest.mark.parametrize("k", range(47))
def test_rule_integrates_monomials_exactly_to_degree_46(k):
    value, _ = _rule(lambda x: x**k, -1.0, 1.0)
    exact = _monomial_integral(k)
    assert abs(value - exact) <= 16 * math.ulp(exact)


@pytest.mark.parametrize("k", range(30))
def test_embedded_gauss_sum_integrates_monomials_exactly_to_degree_29(k):
    # the Gauss nodes are the center and Kronrod pairs 2, 4, ...
    gauss = _WG[-1] * 0.0**k
    for x, wg in zip(_XGK[1:-1:2], _WG[:-1]):
        gauss += wg * ((-x) ** k + x**k)
    exact = _monomial_integral(k)
    assert abs(gauss - exact) <= 16 * math.ulp(exact)


# The rule in loop form, as it was before it was unrolled: the unrolled rule
# must return the same (value, error) bit for bit, and name the same first
# non-finite abscissa. Pairs 2, 4, ... carry the embedded Gauss weights.
_PAIRS = len(_XGK) - 1
_NODES = 2 * _PAIRS + 1
_REF_PAIRS = tuple(zip(_XGK[:_PAIRS], _WGK[:_PAIRS],
                       (_WG[i // 2] if i % 2 else 0.0 for i in range(_PAIRS))))


def _reference_rule(f, a, b):
    abs_ = abs
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fc = f(center)
    wk_c = _WGK[-1]
    resk = wk_c * fc
    resg = _WG[-1] * fc
    resabs = wk_c * abs_(fc)
    pairs = []
    for x, wk, wg in _REF_PAIRS:
        dx = half * x
        flo = f(center - dx)
        fhi = f(center + dx)
        pairs.append((flo, fhi))
        both = flo + fhi
        resk += wk * both
        resabs += wk * (abs_(flo) + abs_(fhi))
        if wg:
            resg += wg * both
    if not math.isfinite(resabs):
        nodes = [(center, fc)]
        for (x, _, _), (flo, fhi) in zip(_REF_PAIRS, pairs):
            dx = half * x
            nodes += ((center - dx, flo), (center + dx, fhi))
        for x, y in nodes:
            if not math.isfinite(y):
                raise IntegrandError(x, y)
    mean = 0.5 * resk
    resasc = wk_c * abs_(fc - mean)
    for (_, wk, _), (flo, fhi) in zip(_REF_PAIRS, pairs):
        resasc += wk * (abs_(flo - mean) + abs_(fhi - mean))
    value = resk * half
    resabs *= abs_(half)
    resasc *= abs_(half)
    err = abs_((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * math.ulp(1.0) * resabs)
    return value, err


def _outcome(rule, f, a, b):
    """(value, error) as float hex, or the exception's type and arguments."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    try:
        value, err = rule(g, a, b)
    except IntegrandError as exc:
        return IntegrandError, exc.abscissa.hex(), exc.value.hex(), seen
    except OverflowError as exc:
        return OverflowError, str(exc), seen
    return value.hex(), err.hex(), seen


_FINITE = st.floats(-1e6, 1e6)
_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_WIDTH = st.floats(-12.0, 6.0).map(lambda e: 10.0**e)


@st.composite
def _integrands(draw, a, b):
    """A smooth integrand with sign changes, one with exact zeros (0.0 or -0.0),
    a steep Gaussian, or a constant. Only the first can mix signs; the rule
    takes a shortcut where no node value is negative."""
    kind = draw(st.sampled_from(("signs", "zeros", "gaussian", "constant")))
    scale = draw(_SCALE)
    if kind == "constant":
        c = draw(st.sampled_from((0.0, -0.0, scale, -scale)))
        return lambda x: c
    mid, width = 0.5 * (a + b), abs(b - a)
    u = draw(st.floats(-1.0, 1.0))
    if kind == "signs":
        k = draw(st.floats(0.0, 40.0)) / width
        return lambda x: scale * (u + math.sin(k * (x - mid)))
    if kind == "zeros":
        cut = mid + u * width
        zero = draw(st.sampled_from((0.0, -0.0)))
        return lambda x: zero if x < cut else scale * (x - cut)
    sigma = width * 10.0 ** draw(st.floats(-6.0, 0.0))
    peak = mid + u * width
    return lambda x: scale * math.exp(-(((x - peak) / sigma) ** 2))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data(), a=_FINITE, width=_WIDTH, flip=st.booleans())
def test_rule_is_bit_identical_to_its_loop_form(data, a, width, flip):
    b = a + width
    assume(b != a)  # a width below a's ulp; integrate refuses a == b
    if flip:
        a, b = b, a
    f = data.draw(_integrands(a, b))
    assert _outcome(_rule, f, a, b) == _outcome(_reference_rule, f, a, b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=_FINITE, width=_WIDTH, bad=st.sampled_from((math.nan, math.inf, -math.inf)),
       chosen=st.sets(st.integers(0, _NODES - 1), min_size=1), shuffle=st.randoms())
def test_rule_names_the_same_non_finite_node_as_its_loop_form(a, width, bad, chosen, shuffle):
    b = a + width
    nodes = []
    _reference_rule(lambda x: nodes.append(x) or 1.0, a, b)
    bad_nodes = {nodes[i] for i in chosen}

    def f(x):
        return bad if x in bad_nodes else shuffle.uniform(-1.0, 1.0)

    state = shuffle.getstate()
    got = _outcome(_rule, f, a, b)
    shuffle.setstate(state)
    expected = _outcome(_reference_rule, f, a, b)
    assert got[0] is IntegrandError
    assert got == expected


@pytest.mark.parametrize("values", [
    pytest.param([1.0 + i for i in range(_NODES)], id="positive"),
    pytest.param([0.0, -0.0] * _PAIRS + [3.0], id="signed-zeros-and-positive"),
    pytest.param([-0.0] * _NODES, id="negative-zeros"),
    pytest.param([0.0] * _PAIRS + [-0.0] * (_PAIRS + 1), id="zeros"),
    pytest.param([1.0] * (_NODES - 1) + [-5e-324], id="one-tiny-negative"),
    pytest.param([-1.0 - i for i in range(_NODES)], id="negative"),
    pytest.param([1e308] * _NODES, id="overflowing-sum"),
    pytest.param([1.0] * _PAIRS + [math.inf] + [1.0] * _PAIRS, id="inf-among-positive"),
    pytest.param([1.0] * _PAIRS + [math.nan] + [1.0] * _PAIRS, id="nan-among-positive"),
])
def test_rule_on_signed_node_values_is_bit_identical_to_its_loop_form(values):
    # the rule takes resabs from resk when no node value is negative
    nodes = []
    _reference_rule(lambda x: nodes.append(x) or 1.0, 0.25, 1.75)
    at = dict(zip(nodes, values))
    assert _outcome(_rule, at.__getitem__, 0.25, 1.75) == _outcome(
        _reference_rule, at.__getitem__, 0.25, 1.75)
