"""Deformation calculus: q-numbers, f(n), F(n) and its inverse (on scalars
and on whole arrays), increments, deformed factorials, and the CSV table
loader.

Reference values were computed independently with 40-digit arithmetic and
frozen here as literals; q_number and F^{-1} at small lambda are also
checked against a live 40-digit mpmath oracle.
"""

import io
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlab.deformation import (
    DeformationSpec,
    big_f,
    big_f_inverse,
    commutator_function,
    custom,
    f_factorial,
    f_of_n,
    identity,
    lambda_over_sinh,
    load_f_table,
    phi_of_z,
    q_deform,
    q_number,
)
from qlab.errors import ParameterError, SaturationError

# 40-digit arithmetic, rounded to double
Q_NUMBER_2_LAM1 = 3.0861612696304876
F_OF_2_LAM1 = 1.2422079676186447
PHI_OF_1_LAM1 = 2.0861612696304876
LAM_OVER_SINH_1 = 0.8509181282393215
F_FACT_3_LAM1 = 2.0939454995620312
Q_FACT_3_LAM1 = 26.307646530816507


def test_q_number_frozen_value():
    assert_allclose(q_number(2.0, 1.0), Q_NUMBER_2_LAM1, rtol=1e-15)


def test_q_number_reduces_to_n_at_zero():
    for n in (0.0, 1.0, 2.5, 7.0):
        assert q_number(n, 0.0) == n


def test_q_number_even_in_lambda():
    for lam in (0.3, 1.0, 2.0):
        assert_allclose(q_number(3.0, -lam), q_number(3.0, lam), rtol=1e-15)


def test_q_number_series_matches_sinh_across_switch():
    """Just below and above |lambda| = 1e-6, q_number is continuous and
    matches the sinh ratio for n*lambda up to 700."""
    n = 5.0
    below = q_number(n, 9.9e-7)
    above = q_number(n, 1.01e-6)
    assert abs(below - above) < 1e-12 * n
    for lam in (9.9e-7, 1.01e-6):
        ns = np.geomspace(1e-3, 700.0, 15) / lam
        want = [oracle_q_number(n, lam) for n in ns.tolist()]
        assert_allclose(q_number(ns, lam), want, rtol=1e-12, err_msg=f"lambda = {lam!r}")
        for n, w in zip(ns.tolist(), want):
            assert_allclose(q_number(n, lam), w, rtol=1e-12,
                            err_msg=f"n = {n!r}, lambda = {lam!r}")


def oracle_q_number(n: float, lam: float) -> float:
    """sinh(n lam)/sinh(lam) in 40-digit arithmetic on the exact doubles."""
    with mpmath.workdps(40):
        n, lam = mpmath.mpf(n), mpmath.mpf(lam)
        return float(mpmath.sinh(n * lam) / mpmath.sinh(lam))


ORACLE_LAMBDAS = (5e-324, 1e-320, 1e-300, 1e-9, 9.9e-7, 1.01e-6, 1e-3, 0.1, 1.0)


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_q_number_matches_mpmath_oracle(lam):
    """1e-12 relative against 40 digits for n*lambda in [1e-3, 700] (where
    n stays finite), for small n, and for n*lambda below the normal range."""
    xs = [float(x) for x in np.geomspace(1e-3, 700.0, 25)]
    ns = [x / lam for x in xs if math.isfinite(x / lam)] + [0.5, 1.0, 2.0, 7.0, 1e6]
    want = [oracle_q_number(n, lam) for n in ns]
    for sign in (1.0, -1.0):
        assert_allclose(q_number(np.array(ns), sign * lam), want, rtol=1e-12,
                        err_msg=f"array, lambda = {sign * lam!r}")
        for n, w in zip(ns, want):
            assert_allclose(q_number(n, sign * lam), w,
                            rtol=1e-12, err_msg=f"n = {n!r}, lambda = {sign * lam!r}")
    assert_allclose(lambda_over_sinh(lam), float(lam / mpmath.sinh(mpmath.mpf(lam))),
                    rtol=1e-15)


def test_big_f_inverse_matches_mpmath_at_tiny_lambda():
    """F^{-1}(1e50) at lambda = 1e-9 is asinh(1e50 sinh(lambda))/lambda,
    about 9.51e10: n*lambda = 95 is far from small."""
    lam = 1e-9
    with mpmath.workdps(40):
        expected = float(mpmath.asinh(mpmath.mpf(1e50) * mpmath.sinh(mpmath.mpf(lam)))
                         / mpmath.mpf(lam))
    assert_allclose(big_f_inverse(1e50, q_deform(lam)), expected, rtol=1e-12)
    assert_allclose(big_f_inverse(np.array([1e50]), q_deform(lam)), [expected], rtol=1e-12)


INVERSE_LAMBDAS = [5e-324, 1e-9, 1e-3, 0.1, 1.0, 5.0]
_SATURATION_N_LAMBDA = 709.0  # F^{-1} saturates where n*|lambda| passes this


def oracle_big_f_inverse(x, lam):
    """asinh(x sinh|lambda|)/|lambda| at 50 digits."""
    with mpmath.workdps(50):
        lam = abs(mpmath.mpf(lam))
        return float(mpmath.asinh(mpmath.mpf(x) * mpmath.sinh(lam)) / lam)


def saturation_edge(lam):
    """Largest x that F^{-1} inverts: F(709/|lambda|), capped at the double range."""
    with mpmath.workdps(50):
        edge = mpmath.sinh(_SATURATION_N_LAMBDA) / mpmath.sinh(abs(mpmath.mpf(lam)))
        return min(float(edge), sys.float_info.max)


@pytest.mark.parametrize("lam", INVERSE_LAMBDAS)
def test_big_f_inverse_matches_mpmath_closed_form(lam):
    """From x = 1e-300 up to the saturation edge, both signs of lambda."""
    top = saturation_edge(lam) * (1.0 - 1e-12)
    xs = [float(x) for x in np.geomspace(1e-300, top, 60)] + [top]
    want = [oracle_big_f_inverse(x, lam) for x in xs]
    for sign in (1.0, -1.0):
        spec = q_deform(sign * lam)
        assert_allclose(big_f_inverse(np.array(xs), spec), want, rtol=1e-12,
                        err_msg=f"array, lambda = {sign * lam!r}")
        for x, expected in zip(xs, want):
            assert_allclose(big_f_inverse(x, spec), expected, rtol=1e-12,
                            err_msg=f"x = {x!r}, lambda = {sign * lam!r}")


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0])
def test_big_f_inverse_saturates_just_past_the_edge(lam):
    edge = saturation_edge(lam)
    for sign in (1.0, -1.0):
        spec = q_deform(sign * lam)
        assert_allclose(big_f_inverse(edge * (1.0 - 1e-12), spec),
                        _SATURATION_N_LAMBDA / lam, rtol=1e-12)
        with pytest.raises(SaturationError) as exc_info:
            big_f_inverse(edge * (1.0 + 1e-12), spec)
        assert exc_info.value.largest_safe_n == _SATURATION_N_LAMBDA / lam


# past |lambda| = 709, where sinh(lambda) overflows; 1400 keeps a normal edge
HUGE_INVERSE_LAMBDAS = [709.01, 709.5, 720.0, 745.5, 764.0, 800.0, 1000.0, 1400.0]


@pytest.mark.parametrize("lam", HUGE_INVERSE_LAMBDAS)
def test_big_f_inverse_past_sinh_overflow_matches_mpmath(lam):
    """ln x + |lambda| and its asinh form below e^20; measured within 10.4 eps
    of the 50-digit oracle, from the subnormals up to the saturation edge,
    both signs of lambda."""
    top = saturation_edge(lam) * (1.0 - 1e-12)
    xs = [5e-324, 1e-315] + [float(x) for x in np.geomspace(1e-310, top, 80)] + [top]
    want = np.array([oracle_big_f_inverse(x, lam) for x in xs])
    for sign in (1.0, -1.0):
        spec = q_deform(sign * lam)
        got = big_f_inverse(np.array(xs), spec)
        assert np.all(np.abs(got - want) <= 16 * sys.float_info.epsilon * want), lam
        for x, expected in zip(xs, want.tolist()):
            got = big_f_inverse(x, spec)
            assert abs(got - expected) <= 16 * sys.float_info.epsilon * expected, (x, lam)
    with pytest.raises(SaturationError) as exc_info:
        big_f_inverse(saturation_edge(lam) * (1.0 + 1e-12), q_deform(lam))
    assert exc_info.value.largest_safe_n == _SATURATION_N_LAMBDA / lam
    with pytest.raises(SaturationError):
        big_f_inverse(math.inf, q_deform(lam))
    with pytest.raises(SaturationError):
        big_f_inverse(np.array([1.0, math.inf]), q_deform(lam))


@pytest.mark.parametrize("lam", [0.5, 5.0, 40.0, 700.0])
def test_underflowing_arguments_keep_the_factor_lambda_over_sinh(lam):
    """Where n lambda (or x sinh lambda) underflows, F(n) = n lambda/sinh lambda
    and F^-1(x) = x sinh lambda/lambda, not n and x: at lambda = 700 these
    differ by a factor 1e301."""
    for v in (5e-324, 1e-315, 1e-310, sys.float_info.min / lam / 2):
        with mpmath.workdps(50):
            ratio = mpmath.mpf(lam) / mpmath.sinh(mpmath.mpf(lam))
        want_f, want_inv = float(v * ratio), oracle_big_f_inverse(v, lam)
        for got_f, got_inv in ((q_number(v, lam), big_f_inverse(v, q_deform(lam))),
                               (q_number(np.array([v]), lam)[0],
                                big_f_inverse(np.array([v]), q_deform(lam))[0])):
            assert abs(got_f - want_f) <= 4e-16 * want_f + 2.0 ** -1073, v
            assert abs(got_inv - want_inv) <= 4e-16 * want_inv, v


_lambdas = st.sampled_from([s * v for v in INVERSE_LAMBDAS for s in (1.0, -1.0)])
_xs = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_xs, _lambdas)
def test_big_f_inverse_properties(x, lam):
    """F(F^{-1}(x)) = x, and F^{-1} is even in lambda."""
    if x >= saturation_edge(lam):
        return
    y = big_f_inverse(x, q_deform(lam))
    assert big_f_inverse(x, q_deform(-lam)) == y
    # F has condition number n lambda coth(n lambda) <= 709 here
    assert_allclose(big_f(y, q_deform(lam)), x, rtol=1e-12)


def ulps_apart(a: float, b: float) -> float:
    """|a - b| in units in the last place of the larger; 0 for two equal
    values, two infinities of one sign or two nans."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


# every switch of the q branch: n |lambda| below the normal range, |lambda|
# past 709, and saturation past n |lambda| = 709
SWITCH_LAMBDAS = (0.0, 5e-324, 1e-300, 1e-9, 0.1, 1.0, 3.0, 700.0, 708.9, 709.0,
                  709.1, 710.0, 745.5, 800.0, 1400.0)
_edge_factors = st.sampled_from([1.0, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 0.5, 2.0])


@st.composite
def spec_and_points(draw):
    """A spec of each kind, with arguments n and x of F and F^-1 on both
    sides of each of its switches (for a custom table: at and between nodes)."""
    kind = draw(st.sampled_from(["q", "identity", "custom"]))
    anywhere = st.floats(0.0, 1e308)
    if kind == "custom":
        steps = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
        nodes = np.cumsum([0.0, *steps])
        spec = custom([1.0, *np.sqrt(nodes[1:] / np.arange(1, len(nodes)))])
        ns = draw(st.lists(st.floats(0.0, len(nodes) - 1.0), max_size=20))
        xs = draw(st.lists(st.floats(0.0, spec.nodes[-1]), max_size=20))
        return spec, ns + list(range(len(nodes))), xs + list(spec.nodes)
    if kind == "identity":
        return identity(), draw(st.lists(anywhere, max_size=20)), draw(st.lists(anywhere))
    lam = draw(st.sampled_from(SWITCH_LAMBDAS) | st.floats(0.0, 2000.0))
    lam *= draw(st.sampled_from([1.0, -1.0]))
    a = abs(lam)
    anchors = [1.0] if a == 0 else [1.0, sys.float_info.min / a, 709.0 / a]
    ns = [v * draw(_edge_factors) for v in anchors] + draw(st.lists(anywhere, max_size=20))
    ns = [n for n in ns if math.isfinite(n)]
    edge = q_number(709.0 / a, a) if a else 1.0
    xs = [v * draw(_edge_factors) for v in (edge, sys.float_info.min, 1.0)]
    return q_deform(lam), ns + [0.0], xs + draw(st.lists(anywhere, max_size=20)) + [0.0]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec_and_points())
def test_array_and_scalar_agree_within_two_ulp(case):
    """numpy's sinh, exp and arcsinh are not libm's, so the array answers may
    round differently; they stay within 2 ulp of the scalar ones, on both
    sides of every switch, and saturate (raise) exactly where those do."""
    spec, ns, xs = case
    n = np.array(ns)
    pairs = [(f_of_n, n), (big_f, n)]
    if spec.kind == "q":
        pairs.append((lambda v, spec: q_number(v, spec.lam), n))
    inverted = []
    for x in xs:
        try:
            inverted.append((x, big_f_inverse(x, spec)))
        except SaturationError as exc:
            with pytest.raises(SaturationError) as info:
                big_f_inverse(np.array([1.0, x]), spec)
            assert info.value.largest_safe_n == exc.largest_safe_n
    pairs.append((big_f_inverse, np.array([x for x, _ in inverted])))
    for fn, arg in pairs:
        got = fn(arg, spec)
        assert got.shape == arg.shape
        for v, g in zip(arg.tolist(), got.tolist()):
            assert ulps_apart(fn(v, spec), g) <= 2.0, (fn.__name__, v, spec)


def test_q_number_overflow_returns_inf():
    assert q_number(800.0, 1.0) == math.inf


@pytest.mark.parametrize("lam", [0.0, -0.0, 5e-324, 0.1, 1.0, 800.0])
def test_infinite_n_gives_inf_on_both_paths(lam):
    """n = inf at lam = 0 makes n lam a nan, which used to reach sinh(nan)/sinh(0)
    (and x sinh(lam) in big_f_inverse, asinh(nan)/0); at lam != 0 f_of_n's
    sqrt(n_q/n) used to be inf/inf, a nan."""
    spec = q_deform(lam)
    fns = [lambda n: q_number(n, lam), lambda n: big_f(n, spec)]
    if lam == 0.0:  # elsewhere F^-1(inf) saturates
        fns.append(lambda x: big_f_inverse(x, spec))
    else:  # sqrt(n_q/n), inf/inf at n = inf
        fns.append(lambda n: f_of_n(n, spec))
    for fn in fns:
        assert fn(math.inf) == math.inf
        got = fn(np.array([math.inf, 2.0]))
        assert got[0] == math.inf and ulps_apart(got[1], fn(2.0)) <= 2.0
    if lam == 0.0:  # the identity deformation
        assert f_of_n(math.inf, spec) == 1.0
        assert f_of_n(np.array([math.inf, 0.0, 3.0]), spec).tolist() == [1.0, 1.0, 1.0]


def test_q_number_rejects_negative_n():
    with pytest.raises(ParameterError):
        q_number(-1.0, 0.5)


def test_lambda_over_sinh():
    assert_allclose(lambda_over_sinh(1.0), LAM_OVER_SINH_1, rtol=1e-15)
    assert lambda_over_sinh(0.0) == 1.0


# |lambda| on both sides of the sinh overflow (710.48) and of the switch
# at 709, up to where lam/sinh(lam) underflows to 0.
WIDE_LAMBDAS = (0.0, 5e-324, 1e-9, 0.5, 3.0, 40.0, 300.0, 700.0, 708.9, 709.0,
                709.1, 710.0, 710.5, 720.0, 744.0, 745.5, 760.0, 800.0)
# a few units of the subnormal spacing 2**-1074
SUBNORMAL_ATOL = 2.0 ** -1070


@pytest.mark.parametrize("lam", WIDE_LAMBDAS)
def test_lambda_over_sinh_matches_oracle_past_sinh_overflow(lam):
    with mpmath.workdps(40):
        want = 1.0 if lam == 0 else float(mpmath.mpf(lam) / mpmath.sinh(mpmath.mpf(lam)))
    for sign in (1.0, -1.0):
        got = lambda_over_sinh(sign * lam)
        assert abs(got - want) <= 4 * sys.float_info.epsilon * want + SUBNORMAL_ATOL, sign


@pytest.mark.parametrize("lam", WIDE_LAMBDAS)
def test_small_n_q_number_matches_oracle_past_sinh_overflow(lam):
    """n < 1 keeps n |lambda| finite where sinh(lambda) is not.  Rounding
    n*lambda moves the exponent by up to |lambda| eps, hence the tolerance."""
    rtol = (abs(lam) + 4.0) * sys.float_info.epsilon
    ns = [n for n in (1e-3, 0.1, 0.5, 0.9, 0.999) if n * lam <= 709.0]
    want = np.array([oracle_q_number(n, lam) if lam else n for n in ns])
    for sign in (1.0, -1.0):
        got = q_number(np.array(ns), sign * lam)
        assert np.all(np.abs(got - want) <= rtol * want + SUBNORMAL_ATOL), sign * lam
        for n, w in zip(ns, want.tolist()):
            got = q_number(n, sign * lam)
            assert abs(got - w) <= rtol * w + SUBNORMAL_ATOL, (n, sign * lam)


def test_f_of_n_frozen_value():
    assert_allclose(f_of_n(2.0, q_deform(1.0)), F_OF_2_LAM1, rtol=1e-15)


def test_f_of_n_zero_argument_convention():
    """f(0) is pinned to lam/sinh(lam); note this is the n -> 0 limit of
    f^2(n) = n_q/n, not of f itself, so f is deliberately not continuous
    at 0.  Coherent-state coefficients never see f(0): it cancels in the
    c_{n+1}/c_n ratios."""
    assert_allclose(f_of_n(0.0, q_deform(1.0)), LAM_OVER_SINH_1, rtol=1e-15)
    assert_allclose(f_of_n(1e-9, q_deform(1.0)) ** 2, LAM_OVER_SINH_1, rtol=1e-8)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_identity_spec_is_flat(n):
    assert f_of_n(float(n), identity()) == 1.0
    assert big_f(float(n), identity()) == float(n)


def test_big_f_is_n_f_squared():
    spec = q_deform(0.7)
    for n in (1.0, 2.0, 3.5, 8.0):
        f = f_of_n(n, spec)
        assert_allclose(big_f(n, spec), n * f * f, rtol=1e-14)


def test_big_f_equals_q_number():
    spec = q_deform(1.0)
    for n in range(1, 9):
        assert_allclose(big_f(float(n), spec), q_number(float(n), 1.0), rtol=1e-15)


@pytest.mark.parametrize("lam", [0.0, 0.2, 1.0, 2.5])
def test_big_f_inverse_roundtrip(lam):
    spec = q_deform(lam)
    for y in np.linspace(0.0, 12.0, 25):
        x = big_f(float(y), spec)
        assert abs(big_f_inverse(x, spec) - y) < 1e-11


def test_big_f_inverse_at_zero():
    assert big_f_inverse(0.0, q_deform(1.0)) == 0.0


def test_big_f_inverse_beyond_double_range():
    with pytest.raises(SaturationError) as exc_info:
        big_f_inverse(1e308, q_deform(1.0))
    assert exc_info.value.largest_safe_n > 0


def test_phi_frozen_value():
    assert_allclose(phi_of_z(1.0, q_deform(1.0)), PHI_OF_1_LAM1, rtol=1e-15)


def test_phi_is_increment_of_big_f():
    spec = q_deform(0.9)
    for z in (0.0, 1.0, 2.0, 4.5):
        assert_allclose(phi_of_z(z, spec),
                        big_f(z + 1.0, spec) - big_f(z, spec), rtol=1e-14)


def test_commutator_function_limit():
    assert commutator_function(3.0, 0.0) == 1.0
    # same increment as phi for the q spec
    assert_allclose(commutator_function(2.0, 0.8),
                    phi_of_z(2.0, q_deform(0.8)), rtol=1e-14)


def test_f_factorial_frozen_values():
    spec = q_deform(1.0)
    assert_allclose(f_factorial(3, spec, "f"), F_FACT_3_LAM1, rtol=1e-14)
    assert_allclose(f_factorial(3, spec, "q"), Q_FACT_3_LAM1, rtol=1e-14)


def test_f_factorial_conventions_related():
    """[n]!_q = n! * ([f(k)]!)^2 because each factor is k f(k)^2 = k_q."""
    spec = q_deform(0.6)
    for n in range(1, 8):
        ff = f_factorial(n, spec, "f")
        qq = f_factorial(n, spec, "q")
        assert_allclose(qq, math.factorial(n) * ff * ff, rtol=1e-13)


def test_f_factorial_empty_product():
    assert f_factorial(0, q_deform(1.0), "f") == 1.0
    assert f_factorial(0, q_deform(1.0), "q") == 1.0


def test_f_factorial_overflow_reports_largest_safe():
    with pytest.raises(SaturationError) as exc_info:
        f_factorial(60, q_deform(2.0), "q")
    assert 0 < exc_info.value.largest_safe_n < 60


def test_f_factorial_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        f_factorial(-1, q_deform(1.0))
    with pytest.raises(ParameterError):
        f_factorial(2, q_deform(1.0), convention="z")
    with pytest.raises(ParameterError):
        f_factorial(2, custom([1.0, 1.0, 1.0]), convention="q")


def test_custom_spec_interpolates():
    spec = custom([1.0, 1.0, 2.0])
    assert f_of_n(0.5, spec) == 1.0
    assert f_of_n(1.5, spec) == 1.5
    with pytest.raises(ParameterError):
        f_of_n(2.5, spec)


def test_custom_spec_validation():
    with pytest.raises(ParameterError):
        custom([])
    with pytest.raises(ParameterError):
        custom([1.0, -2.0])
    with pytest.raises(ParameterError):
        custom([1.0, 2.0, 0.1])  # F(2) = 2*0.01 < F(1) = 4, not invertible
    with pytest.raises(ParameterError):
        DeformationSpec("weird")


def test_custom_big_f_inverse_roundtrip():
    """The inverse returns the table's integers at its nodes and rises
    between them."""
    spec = custom([1.0, 1.1, 1.3, 1.4])
    for y in (0.0, 1.0, 2.0, 3.0):
        x = big_f(y, spec)
        assert abs(big_f_inverse(x, spec) - y) < 1e-12
    # monotone between nodes
    xs = np.linspace(0.0, big_f(3.0, spec), 40)
    ys = [big_f_inverse(float(x), spec) for x in xs]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    with pytest.raises(ParameterError):
        big_f_inverse(big_f(3.0, spec) + 1.0, spec)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=30),
       share=st.floats(1e-300, 1.0))
def test_custom_big_f_inverts_big_f_inverse(steps, share):
    """big_f and big_f_inverse use one F, the nodes joined linearly, so
    F(F^-1(x)) = x between nodes too.  With F(0) = 0 and node steps in
    [1, 2], F' y <= 2 F: rounding y = F^-1(x) to a double moves F by at
    most F eps, well inside 1e-15 relative."""
    nodes = np.cumsum([0.0, *steps])
    spec = custom([1.0, *np.sqrt(nodes[1:] / np.arange(1, len(nodes)))])
    x = share * spec.nodes[-1]
    assert abs(big_f(big_f_inverse(x, spec), spec) - x) <= 1e-15 * x


def test_custom_spec_keeps_its_f_nodes_out_of_equality():
    spec = custom([1.0, 1.1, 1.3])
    assert spec.nodes == (0.0, 1.1 * 1.1, 2 * 1.3 * 1.3)
    twin = custom([1.0, 1.1, 1.3])
    assert spec == twin and hash(spec) == hash(twin)
    assert "nodes" not in repr(spec)
    assert q_deform(0.5).nodes is None


def test_load_f_table_with_header_and_crlf():
    text = "n,f\r\n0,1.0\r\n2,1.2\r\n1,1.1\r\n"
    spec = load_f_table(io.StringIO(text))
    assert spec.table == (1.0, 1.1, 1.2)  # rows sorted by n


def test_load_f_table_from_path(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("0,1.0\n1,1.05\n", encoding="utf-8")
    spec = load_f_table(str(path))
    assert f_of_n(1.0, spec) == 1.05


def test_load_f_table_rejects_gaps_and_short_rows():
    with pytest.raises(ParameterError):
        load_f_table(io.StringIO("0,1.0\n2,1.2\n"))
    with pytest.raises(ParameterError):
        load_f_table(io.StringIO("0\n"))
    with pytest.raises(ParameterError):
        load_f_table(io.StringIO(""))


def test_load_f_table_errors_are_typed_and_name_the_line(tmp_path):
    with pytest.raises(ParameterError, match="line 3"):
        load_f_table(io.StringIO("n,f\n0,1.0\n1,zebra\n"))
    with pytest.raises(ParameterError, match="cannot read"):
        load_f_table(str(tmp_path / "absent.csv"))


def test_load_f_table_skips_blank_lines():
    spec = load_f_table(io.StringIO("\nn,f\n0,1.0\n\n1,1.1\n\n"))
    assert spec.table == (1.0, 1.1)
