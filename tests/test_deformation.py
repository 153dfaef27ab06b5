"""Scalar deformation calculus: q-numbers, f(n), F(n) and its inverse,
increments, deformed factorials, and the CSV table loader.

Reference values were computed independently with 40-digit arithmetic and
frozen here as literals; q_number and F^{-1} at small lambda are also
checked against a live 40-digit mpmath oracle.
"""

import io
import math

import mpmath
import numpy as np
import pytest
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
    """Just below and above |lambda| = 1e-6 (thermo's closed-form switch),
    q_number is continuous and matches the sinh ratio for n*lambda up to 700."""
    n = 5.0
    below = q_number(n, 9.9e-7)
    above = q_number(n, 1.01e-6)
    assert abs(below - above) < 1e-12 * n
    for x in np.geomspace(1e-3, 700.0, 15):
        for lam in (9.9e-7, 1.01e-6):
            n = float(x) / lam
            assert_allclose(q_number(n, lam), oracle_q_number(n, lam), rtol=1e-12,
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
    for n in ns:
        for sign in (1.0, -1.0):
            assert_allclose(q_number(n, sign * lam), oracle_q_number(n, lam),
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


def test_q_number_overflow_returns_inf():
    assert q_number(800.0, 1.0) == math.inf


def test_q_number_rejects_negative_n():
    with pytest.raises(ParameterError):
        q_number(-1.0, 0.5)


def test_lambda_over_sinh():
    assert_allclose(lambda_over_sinh(1.0), LAM_OVER_SINH_1, rtol=1e-15)
    assert lambda_over_sinh(0.0) == 1.0


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
    """Node-exact only: between integers big_f interpolates f and squares,
    while the inverse works on the piecewise-linear extension of F itself,
    so the two continuous extensions agree just at the table nodes."""
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
