"""Deformed-oscillator thermodynamics: spectra, partition sums with a
closed-form cutoff, specific heat, the occupation formula and its printed
small-lambda correction, convention identification, and the amplitude
blue shift.

Frozen constants were computed independently at 40-digit precision.
"""

import math
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlab import thermo
from qlab.errors import ParameterError, SaturationError

E1_SYM_LAM1 = 2.0430806348152438          # (1_q + 2_q)/2
Q2_LAM1 = 3.0861612696304876              # sinh 2 / sinh 1
BOSE_X1 = 0.5819767068693264              # 1/(e - 1)
C0_T1 = 0.9206735942077923                # e/(e - 1)^2
PLANCK_COEFF_X1 = -6.0065127966367601     # -(e^3 + 4e^2 + e)/(e - 1)^4
COSH01_MINUS_1 = 0.0050041680558035990
COSH1_MINUS_1 = 0.5430806348152438


def test_levels_undeformed():
    assert_allclose(thermo.energy_levels(4, 0.0, "sym"),
                    np.arange(5) + 0.5, atol=1e-12)
    assert_allclose(thermo.energy_levels(4, 0.0, "num"),
                    np.arange(5, dtype=float), atol=1e-12)


def test_levels_frozen_values():
    e_sym = thermo.energy_levels(2, 1.0, "sym")
    assert_allclose(e_sym[1], E1_SYM_LAM1, rtol=1e-14)
    e_num = thermo.energy_levels(2, 1.0, "num")
    assert_allclose(e_num[2], Q2_LAM1, rtol=1e-14)


def test_levels_strictly_increasing():
    for conv in thermo.CONVENTIONS:
        e = thermo.energy_levels(20, 0.8, conv)
        assert all(b > a for a, b in zip(e, e[1:]))


def test_levels_saturation():
    with pytest.raises(SaturationError) as exc_info:
        thermo.energy_levels(800, 1.0)
    assert 0 < exc_info.value.largest_safe_n < 800


def test_levels_validation():
    with pytest.raises(ParameterError):
        thermo.energy_levels(0, 1.0)
    with pytest.raises(ParameterError):
        thermo.energy_levels(4, 1.0, convention="both")


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_partition_undeformed_closed_form(t):
    beta = 1.0 / t
    z, cutoff = thermo.partition_function(t, 0.0, "sym")
    assert_allclose(z, math.exp(-0.5 * beta) / (1.0 - math.exp(-beta)), rtol=1e-12)
    assert cutoff == 0  # closed form, nothing summed
    z_num, _ = thermo.partition_function(t, 0.0, "num")
    assert_allclose(z_num, 1.0 / (1.0 - math.exp(-beta)), rtol=1e-12)


def test_partition_deformed_cutoff_is_modest():
    z, cutoff = thermo.partition_function(1.0, 1.0, "sym")
    assert z > 0
    assert cutoff <= 40  # exponential level growth truncates the sum fast


def test_partition_increases_with_temperature():
    temps = [0.5, 1.0, 2.0, 5.0, 20.0]
    zs = [thermo.partition_function(t, 0.5, "sym")[0] for t in temps]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_partition_validation():
    with pytest.raises(ParameterError):
        thermo.partition_function(0.0, 0.5)
    with pytest.raises(ParameterError):
        thermo.partition_function(-1.0, 0.5)


def test_log_partition_consistent_with_z():
    for t in (0.7, 3.0):
        z, _ = thermo.partition_function(t, 0.3, "num")
        assert_allclose(thermo.log_partition(t, 0.3, "num"), math.log(z), rtol=1e-12)


def test_log_partition_survives_extreme_temperatures():
    # beta -> 0 and beta huge, both conventions, no overflow
    assert math.isfinite(thermo.log_partition(1e6, 0.0, "sym"))
    assert math.isfinite(thermo.log_partition(1e-3, 0.5, "sym"))
    assert math.isfinite(thermo.log_partition(1e6, 0.3, "num"))


def test_mean_occupation_undeformed():
    assert_allclose(thermo.mean_occupation(1.0, 0.0), BOSE_X1, rtol=1e-12)
    # conventions agree at lam = 0: the ground-state offset cancels
    assert thermo.mean_occupation(1.0, 0.0, "sym") == thermo.mean_occupation(1.0, 0.0, "num")


def test_mean_occupation_increasing_in_t():
    temps = np.geomspace(0.2, 50.0, 12)
    for conv in thermo.CONVENTIONS:
        vals = [thermo.mean_occupation(float(t), 0.5, conv) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mean_occupation_cold_limit():
    assert thermo.mean_occupation(0.01, 0.5, "sym") < 1e-40


def test_deformation_suppresses_occupation():
    assert thermo.mean_occupation(1.0, 0.05, "sym") < BOSE_X1


def test_specific_heat_undeformed_closed_form():
    """At lam = 0 the module returns C = x^2 e^x/(e^x - 1)^2 exactly."""
    assert_allclose(thermo.specific_heat(1.0, 0.0), C0_T1, rtol=1e-10)
    assert abs(thermo.specific_heat(1e4, 0.0) - 1.0) < 1e-3
    assert thermo.specific_heat(0.02, 0.0) < 1e-18


def test_specific_heat_nonnegative_and_unimodal():
    temps = np.geomspace(0.05, 1e4, 25)
    c = [thermo.specific_heat(float(t), 0.5, "sym") for t in temps]
    assert min(c) >= -1e-6
    peak = int(np.argmax(c))
    rising = c[:peak + 1]
    falling = c[peak:]
    assert all(b >= a - 1e-9 for a, b in zip(rising, rising[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(falling, falling[1:]))


def test_specific_heat_slow_product_law():
    """C(T) ln T stays within a narrow band while C itself falls strictly
    and, at T = 1e6, meets C_law = 1/L - 1/L^2 with L = ln(4T sinh(lam/2))
    - gamma.  The fall over four decades is not a fixed 3x: it is 3.33x at
    lam = 0.1 and 2.85x at lam = 0.3."""
    temps = np.geomspace(1e2, 1e6, 9)
    for lam in (0.1, 0.3):
        c = np.array([thermo.specific_heat(float(t), lam, "sym") for t in temps])
        product = c * np.log(temps)
        variation = (product.max() - product.min()) / product.max()
        assert variation < 0.25
        assert np.all(np.diff(c) < 0.0)
        big_l = np.log(4.0 * temps[-1] * np.sinh(lam / 2.0)) - np.euler_gamma
        law = 1.0 / big_l - 1.0 / big_l ** 2
        assert abs(c[-1] / law - 1.0) <= 1e-4, lam


@pytest.mark.parametrize("convention", ["sym", "num"])
def test_specific_heat_law_matches_at_high_t(convention):
    for lam in (0.1, 0.3, -0.3, 0.5):
        law = thermo.specific_heat_law(1e6, lam, convention)
        assert_allclose(thermo.specific_heat(1e6, lam, convention), law, rtol=1e-4)
    # the law is asymptotic: it is still off by ~8% at T = 1e2, lam = 0.1
    assert abs(thermo.specific_heat(1e2, 0.1, convention)
               / thermo.specific_heat_law(1e2, 0.1, convention) - 1.0) > 0.05


def test_specific_heat_law_validation():
    with pytest.raises(ParameterError):
        thermo.specific_heat_law(1e6, 0.0)
    with pytest.raises(ParameterError):
        thermo.specific_heat_law(0.0, 0.1)
    with pytest.raises(ParameterError):
        thermo.specific_heat_law(1e6, 0.1, "bogus")
    with pytest.raises(ParameterError, match="L > 1"):
        thermo.specific_heat_law(2.0, 0.1)  # L < 1: below the law's range
    assert thermo.specific_heat_law(1e6, 800.0) > 0.0  # sinh(800) overflows


def test_thermo_table_matches_scalars():
    temps = [0.5, 1.0, 4.0]
    table = thermo.thermo_table(temps, 0.4, "sym")
    assert table.temperatures == temps
    for i, t in enumerate(temps):
        assert_allclose(table.z[i], thermo.partition_function(t, 0.4, "sym")[0],
                        rtol=1e-13)
        assert_allclose(table.mean_n[i], thermo.mean_occupation(t, 0.4, "sym"),
                        rtol=1e-13)
        assert_allclose(table.c[i], thermo.specific_heat(t, 0.4, "sym"),
                        rtol=1e-13)


def test_bose_einstein_frozen_value():
    assert_allclose(thermo.bose_einstein(1.0), BOSE_X1, rtol=1e-14)


def test_planck_correction_frozen_value():
    assert_allclose(thermo.planck_correction_coefficient(1.0),
                    PLANCK_COEFF_X1, rtol=1e-13)


def test_planck_correction_large_x_stable():
    """The overflow-free form must survive x far beyond exp range and decay
    like -x e^{-x}."""
    val = thermo.planck_correction_coefficient(800.0)
    assert math.isfinite(val) and val <= 0.0
    x = 30.0
    assert_allclose(thermo.planck_correction_coefficient(x),
                    -x * math.exp(-x), rtol=1e-10)


def test_planck_correction_small_x_stable():
    """At x -> 0 the coefficient runs like -6/x^3 up to -inf instead of
    dividing by an underflowed (1 - e^-x)^4, so a table at T = 1e300 works."""
    assert_allclose(thermo.planck_correction_coefficient(1e-100), -6e300, rtol=1e-12)
    assert thermo.planck_correction_coefficient(1e-200) == -math.inf
    table = thermo.thermo_table([1e100, 1e300], 0.1)
    assert_allclose(table.planck_approx[0], 1e100 - 6e298, rtol=1e-12)
    assert table.planck_approx[1] == -math.inf
    assert all(math.isfinite(c) for c in table.c)


def test_deformed_planck_approx():
    assert thermo.deformed_planck_approx(1.0, 0.0) == thermo.bose_einstein(1.0)
    got = thermo.deformed_planck_approx(1.0, 0.1)
    assert_allclose(got, BOSE_X1 + 0.01 * PLANCK_COEFF_X1, rtol=1e-12)


def test_deformed_planck_approx_is_the_bose_value_at_lambda_zero():
    """No correction is added at lam = 0, so past T = 3e102, where the
    coefficient overflows, it reads the Bose value and not 0 (-inf) = nan."""
    for t in (1.0, 1e102, 1e103, 1e200, 1e300):
        assert thermo.deformed_planck_approx(t, 0.0) == thermo.bose_einstein(1.0 / t)


def mp_planck(t, lam):
    with mpmath.workdps(40):
        x, a = 1 / mpmath.mpf(t), mpmath.mpf(lam)
        em, d = mpmath.exp(-x), -mpmath.expm1(-x)
        return em / d - a * a * x * (em + 4 * em ** 2 + em ** 3) / d ** 4


@pytest.mark.parametrize("t, lam", [(1e150, 1e-100), (1e300, 1e-150), (1e300, 5e-324),
                                    (1e200, 1e-200), (0.01, 1.5e154), (0.1, 1e154),
                                    (1e-3, 1e200), (1.0, 1e154), (1e102, 0.3), (1e300, 0.3)])
def test_deformed_planck_approx_overflows_only_where_its_value_does(t, lam):
    """lam^2 times the coefficient is -inf only where the 40-digit value is
    past the double range, though lam^2 or the coefficient overflows alone."""
    want = mp_planck(t, lam)
    got = thermo.deformed_planck_approx(t, lam)
    if abs(want) > sys.float_info.max:
        assert got == -math.inf
    else:
        assert got == pytest.approx(float(want), rel=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-300.0, 300.0), st.floats(-330.0, 160.0), st.sampled_from([1.0, -1.0]))
def test_deformed_planck_approx_keeps_its_bits_where_the_plain_product_is_finite(
        log_t, log_lam, sign):
    t, lam = 10.0 ** log_t, sign * 10.0 ** log_lam
    x = 1.0 / t
    plain = thermo.bose_einstein(x) + lam * lam * thermo.planck_correction_coefficient(x)
    got = thermo.deformed_planck_approx(t, lam)
    if math.isfinite(plain):
        assert struct.pack("<d", got) == struct.pack("<d", plain)
    else:
        assert got == -math.inf or got == pytest.approx(float(mp_planck(t, lam)), rel=1e-14)


def test_planck_coefficient_check_identifies_convention():
    report = thermo.planck_coefficient_check((0.04, 0.02, 0.01), x=1.0)
    assert report.matched_convention == "sym"
    assert report.matched_scale == 0.5  # snapped to the exact half-integer
    assert report.converged()
    assert all(12.0 <= r <= 20.0 for r in report.residual_ratios)
    # the raw coefficients approach scale * printed from one side
    target = 0.5 * report.printed_coefficient
    errs = [abs(r - target) for r in report.raw_coefficients]
    assert errs[0] > errs[1] > errs[2]


def test_planck_coefficient_check_converges_at_x2():
    report = thermo.planck_coefficient_check((0.04, 0.02, 0.01), x=2.0)
    assert report.converged()
    assert report.matched_scale == 0.5


def test_planck_coefficient_check_grid_validation():
    with pytest.raises(ParameterError):
        thermo.planck_coefficient_check((0.04,), x=1.0)
    with pytest.raises(ParameterError):
        thermo.planck_coefficient_check((0.2, 0.1), x=1.0)
    with pytest.raises(ParameterError):
        thermo.planck_coefficient_check((0.04, 0.0), x=1.0)


def test_blue_shift_frozen_values():
    exact, approx = thermo.blue_shift(100.0, 0.001)
    assert_allclose(exact, COSH01_MINUS_1, rtol=1e-14)
    assert_allclose(approx, 0.005, rtol=1e-14)
    exact, approx = thermo.blue_shift(100.0, 0.01)
    assert_allclose(exact, COSH1_MINUS_1, rtol=1e-14)
    assert_allclose(approx, 0.5, rtol=1e-14)


def test_blue_shift_ratio_tends_to_one():
    ratios = []
    for lam in (1e-3, 1e-4, 1e-5):
        exact, approx = thermo.blue_shift(10.0, lam)
        ratios.append(exact / approx)
    assert all(abs(r - 1.0) < 1e-3 for r in ratios)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_blue_shift_at_zero():
    assert thermo.blue_shift(0.0, 0.5) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        thermo.blue_shift(-1.0, 0.5)


@pytest.mark.parametrize("lam", [1.0, -1.0, 0.1, 3.7, 800.0])
def test_blue_shift_saturates_where_cosh_minus_one_overflows(lam):
    """cosh(lam n) - 1 = 2 sinh^2(lam n/2) is finite up to |lam| n = 710.476,
    past the old 709: the last integer n before it gives the 40-digit value
    (rounding lam n moves it by |lam| n eps), and the next raises naming it."""
    import mpmath

    last = math.floor(thermo._BLUE_MAX_ARG / abs(lam))
    with mpmath.workdps(40):
        want = float(mpmath.cosh(mpmath.mpf(lam) * last) - 1)
    exact, _ = thermo.blue_shift(float(last), lam)
    assert abs(exact - want) <= (abs(lam) * last + 4.0) * math.ulp(want)
    with pytest.raises(SaturationError) as info:
        thermo.blue_shift(last + 1.0, lam)
    assert info.value.largest_safe_n == last
