"""Classical nonlinear oscillator: amplitude map, deformed bracket,
implicit momentum, closed-form orbits, and RK4 cross-validation.

The closed-form track is checked against a four-exponential evaluation
built inside this file from nothing but math/cmath and a plain bisection,
so the production code and the oracle share no path.
"""

import cmath
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import classical, experiments
from qlab.deformation import lambda_over_sinh, q_number
from qlab.errors import _BLOCK, WORK_BUDGET, ParameterError, SaturationError, SolverError

import rk4_reference

OMEGA_Q_1_LAM1 = 1.3130352854993313           # cosh(1)/sinh(1)
MOMENTUM_Q1_QD1_LAM01 = 0.9967124970491392    # root of p cosh(...) = sinh(.1)/.1
APPROX_MOMENTUM_Q1_QD1_LAM01 = 0.9991666666666667
EXACT_ALPHA_1_LAM1_T1 = 0.2549162020825684 - 0.9669631481684290j


def reference_q(q0, qdot0, lam, t):
    """Independent route to q(t): solve the implicit momentum by bisection
    on [-(2|qdot0|+1), 2|qdot0|+1] down to adjacent doubles, build Omega
    from the explicit cosh form, and sum the four exponentials
    (e^{+iOt}, e^{-iOt}) x (q0, qdot0/O) directly."""
    if lam == 0.0:
        p0 = qdot0
    else:
        c = math.sinh(lam) / lam * qdot0

        def resid(p):
            return p * math.cosh(0.5 * lam * (q0 * q0 + p * p)) - c

        lo, hi = -(2.0 * abs(qdot0) + 1.0), 2.0 * abs(qdot0) + 1.0
        while lo < 0.5 * (lo + hi) < hi:
            if resid(0.5 * (lo + hi)) < 0.0:
                lo = 0.5 * (lo + hi)
            else:
                hi = 0.5 * (lo + hi)
        p0 = lo
    intensity = 0.5 * (q0 * q0 + p0 * p0)
    if lam == 0.0:
        omega = 1.0
    else:
        omega = lam / math.sinh(lam) * math.cosh(lam * intensity)
    plus = 0.5 * (q0 - 1j * qdot0 / omega) * cmath.exp(1j * omega * t)
    minus = 0.5 * (q0 + 1j * qdot0 / omega) * cmath.exp(-1j * omega * t)
    return (plus + minus).real


def closed_form_q(q0, qdot0, lam, t):
    """q(t) = sqrt(2) Re exact_alpha((q0 + i p0)/sqrt 2), p0 from the implicit
    momentum relation: the resummed form of the four-exponential solution."""
    p0 = classical.momentum_from_velocity(q0, qdot0, lam)
    return math.sqrt(2.0) * np.real(classical.exact_alpha(complex(q0, p0) / math.sqrt(2.0),
                                                          lam, t))


@pytest.mark.parametrize("q0,qdot0,lam", [
    (1.0, 0.0, 0.5),
    (1.0, 0.5, 0.7),
    (0.3, -1.2, 1.0),
    (2.0, 1.0, 0.2),
    (1.0, 1.0, 0.0),
])
def test_exact_q_matches_four_exponential_form(q0, qdot0, lam):
    for t in (0.0, 0.7, 3.2, 10.0):
        assert abs(closed_form_q(q0, qdot0, lam, t) - reference_q(q0, qdot0, lam, t)) < 1e-12


def test_exact_q_vectorized():
    t = np.linspace(0.0, 5.0, 7)
    out = closed_form_q(1.0, 0.5, 0.7, t)
    assert out.shape == t.shape
    assert_allclose(out[3], closed_form_q(1.0, 0.5, 0.7, float(t[3])), rtol=1e-15)


def test_omega_q_frozen_value():
    assert_allclose(classical.omega_q(1.0, 1.0), OMEGA_Q_1_LAM1, rtol=1e-15)
    assert classical.omega_q(0.7, 0.0) == 1.0
    with pytest.raises(ParameterError):
        classical.omega_q(-0.1, 1.0)


def omega_edge(lam, margin=1.0):
    """x*/(margin |lam|), x* = acosh(DBL_MAX sinh|lam|/|lam|): past margin I =
    x*/|lam|, omega_q = (lam/sinh lam) cosh(lam I) overflows.  40 digits."""
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(lam))
        return float(mpmath.acosh(sys.float_info.max * mpmath.sinh(a) / a) / a / margin)


@pytest.mark.parametrize("lam", [2.0, -2.0])
def test_omega_q_saturates_where_cosh_overflows(lam):
    """The value overflows, at I = 355.536 (cosh itself at 355.238), not
    where |lam| I passes 709; the error names the last finite intensity."""
    with pytest.raises(SaturationError) as exc_info:
        classical.omega_q(355.6, lam)
    edge = exc_info.value.largest_safe_n
    assert abs(edge - omega_edge(lam)) <= math.ulp(edge)
    assert classical.omega_q(edge, lam) > 1.79e308
    with pytest.raises(SaturationError, match=f"largest safe intensity {edge!r}"):
        classical.omega_q(math.nextafter(edge, math.inf), lam)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_a_non_finite_lambda_is_a_parameter_error(lam):
    """omega_q, deform_amplitude and RK4 share one check, which names lambda
    before any saturation bound (that bound would read nan)."""
    for call in (lambda: classical.omega_q(1.0, lam),
                 lambda: classical.deform_amplitude(1.0 + 0.5j, lam),
                 lambda: classical._rk4(1.0, 0.0, lam, 1e-3, 10)):
        with pytest.raises(ParameterError, match="lambda must be finite"):
            call()


def test_rk4_checks_the_conserved_intensity_with_a_margin():
    """The stages overshoot I, so RK4 stops where omega_q(2 I) overflows."""
    with pytest.raises(SaturationError) as exc_info:
        classical.integrate_eom(classical.ClassicalState(19.0, 0.0, 2.0), 1e-3, 1e-4)
    edge = exc_info.value.largest_safe_n  # I = 180.5 > 177.768
    assert abs(edge - omega_edge(2.0, 2.0)) <= math.ulp(edge)


def test_momentum_frozen_value():
    p = classical.momentum_from_velocity(1.0, 1.0, 0.1)
    # the solver stops at |dp| <= 1e-12; allow for that, not for eps
    assert abs(p - MOMENTUM_Q1_QD1_LAM01) < 1e-11


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
def test_momentum_satisfies_implicit_relation(lam):
    for q, qdot in [(0.0, 1.0), (1.0, 1.0), (0.5, -0.8), (1.5, 0.2)]:
        p = classical.momentum_from_velocity(q, qdot, lam)
        lhs = p * math.cosh(0.5 * lam * (q * q + p * p))
        assert abs(lhs - math.sinh(lam) / lam * qdot) < 1e-11


def test_momentum_at_tiny_lambda_matches_mpmath():
    """At q = 1e3 the implicit relation moves p by 9% from qdot even at
    lambda = 9e-7, so only lambda = 0 may return qdot unchanged."""
    q, qdot = 1e3, 1.0
    for lam in (9e-7, 1.1e-6):
        with mpmath.workdps(40):
            c = mpmath.sinh(mpmath.mpf(lam)) / lam * qdot
            expected = float(mpmath.findroot(
                lambda p: p * mpmath.cosh(lam / 2 * (q * q + p * p)) - c, 0.9))
        assert_allclose(classical.momentum_from_velocity(q, qdot, lam), expected,
                        rtol=1e-12)


def oracle_momentum(q, qdot, lam, guess):
    """The root of p cosh((lam/2)(q^2 + p^2)) = (sinh lam/lam) qdot > 0, at
    50 digits; solved in logs, since the two sides reach 1e300."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        log_c = mpmath.log(mpmath.sinh(lam) / lam * qdot)
        return float(mpmath.findroot(
            lambda p: mpmath.log(p) + mpmath.log(mpmath.cosh(lam / 2 * (q * q + p * p)))
            - log_c, guess))


@pytest.mark.parametrize("q,qdot,lam,guess", [
    (1.0, 1e6, 1.0, 5.0),      # cosh of the first iterate overflowed
    (1.0, 1e300, 0.5, 52.0),   # the old bracket search escaped as RuntimeError
])
def test_momentum_at_huge_velocity_matches_mpmath(q, qdot, lam, guess):
    expected = oracle_momentum(q, qdot, lam, guess)
    assert_allclose(classical.momentum_from_velocity(q, qdot, lam), expected, rtol=1e-12)
    assert_allclose(classical.momentum_from_velocity(q, -qdot, lam), -expected, rtol=1e-12)


def oracle_momentum_in_logs(q, qdot, lam):
    """oracle_momentum for u = ln p, by bisection on [-800, 10], which reaches
    roots far below 1 (down to the subnormals)."""
    with mpmath.workdps(60):
        lam = abs(mpmath.mpf(lam))
        log_c = mpmath.log(mpmath.sinh(lam) / lam * abs(qdot))
        lo, hi = mpmath.mpf(-800), mpmath.mpf(10)
        for _ in range(240):
            u = (lo + hi) / 2
            g = u + mpmath.log(mpmath.cosh(lam / 2 * (q * q + mpmath.exp(2 * u)))) - log_c
            lo, hi = (lo, u) if g > 0 else (u, hi)
        return float(mpmath.exp(lo))


def rtol_past_overflow(lam, p=0.0):
    """(|lambda|/(1 + |lambda| p^2) + 4) eps: the log residual's terms are of
    size |lambda| and carry |lambda| eps of rounding, and its slope in ln p
    is 1 + |lambda| p^2.  So a root p far below 1, which carries
    e^{-|lambda|}, is good to about |lambda| eps, and one with
    |lambda| p^2 >> 1 to about eps/p^2."""
    return (abs(lam) / (1.0 + abs(lam) * p * p) + 4.0) * sys.float_info.epsilon


MOMENTUM_PAST_OVERFLOW = [(0.1, 0.1), (0.0, 1.0), (1.0, 1.0), (0.5, 1e-3),
                          (0.01, 1e300), (1.2, 5e-324), (0.3, 1e-300)]
LAMBDA_PAST_OVERFLOW = [709.5, 745.5, 800.0, 1000.0, 1e4, 1e50, 1e154, 1e300]


@pytest.mark.parametrize("lam", LAMBDA_PAST_OVERFLOW)
@pytest.mark.parametrize("q,qdot", MOMENTUM_PAST_OVERFLOW)
def test_momentum_past_sinh_overflow_matches_mpmath(q, qdot, lam):
    """(sinh lambda/lambda) qdot overflows past |lambda| = 709, so the root is
    taken in logs.  Measured within 1.1 eps where p is of order 1, up to
    lambda = 1e300, and within 690 eps where it is far below 1 and carries
    e^{-|lambda|} (q = 1.2 at 709.5, against a bound of 714 eps)."""
    expected = oracle_momentum_in_logs(q, qdot, lam)
    for sign in (1.0, -1.0):
        got = classical.momentum_from_velocity(q, sign * qdot, sign * lam)
        assert abs(got - sign * expected) <= rtol_past_overflow(lam, expected) * expected, sign


@pytest.mark.parametrize("q,qdot", MOMENTUM_PAST_OVERFLOW)
def test_momentum_at_the_largest_lambda_matches_mpmath_and_past_it_is_refused(q, qdot):
    """The logs of _momentum_in_logs hold up to |lambda| = 8e307; past about
    9e307 their 2 ln c overflows (the root at q = qdot = 0.1, lambda =
    1.7e308 is 1.41).  Past 8e307 a ParameterError names the bound."""
    expected = oracle_momentum_in_logs(q, qdot, 8e307)
    for sign in (1.0, -1.0):
        got = classical.momentum_from_velocity(q, sign * qdot, sign * 8e307)
        assert abs(got - sign * expected) <= rtol_past_overflow(8e307, expected) * expected
        for lam in (math.nextafter(8e307, math.inf), 1.7e308):
            with pytest.raises(ParameterError, match="<= 8e[+]307"):
                classical.momentum_from_velocity(q, qdot, sign * lam)


def test_momentum_past_sinh_overflow_takes_a_few_residuals(monkeypatch):
    """The closed-form bracket of y = lambda p^2 between Wright omegas is so
    narrow that no root past |lambda| = 709 takes more than 12 residual
    calls; bisecting up from u = -|lambda| took 1005 at lambda = 1e300."""
    calls, newton_bisect = [], classical._newton_bisect

    def counting(fdf, lo, hi):
        def counted(x):
            calls.append(x)
            return fdf(x)
        return newton_bisect(counted, lo, hi)

    monkeypatch.setattr(classical, "_newton_bisect", counting)
    for lam in LAMBDA_PAST_OVERFLOW + [1e6, 1e10, 1e100, 1e200]:
        for q, qdot in MOMENTUM_PAST_OVERFLOW + [(1.41, 1.0), (1.4142, 1e-3), (2.0, 1.0)]:
            calls.clear()
            classical.momentum_from_velocity(q, qdot, lam)
            assert len(calls) <= 12, (q, qdot, lam, len(calls))


@pytest.mark.parametrize("z", [1.0, 1.0 + 2.0 ** -52, 1.5, 2.0, 10.0, 1e3, 1e10, 1e100, 1e300])
def test_wright_omega_matches_mpmath(z):
    with mpmath.workdps(40):
        expected = mpmath.lambertw(mpmath.exp(mpmath.mpf(z)))
    assert abs(classical._wright_omega(z) - expected) <= 2.0 * math.ulp(float(expected))


@pytest.mark.parametrize("q", [0.52, 0.56, 0.57, 1.2])
def test_momentum_in_logs_where_the_bracket_is_one_point(q):
    """At qdot = 5e-324 the root u = ln p is so far below 0 that both ends
    of its bracket round to one double: that point is the root, not an
    unbracketed interval (q = 0.52 raised a SolverError before)."""
    expected = oracle_momentum_in_logs(q, 5e-324, 709.5)
    got = classical.momentum_from_velocity(q, 5e-324, 709.5)
    assert abs(got - expected) <= rtol_past_overflow(709.5) * expected


def test_momentum_past_sinh_overflow_underflows_to_zero_and_rejects_inf():
    assert classical.momentum_from_velocity(2.0, 3.0, 800.0) == 0.0
    assert classical.momentum_from_velocity(2.0, 3.0, 709.5) == pytest.approx(
        oracle_momentum_in_logs(2.0, 3.0, 709.5), rel=rtol_past_overflow(709.5))
    for qdot in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            classical.momentum_from_velocity(0.1, qdot, 800.0)


def test_momentum_underflowing_root_is_zero():
    """At q = 40, lambda = 1 the root is about 8.6e-348, below every double."""
    assert classical.momentum_from_velocity(40.0, 1.0, 1.0) == 0.0


def test_momentum_rejects_a_velocity_beyond_double_range():
    with pytest.raises(ParameterError):
        classical.momentum_from_velocity(1.0, 1.7e308, 1.0)


def test_newton_bisect_returns_endpoint_roots():
    def fdf(x):
        return x - 2.0, 1.0
    assert classical._newton_bisect(fdf, 0.0, 2.0) == 2.0
    assert classical._newton_bisect(fdf, 2.0, 5.0) == 2.0


def test_newton_bisect_rejects_an_unbracketed_interval():
    with pytest.raises(SolverError) as exc_info:
        classical._newton_bisect(lambda x: (x * x + 1.0, 2.0 * x), 0.0, 1.0)
    assert exc_info.value.residual == 1.0


@pytest.mark.parametrize("slope", [0.0, math.inf, math.nan])
def test_newton_bisect_falls_back_to_bisection(slope):
    """With no usable derivative every step bisects, and the root is still
    found to the stopping tolerance; an infinite residual counts as positive."""
    calls = []

    def fdf(x):
        calls.append(x)
        return (math.inf if x > 0.9 else x - 1.0 / 3.0), slope

    root = classical._newton_bisect(fdf, 0.0, 1.0)
    assert abs(root - 1.0 / 3.0) <= 8.0 * 2.0 ** -52 / 3.0
    assert 50 <= len(calls) <= 60


def test_newton_bisect_takes_newton_steps():
    calls = []

    def fdf(x):
        calls.append(x)
        return x * x - 2.0, 2.0 * x

    assert_allclose(classical._newton_bisect(fdf, 0.0, 2.0), math.sqrt(2.0), rtol=1e-15)
    assert len(calls) <= 10


def test_momentum_trivial_cases():
    assert classical.momentum_from_velocity(1.0, 0.0, 1.0) == 0.0
    assert classical.momentum_from_velocity(0.3, 0.9, 0.0) == 0.9


def test_approx_momentum_frozen_value():
    assert_allclose(classical.approx_momentum(1.0, 1.0, 0.1),
                    APPROX_MOMENTUM_Q1_QD1_LAM01, rtol=1e-15)


def test_momentum_expansion_error_scales_as_lam4():
    """Halving lambda must shrink the expansion error by ~2^4."""
    worst_ratio_lo, worst_ratio_hi = math.inf, 0.0
    for i in range(8):
        theta = (2 * i + 1) * math.pi / 16.0
        q, qdot = math.cos(theta), math.sin(theta)
        errs = []
        for lam in (0.2, 0.1):
            exact = classical.momentum_from_velocity(q, qdot, lam)
            errs.append(abs(exact - classical.approx_momentum(q, qdot, lam)))
        ratio = errs[0] / errs[1]
        worst_ratio_lo = min(worst_ratio_lo, ratio)
        worst_ratio_hi = max(worst_ratio_hi, ratio)
    assert 12.0 <= worst_ratio_lo and worst_ratio_hi <= 20.0, \
        f"ratio range [{worst_ratio_lo}, {worst_ratio_hi}]"


def test_deform_amplitude_intensity_identity():
    """|alpha_q|^2 = sinh(lam I)/sinh(lam) = I_q exactly."""
    for lam in (0.3, 1.0):
        for alpha in (0.5 + 0.0j, 1.0 + 0.5j, 0.2 - 1.1j):
            aq = classical.deform_amplitude(alpha, lam)
            assert_allclose(abs(aq) ** 2, q_number(abs(alpha) ** 2, lam), rtol=1e-13)
    assert classical.deform_amplitude(0j, 1.0) == 0j


@pytest.mark.parametrize("lam", [709.5, 800.0, 1400.0])
def test_deform_amplitude_past_sinh_overflow_matches_mpmath(lam):
    """sinh(lam I)/(I sinh lam) underflows long before its square root does.
    Measured within 252 eps (at lambda = 1400, where the result carries
    e^{-700})."""
    for alpha in (0.1 + 0j, 0.3 + 0.4j, 1e-5j, 0.5 - 0.5j):
        with mpmath.workdps(50):
            i = abs(mpmath.mpc(alpha)) ** 2
            big = mpmath.mpf(lam)
            want = complex(mpmath.sqrt(mpmath.sinh(big * i) / (i * mpmath.sinh(big)))
                           * alpha)
        for sign in (1.0, -1.0):
            got = classical.deform_amplitude(alpha, sign * lam)
            assert abs(got - want) <= rtol_past_overflow(lam) * abs(want), (alpha, sign)


def test_deform_amplitude_saturates_with_omega_q():
    """deform_amplitude raises where omega_q overflows, naming the same last
    finite intensity: 710.637 at lambda = 1, 1.87887 at 800."""
    for alpha, lam in ((30.0 + 0j, 1.0), (1.4 + 0j, 800.0)):
        with pytest.raises(SaturationError) as exc_info:
            classical.deform_amplitude(alpha, lam)
        edge = exc_info.value.largest_safe_n
        assert abs(edge - omega_edge(lam)) <= math.ulp(edge)
        with pytest.raises(SaturationError) as exc_info:
            classical.omega_q(abs(alpha) ** 2, lam)
        assert exc_info.value.largest_safe_n == edge
    # where the old argument bound refused: I = 0.9025, omega_q = 800 e^-78
    assert classical.deform_amplitude(0.95 + 0j, 800.0).real > 0.0


def test_amplitude_map_commutes_with_time_evolution_past_sinh_overflow():
    """The hypot form of the deformed frequency keeps the two exact
    propagators in step where sinh(lambda) overflows."""
    lam, t = 710.0, 3.0
    for alpha0 in (0.5 + 0j, 0.6 + 0.6j):
        via_plain = classical.deform_amplitude(classical.exact_alpha(alpha0, lam, t), lam)
        via_deformed = classical.exact_alpha_deformed(
            classical.deform_amplitude(alpha0, lam), lam, t)
        assert abs(via_plain - via_deformed) <= 1e-12 * abs(via_plain)
        assert abs(via_plain) > 0.0


# a geometric grid, and the old switches: sinh^2 lam overflows near 355 and
# sinh lam at 709
BRACKET_LAMBDAS = sorted(np.geomspace(1e-6, 800.0, 24).tolist() + [355.0, 708.9, 709.1])


@pytest.mark.parametrize("lam", BRACKET_LAMBDAS)
def test_bracket_frequency_matches_mpmath(lam):
    """_bracket_frequency is hypot(lam/sinh lam, aq2 lam) everywhere: within
    3 ulp of (lam/sinh lam) sqrt(1 + aq2^2 sinh^2 lam) in 40 digits, for
    both signs of lam and aq2 from 1e-6 to 1e6 (measured: 2.1 ulp)."""
    with mpmath.workdps(40):
        for aq2 in np.geomspace(1e-6, 1e6, 25).tolist():
            for signed in (lam, -lam):
                big = mpmath.mpf(signed)
                want = big / mpmath.sinh(big) * mpmath.sqrt(1 + (aq2 * mpmath.sinh(big)) ** 2)
                got = classical._bracket_frequency(signed, aq2)
                assert float(abs(got - want)) <= 3 * math.ulp(float(want)), (signed, aq2)


@pytest.mark.parametrize("alpha,lam", [(0.99, 700.0), (0.99, 708.9), (0.99, 709.1),
                                       (0.99, 720.0), (20.0, 1.0)])
def test_poisson_bracket_where_sinh_squared_overflows(alpha, lam):
    """|alpha_q|^4 sinh^2 lam = sinh^2(lam I) overflows once lam I passes
    about 355, with sinh lam itself from 709 on; the closed form, taken as
    hypot(lam/sinh lam, |alpha_q|^2 lam), stays finite, and the finite
    difference still meets it (to 5e-8 relative at h = 1e-6: the bracket
    has curvature ~ (lam q/2)^2)."""
    residual = classical.poisson_bracket_check(alpha + 0j, lam, h=1e-6)
    aq = abs(classical.deform_amplitude(alpha + 0j, lam))
    scale = aq * aq * lam  # |target|: lam/sinh lam is far smaller here
    assert residual <= 1e-7 * scale, residual / scale


def test_exact_alpha_frozen_value():
    a = classical.exact_alpha(1.0 + 0j, 1.0, 1.0)
    assert abs(a - EXACT_ALPHA_1_LAM1_T1) < 1e-15


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_amplitude_map_commutes_with_time_evolution(t):
    """Deforming then evolving equals evolving then deforming: the deformed
    frequency sqrt(1 + |alpha_q|^4 sinh^2 lam) is cosh(lam I) in disguise."""
    alpha0, lam = 0.8 + 0j, 0.7
    via_plain = classical.deform_amplitude(classical.exact_alpha(alpha0, lam, t), lam)
    via_deformed = classical.exact_alpha_deformed(
        classical.deform_amplitude(alpha0, lam), lam, t)
    assert abs(via_plain - via_deformed) < 1e-12


def test_poisson_bracket_closed_form():
    assert classical.poisson_bracket_check(1.0 + 0j, 0.5) <= 1e-6
    assert classical.poisson_bracket_check(0.4 + 0.3j, 0.9, h=1e-4) <= 1e-6


def test_poisson_bracket_step_bounds():
    with pytest.raises(ParameterError):
        classical.poisson_bracket_check(1.0 + 0j, 0.5, h=1e-2)
    with pytest.raises(ParameterError):
        classical.poisson_bracket_check(1.0 + 0j, 0.5, h=1e-7)


def test_hamiltonian_q_is_q_number():
    """classical simulate's H_q column is q_number of its |alpha|^2 column, cell by cell."""
    columns = experiments.run_experiment("classical simulate", {
        "lambda": 1.2, "q0": 1.0, "p0": 0.5, "t_end": 0.1, "dt": 0.01}).columns
    assert columns["H_q"] == [q_number(i, 1.2) for i in columns["|alpha|^2"].tolist()]


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_rk4_tracks_closed_form(lam):
    state0 = classical.ClassicalState(1.0, 0.0, lam)
    traj = classical.integrate_eom(state0, t_end=5.0, dt=1e-3)
    assert traj.max_exact_dev <= 1e-8
    assert traj.alpha_sq_drift <= 1e-9
    assert traj.hq_drift <= 1e-9
    # endpoint against the in-file reference route (qdot0 = omega p0 = 0)
    assert abs(traj.q[-1] - reference_q(1.0, 0.0, lam, float(traj.t[-1]))) < 1e-8


def reference_rk4(q, p, lam, dt, n_steps):
    """The plain RK4 loop, one step at a time with every k-stage negated and
    the update dt (k1 + 2 k2 + 2 k3 + k4) / 6.  The accuracy reference of
    classical._rk4, which takes the same steps as one rotation."""
    c1 = lambda_over_sinh(lam)
    qs, ps = [q], [p]
    for _ in range(n_steps):
        w = c1 * math.cosh(lam * 0.5 * (q * q + p * p))
        k1q, k1p = w * p, -w * q
        q2, p2 = q + 0.5 * dt * k1q, p + 0.5 * dt * k1p
        w = c1 * math.cosh(lam * 0.5 * (q2 * q2 + p2 * p2))
        k2q, k2p = w * p2, -w * q2
        q3, p3 = q + 0.5 * dt * k2q, p + 0.5 * dt * k2p
        w = c1 * math.cosh(lam * 0.5 * (q3 * q3 + p3 * p3))
        k3q, k3p = w * p3, -w * q3
        q4, p4 = q + dt * k3q, p + dt * k3p
        w = c1 * math.cosh(lam * 0.5 * (q4 * q4 + p4 * p4))
        k4q, k4p = w * p4, -w * q4
        q += dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        p += dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        qs.append(q)
        ps.append(p)
    return qs, ps


def oracle_rk4(q, p, lam, dt, n_steps, project=False):
    """The same RK4 recurrence in 40-digit arithmetic, from the same doubles;
    with project, each step is rescaled to the initial radius (the scheme
    classical._rk4 takes)."""
    with mpmath.workdps(40):
        q, p, lam, dt = (mpmath.mpf(v) for v in (q, p, lam, dt))
        c1 = lam / mpmath.sinh(lam) if lam else mpmath.mpf(1)
        radius = mpmath.hypot(q, p)

        def rate(a, b):
            w = c1 * mpmath.cosh(lam / 2 * (a * a + b * b))
            return w * b, -w * a

        qs, ps = [q], [p]
        for _ in range(n_steps):
            k1 = rate(q, p)
            k2 = rate(q + dt / 2 * k1[0], p + dt / 2 * k1[1])
            k3 = rate(q + dt / 2 * k2[0], p + dt / 2 * k2[1])
            k4 = rate(q + dt * k3[0], p + dt * k3[1])
            q += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            p += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            if project:
                scale = radius / mpmath.hypot(q, p)
                q, p = q * scale, p * scale
            qs.append(q)
            ps.append(p)
        return qs, ps


def oracle_flow(q, p, lam, dt, n_steps):
    """The true flow at 40 digits: z = q + ip turned by -omega_q k dt,
    omega_q = (lam/sinh lam) cosh(lam I), from the same doubles."""
    with mpmath.workdps(40):
        q, p, lam, dt = (mpmath.mpf(v) for v in (q, p, lam, dt))
        c1 = lam / mpmath.sinh(lam) if lam else mpmath.mpf(1)
        omega = c1 * mpmath.cosh(lam * (q * q + p * p) / 2)
        phases = [omega * k * dt for k in range(n_steps + 1)]
        return ([q * mpmath.cos(t) + p * mpmath.sin(t) for t in phases],
                [p * mpmath.cos(t) - q * mpmath.sin(t) for t in phases])


def max_error(track, oracle):
    with mpmath.workdps(40):
        return float(max(abs(mpmath.mpf(x) - want) for x, want in zip(track, oracle)))


def margin_q0(lam):
    """q0 with 2 |lam| (q0^2 / 2) = 709, p0 = 0: the old margin of 2, up to
    which reference_rk4's plain cosh stays finite at every stage."""
    q0 = math.sqrt(709.0 / abs(lam))
    while 2.0 * abs(lam) * (0.5 * q0 * q0) > 709.0:
        q0 = math.nextafter(q0, 0.0)
    return q0


RK4_CASES = [
    (0.0, 1.0, 0.5, 1e-2), (0.5, 1.0, 0.5, 1e-2), (1.0, 1.0, 0.5, 1e-2),
    (2.0, 1.0, 0.5, 1e-2), (1.0, 0.3, -1.1, 3e-3), (2.0, 1.5, 0.2, 1e-3),
    (720.0, margin_q0(720.0), 0.0, 1e-3)]


@pytest.mark.parametrize("lam, q0, p0, dt", RK4_CASES)
def test_rk4_rounds_no_worse_than_the_reference_loop(lam, q0, p0, dt):
    """500 steps of classical._rk4 against the 40-digit projected recurrence,
    and of reference_rk4 against the plain one: each max error of the first
    is within twice the second's plus 4 ulp of the largest |x| of its track,
    which is at most the orbit radius.  At lam = 720, (lam/sinh lam) dt is
    subnormal and p stays below 1e-156; taking that product first lost three
    of p's digits there."""
    n_steps = 500
    projected = oracle_rk4(q0, p0, lam, dt, n_steps, project=True)
    plain = oracle_rk4(q0, p0, lam, dt, n_steps)
    got = classical._rk4(q0, p0, lam, dt, n_steps)
    ref = reference_rk4(q0, p0, lam, dt, n_steps)
    for track, want, ref_track, ref_want in zip(got, projected, ref, plain):
        slack = 4.0 * math.ulp(float(max(abs(x) for x in want)))
        assert max_error(track, want) <= 2.0 * max_error(ref_track, ref_want) + slack


@pytest.mark.parametrize("lam, q0, p0, dt", RK4_CASES)
def test_rk4_tracks_the_true_flow_as_closely_as_the_loop(lam, q0, p0, dt):
    """Against the 40-digit rotation at omega_q, the projected scheme errs
    at most 1.01 times as much as the plain loop, plus 4 ulp of the largest
    |x| of its track: projecting onto the conserved intensity costs no
    accuracy."""
    n_steps = 500
    flow = oracle_flow(q0, p0, lam, dt, n_steps)
    got = classical._rk4(q0, p0, lam, dt, n_steps)
    ref = reference_rk4(q0, p0, lam, dt, n_steps)
    for track, ref_track, want in zip(got, ref, flow):
        slack = 4.0 * math.ulp(float(max(abs(x) for x in want)))
        assert max_error(track, want) <= 1.01 * max_error(ref_track, want) + slack


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dt", [1e-4, 1e-3])
def test_rk4_matches_the_reference_loop_at_the_default_steps(lam, dt):
    """At the suite's dt = 1e-4 and the CLI's 1e-3 the plain scheme's own
    change of intensity is below one rounding a run, so the projected scheme
    and the loop differ by no more than the loop's rounding: twice its
    error against the 40-digit plain recurrence, plus 4 ulp."""
    q0, p0, n_steps = 1.0, 0.0, 2000
    got = classical._rk4(q0, p0, lam, dt, n_steps)
    ref = reference_rk4(q0, p0, lam, dt, n_steps)
    plain = oracle_rk4(q0, p0, lam, dt, n_steps)
    slack = 4.0 * math.ulp(1.0)
    for track, ref_track, want in zip(got, ref, plain):
        gap = float(np.max(np.abs(track - np.array(ref_track))))
        assert gap <= 2.0 * max_error(ref_track, want) + slack


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_hq_drift_matches_per_sample_hamiltonian(lam):
    """The vectorised sinh(lam I)/sinh(lam) against the scalar q_number sample
    by sample; numpy's and math's sinh may differ by an ulp on each side."""
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.5, lam),
                                   t_end=2.0, dt=1e-3)
    intensity = 0.5 * (traj.q * traj.q + traj.p * traj.p)
    hq = np.array([q_number(v, lam) for v in intensity])
    reference = float(np.max(np.abs(hq - hq[0])))
    assert abs(traj.hq_drift - reference) <= 4.0 * np.finfo(float).eps * float(np.max(hq))


def test_trajectory_shapes():
    traj = classical.integrate_eom(classical.ClassicalState(0.5, 0.5, 0.3),
                                   t_end=1.0, dt=1e-2)
    assert traj.t.shape == traj.q.shape == traj.p.shape
    assert traj.t[0] == 0.0
    assert_allclose(traj.t[-1], 1.0, atol=1e-12)


def test_integrate_eom_rejects_bad_steps():
    state0 = classical.ClassicalState(1.0, 0.0, 0.5)
    with pytest.raises(ParameterError):
        classical.integrate_eom(state0, t_end=1.0, dt=0.0)


def test_rk4_and_leapfrog_share_one_step_budget():
    """RK4 (classical and level) and leapfrog stop at the same WORK_BUDGET,
    checked before the grid is allocated; the suite's 1e5 steps are legal."""
    from qlab import level, wave

    limit = "past the limit of 1000000"
    with pytest.raises(ParameterError, match=f"1e\\+08 RK4 steps is {limit}"):
        classical.integrate_eom(classical.ClassicalState(1.0, 0.0, 0.5), 10.0, 1e-7)
    with pytest.raises(ParameterError, match=f"RK4 steps is {limit}"):
        level.evolve_one_level(0.5, 0.5, -10.0, 1e-7)
    field = wave.make_field(np.cos(np.arange(16) * math.pi / 8), np.zeros(16), 0.3)
    with pytest.raises(ParameterError, match=f"leapfrog steps is {limit}"):
        wave.evolve(field, 1e5, 0.01, "leapfrog")
    assert classical._step_grid(10.0, 1e-4)[2] == 100_000
    assert classical._step_grid(1.0, 1e-6)[2] == WORK_BUDGET


def test_integrate_eom_steps_backward_to_a_negative_t_end():
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.0, 0.5),
                                   t_end=-3.0, dt=1e-3)
    assert traj.t.shape == (3001,)
    assert traj.t[-1] == -3.0
    assert traj.max_exact_dev <= 1e-8


def test_orbit_phase_past_the_double_range_is_a_parameter_error():
    alpha0 = complex(-3.3, -3.75) / math.sqrt(2.0)
    with pytest.raises(ParameterError, match="orbit phase"):
        classical.exact_alpha(alpha0, 2.5, 1e308)
    with pytest.raises(ParameterError, match="orbit phase"):
        classical.exact_alpha(alpha0, 2.5, np.array([0.0, -1e308]))
    with pytest.raises(ParameterError, match="orbit phase"):
        classical.exact_alpha_deformed(classical.deform_amplitude(alpha0, 2.5), 2.5, 1e308)


def test_undeformed_period_returns_home():
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.0, 0.0),
                                   t_end=2.0 * math.pi, dt=1e-3)
    assert abs(traj.q[-1] - 1.0) < 1e-8
    assert abs(traj.p[-1]) < 1e-8


def test_classical_state_properties():
    s = classical.ClassicalState(1.0, 1.0, 0.5)
    assert_allclose(s.intensity, 1.0, rtol=1e-15)
    assert_allclose(s.alpha, (1.0 + 1.0j) / math.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("n_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_blocked_track_and_checks_are_the_one_pass_bits(n_steps, sign):
    """_rk4 and integrate_eom pass in blocks of _BLOCK steps.  Across block
    boundaries, stepping backward and with p0 != 0, every array and metric is
    bit for bit the one-pass formulas' (rk4_reference)."""
    state0, dt = classical.ClassicalState(0.3, -1.1, 0.7), 1e-3
    t_end = sign * n_steps * dt
    got = classical.integrate_eom(state0, t_end, dt)
    want = rk4_reference.integrate_eom(state0, t_end, dt)
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[3:] == want[3:]
    dt = t_end / n_steps
    for a, b in zip(classical._rk4(0.3, -1.1, 0.7, dt, n_steps),
                    rk4_reference.rk4(0.3, -1.1, 0.7, dt, n_steps)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_integrate_eom_memory_is_bounded():
    """At 1e5 steps only t, q and p span the run: the traced peak stays
    within three full-length arrays and 1 MB (7.2 MB before the blocks)."""
    n_steps = 100_000
    state0 = classical.ClassicalState(1.0, 0.5, 0.5)
    tracemalloc.start()
    try:
        traj = classical.integrate_eom(state0, 10.0, 10.0 / n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.t.shape == (n_steps + 1,)
    assert peak <= 3 * 8 * (n_steps + 1) + 1e6, f"peak traced allocation {peak} bytes"
