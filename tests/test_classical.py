"""Classical nonlinear oscillator: amplitude map, deformed bracket,
implicit momentum, closed-form orbits, and RK4 cross-validation.

The closed-form track is checked against a four-exponential evaluation
built inside this file from nothing but math/cmath and a plain bisection,
so the production code and the oracle share no path.
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import classical
from qlab.deformation import q_number
from qlab.errors import WORK_BUDGET, ParameterError, SaturationError, SolverError

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


@pytest.mark.parametrize("q0,qdot0,lam", [
    (1.0, 0.0, 0.5),
    (1.0, 0.5, 0.7),
    (0.3, -1.2, 1.0),
    (2.0, 1.0, 0.2),
    (1.0, 1.0, 0.0),
])
def test_exact_q_matches_four_exponential_form(q0, qdot0, lam):
    for t in (0.0, 0.7, 3.2, 10.0):
        assert abs(classical.exact_q(q0, qdot0, lam, t)
                   - reference_q(q0, qdot0, lam, t)) < 1e-12


def test_exact_q_vectorized():
    t = np.linspace(0.0, 5.0, 7)
    out = classical.exact_q(1.0, 0.5, 0.7, t)
    assert out.shape == t.shape
    assert_allclose(out[3], classical.exact_q(1.0, 0.5, 0.7, float(t[3])), rtol=1e-15)


def test_omega_q_frozen_value():
    assert_allclose(classical.omega_q(1.0, 1.0), OMEGA_Q_1_LAM1, rtol=1e-15)
    assert classical.omega_q(0.7, 0.0) == 1.0
    with pytest.raises(ParameterError):
        classical.omega_q(-0.1, 1.0)


@pytest.mark.parametrize("lam", [2.0, -2.0])
def test_omega_q_saturates_where_cosh_overflows(lam):
    assert math.isfinite(classical.omega_q(354.5, lam))  # |lam| I = 709
    with pytest.raises(SaturationError) as exc_info:
        classical.omega_q(355.0, lam)
    assert exc_info.value.largest_safe_n == 354


def test_rk4_checks_the_conserved_intensity_with_a_margin():
    """The stages overshoot I, so RK4 stops at |lam| I = 709/2."""
    with pytest.raises(SaturationError) as exc_info:
        classical.integrate_eom(classical.ClassicalState(19.0, 0.0, 2.0), 1e-3, 1e-4)
    assert exc_info.value.largest_safe_n == 177  # I = 180.5 > 709/4


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


def rtol_past_overflow(lam):
    """(|lambda| + 4) eps: one rounding of lambda moves e^{-|lambda|}, which
    these values carry, by |lambda| eps."""
    return (abs(lam) + 4.0) * sys.float_info.epsilon


@pytest.mark.parametrize("lam", [709.5, 745.5, 800.0, 1000.0, 1e4])
@pytest.mark.parametrize("q,qdot", [(0.1, 0.1), (0.0, 1.0), (1.0, 1.0), (0.5, 1e-3),
                                    (0.01, 1e300), (1.2, 5e-324), (0.3, 1e-300)])
def test_momentum_past_sinh_overflow_matches_mpmath(q, qdot, lam):
    """(sinh lambda/lambda) qdot overflows past |lambda| = 709, so the root is
    taken in logs.  Measured within 1.1 eps where p is of order 1, and within
    310 eps where it is far below 1 and carries e^{-|lambda|}."""
    expected = oracle_momentum_in_logs(q, qdot, lam)
    for sign in (1.0, -1.0):
        got = classical.momentum_from_velocity(q, sign * qdot, sign * lam)
        assert abs(got - sign * expected) <= rtol_past_overflow(lam) * expected, sign


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
    """I_q overflows past |lambda| I = 709, as cosh does in omega_q."""
    for alpha, lam, safe in ((30.0 + 0j, 1.0, 709), (0.95 + 0j, 800.0, 0)):
        with pytest.raises(SaturationError) as exc_info:
            classical.deform_amplitude(alpha, lam)
        assert exc_info.value.largest_safe_n == safe


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


@pytest.mark.parametrize("alpha,lam", [(0.99, 700.0), (0.99, 708.9), (0.99, 709.1),
                                       (0.99, 720.0), (20.0, 1.0)])
def test_poisson_bracket_where_sinh_squared_overflows(alpha, lam):
    """|alpha_q|^4 sinh^2 lam = sinh^2(lam I) overflows once lam I passes
    about 355, with sinh lam itself from 709 on; the closed form is then
    taken as hypot(lam/sinh lam, |alpha_q|^2 lam), and the finite
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
    assert_allclose(classical.hamiltonian_q(0.8, 1.2), q_number(0.8, 1.2), rtol=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_rk4_tracks_closed_form(lam):
    state0 = classical.ClassicalState(1.0, 0.0, lam)
    traj = classical.integrate_eom(state0, t_end=5.0, dt=1e-3)
    assert traj.max_exact_dev <= 1e-8
    assert traj.alpha_sq_drift <= 1e-9
    assert traj.hq_drift <= 1e-9
    # endpoint against the in-file reference route (qdot0 = omega p0 = 0)
    assert abs(traj.q[-1] - reference_q(1.0, 0.0, lam, float(traj.t[-1]))) < 1e-8


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_hq_drift_matches_per_sample_hamiltonian(lam):
    """The vectorised sinh(lam I)/sinh(lam) against hamiltonian_q sample by
    sample; numpy's and math's sinh may differ by an ulp on each side."""
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.5, lam),
                                   t_end=2.0, dt=1e-3)
    intensity = 0.5 * (traj.q * traj.q + traj.p * traj.p)
    hq = np.array([classical.hamiltonian_q(v, lam) for v in intensity])
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
