"""Classical nonlinear oscillator: amplitude map, deformed bracket,
implicit momentum, closed-form orbits, and RK4 cross-validation.

The closed-form track is checked against a four-exponential evaluation
built inside this file from nothing but math/cmath and a scipy root
bracket, so the production code and the oracle share no path.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from qlab import classical
from qlab.deformation import q_number
from qlab.errors import ParameterError

OMEGA_Q_1_LAM1 = 1.3130352854993313           # cosh(1)/sinh(1)
MOMENTUM_Q1_QD1_LAM01 = 0.9967124970491392    # root of p cosh(...) = sinh(.1)/.1
APPROX_MOMENTUM_Q1_QD1_LAM01 = 0.9991666666666667
EXACT_ALPHA_1_LAM1_T1 = 0.2549162020825684 - 0.9669631481684290j


def reference_q(q0, qdot0, lam, t):
    """Independent route to q(t): solve the implicit momentum by bisection
    on [0, 2|qdot0|+1], build Omega from the explicit cosh form, and sum the
    four exponentials (e^{+iOt}, e^{-iOt}) x (q0, qdot0/O) directly."""
    if lam == 0.0:
        p0 = qdot0
    else:
        c = math.sinh(lam) / lam * qdot0

        def resid(p):
            return p * math.cosh(0.5 * lam * (q0 * q0 + p * p)) - c

        hi = 2.0 * abs(qdot0) + 1.0
        p0 = brentq(resid, -hi, hi, xtol=1e-15, rtol=8.9e-16)
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


def test_undeformed_period_returns_home():
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.0, 0.0),
                                   t_end=2.0 * math.pi, dt=1e-3)
    assert abs(traj.q[-1] - 1.0) < 1e-8
    assert abs(traj.p[-1]) < 1e-8


def test_classical_state_properties():
    s = classical.ClassicalState(1.0, 1.0, 0.5)
    assert_allclose(s.intensity, 1.0, rtol=1e-15)
    assert_allclose(s.alpha, (1.0 + 1.0j) / math.sqrt(2.0), rtol=1e-15)
