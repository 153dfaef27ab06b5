"""Deformed wave equation on the periodic grid: the amplitude invariant mu,
the mu-dependent propagation speed, spectral and leapfrog evolution,
traveling-wave (shape-preserving) data, and the undeformed limit.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import wave
from qlab.classical import omega_q
from qlab.errors import ParameterError, SaturationError, SolverError

SPEED_MU025_LAM1 = 0.8776481043910428  # cosh(0.25)/sinh(1), 40-digit arithmetic


def grid(n):
    return 2.0 * math.pi * np.arange(n) / n


def test_speed_undeformed_is_unity():
    assert omega_q(0.0, 0.0) == 1.0
    assert omega_q(3.7, 0.0) == 1.0


def test_speed_frozen_value():
    assert_allclose(omega_q(0.25, 1.0), SPEED_MU025_LAM1, rtol=1e-15)


def test_speed_increases_with_mu():
    mus = np.linspace(0.0, 4.0, 17)
    speeds = [omega_q(float(m), 0.8) for m in mus]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_mu_of_unit_cosine_is_quarter(lam):
    """For phi = cos(theta), pi = 0 the fixed point decouples from lambda:
    mu = sum (|k|/2)|phi_k|^2 = 2 * (1/2)(1/2)^2 = 1/4 exactly."""
    theta = grid(64)
    mu, speed = wave.solve_mu(np.cos(theta), np.zeros(64), lam)
    assert_allclose(mu, 0.25, atol=1e-12)
    assert_allclose(speed, omega_q(0.25, lam), rtol=1e-12)


def test_mu_of_silent_grid_is_zero():
    mu, speed = wave.solve_mu(np.zeros(16), np.zeros(16), 0.7)
    assert mu == 0.0
    assert speed == omega_q(0.0, 0.7)


def test_mu_couples_to_momentum_density():
    """With pi != 0 the fixed point genuinely moves: check it satisfies its
    own defining equation when re-evaluated."""
    theta = grid(64)
    phi = np.cos(theta)
    pi = 0.4 * np.sin(2.0 * theta)
    mu, speed = wave.solve_mu(phi, pi, 0.9)
    k = np.fft.fftfreq(64, d=1.0 / 64)
    nz = k != 0
    phi_hat = np.fft.fft(phi)[nz] / 64
    pi_hat = np.fft.fft(pi)[nz] / 64
    s_phi = float(np.sum(0.5 * np.abs(k[nz]) * np.abs(phi_hat) ** 2))
    s_pi = float(np.sum(0.5 / np.abs(k[nz]) * np.abs(pi_hat) ** 2))
    assert abs(s_phi + s_pi / speed ** 2 - mu) < 1e-10


def test_grid_validation():
    with pytest.raises(ParameterError):
        wave.solve_mu(np.cos(grid(48)), np.zeros(48), 0.5)  # not a power of two
    with pytest.raises(ParameterError):
        wave.solve_mu(np.cos(grid(8)), np.zeros(4), 0.5)    # length mismatch
    with pytest.raises(ParameterError):
        wave.solve_mu(np.ones(8), np.zeros(8), 0.5)         # nonzero mean


def test_undeformed_period_recurrence():
    """lambda = 0, phi = cos: unit speed makes t = 2 pi a full period."""
    theta = grid(64)
    field = wave.make_field(np.cos(theta), np.zeros(64), 0.0)
    out = wave.evolve(field, 2.0 * math.pi)
    assert np.max(np.abs(out.phi - field.phi)) < 1e-10
    assert np.max(np.abs(out.pi)) < 1e-10


def test_dalembert_limit():
    theta = grid(128)
    err = wave.soliton_check(np.sin(theta), 1, 0.0, t_end=7.3)
    assert err < 1e-10


@pytest.mark.parametrize("direction", [-1, 1])
def test_traveling_wave_keeps_shape(direction):
    theta = grid(128)
    profile = np.cos(2.0 * theta) + 0.3 * np.sin(3.0 * theta)
    err = wave.soliton_check(profile, direction, 0.8, t_end=10.0)
    assert err < 1e-10


def test_movers_left_right_symmetric():
    theta = grid(128)
    profile = np.cos(2.0 * theta)
    err_r = wave.soliton_check(profile, 1, 0.6, t_end=5.0)
    err_l = wave.soliton_check(profile, -1, 0.6, t_end=5.0)
    assert abs(err_r - err_l) < 1e-10


def test_traveling_field_speed_consistent():
    """pi = -c dprofile carries as much invariant as phi does, so the
    traveling cosine holds mu = 2 * (1/4) = 1/2."""
    theta = grid(64)
    field = wave.traveling_field(np.cos(theta), 1, 1.0)
    assert_allclose(field.mu, 0.5, atol=1e-12)
    # cosh(1/2)/sinh(1) = 1/(2 sinh(1/2))
    assert_allclose(field.speed, 0.9595173756674719, rtol=1e-12)


def test_mu_invariant_under_evolution():
    theta = grid(64)
    field = wave.make_field(np.cos(theta), 0.3 * np.sin(theta), 0.9)
    drift = 0.0
    current = field
    for _ in range(10):
        current = wave.evolve(current, 1.0)
        mu, _ = wave.solve_mu(current.phi, current.pi, 0.9)
        drift = max(drift, abs(mu - field.mu))
    assert drift < 1e-9


def test_energy_conserved():
    theta = grid(64)
    field = wave.make_field(np.cos(theta), 0.2 * np.sin(2 * theta), 0.7)
    e0 = wave.energy(field)
    e1 = wave.energy(wave.evolve(field, 13.7))
    assert abs(e1 - e0) < 1e-12 * e0


def test_leapfrog_cross_checks_spectral():
    theta = grid(128)
    field = wave.make_field(np.cos(theta), np.zeros(128), 0.5)
    dt = 0.2 * (2.0 * math.pi / 128) / field.speed
    lf = wave.evolve(field, 1.0, dt=dt, method="leapfrog")
    sp = wave.evolve(field, 1.0)
    # second-order stencil: agreement at the dt^2 level, not machine level
    assert np.max(np.abs(lf.phi - sp.phi)) < 1e-3
    assert np.max(np.abs(lf.phi - sp.phi)) > 1e-12  # genuinely distinct routes


def roll_leapfrog(field, t_end, dt, dtype=float):
    """The leapfrog body as first written, with np.roll and a fresh array per
    operation, in dtype: the step-by-step reference of the closed form."""
    n = field.n
    dx = dtype(2.0 * math.pi / n)
    c2 = dtype(field.speed) ** 2
    steps = max(1, round(abs(t_end / dt)))
    dt = dtype(t_end / steps)

    def lap(u):
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)

    phi = field.phi.astype(dtype)
    pi = field.pi.astype(dtype)
    acc = c2 * lap(phi)
    for _ in range(steps):
        pi_half = pi + 0.5 * dt * acc
        phi = phi + dt * pi_half
        acc = c2 * lap(phi)
        pi = pi_half + 0.5 * dt * acc
    return phi, pi


def sample_field(n, lam):
    theta = grid(n)
    phi = np.cos(theta) + (0.3 * np.cos(3 * theta) if n > 4 else 0.0)
    return wave.make_field(phi, 0.2 * np.sin(theta), lam)


def largest_error(got, want):
    return max(float(np.max(np.abs(g - w.astype(float)))) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [4, 16, 64, 512])
@pytest.mark.parametrize("lam, t_end, dt_fraction", [
    (0.1, 0.5, 0.9), (0.5, 2.0, 0.5), (1.0, 7.3, 0.99), (0.5, 0.0, 0.5)])
def test_leapfrog_agrees_with_the_roll_reference(n, lam, t_end, dt_fraction):
    """The closed form is the stepped scheme to 1e-12 of the field's largest
    modulus; the loop's own rounding reaches 2.2e-13 in pi at 1,694 steps
    on n = 512."""
    field = sample_field(n, lam)
    dt = dt_fraction * (2.0 * math.pi / n) / (math.pi * field.speed)
    evolved = wave.evolve(field, t_end, dt, method="leapfrog")
    phi_ref, pi_ref = roll_leapfrog(field, t_end, dt)
    scale = max(np.max(np.abs(phi_ref)), np.max(np.abs(pi_ref)))
    assert largest_error((evolved.phi, evolved.pi), (phi_ref, pi_ref)) <= 1e-12 * scale
    assert abs(evolved.mu - wave.solve_mu(phi_ref, pi_ref, lam)[0]) <= 1e-12 * field.mu


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("t_end", [36.2, -36.2])
def test_leapfrog_is_no_less_accurate_than_the_loop(t_end):
    """Against the stepped scheme in long double, 10,013 steps on n = 512
    either way, the closed form errs no more than the double loop."""
    field = sample_field(512, 0.5)
    dt = 0.9 * (2.0 * math.pi / 512) / (math.pi * field.speed)
    evolved = wave.evolve(field, t_end, dt, method="leapfrog")
    exact = roll_leapfrog(field, t_end, dt, np.longdouble)
    loop = roll_leapfrog(field, t_end, dt)
    for got, ref, want in zip((evolved.phi, evolved.pi), loop, exact):
        assert largest_error([got], [want]) <= largest_error([ref], [want])


def test_leapfrog_turns_one_mode_by_its_discrete_phase():
    """cos(m theta) at rest: phi(t) = cos(N 2 asin((hc/dx) sin(m dx/2))) cos(m theta)."""
    n, m, t_end = 64, 5, 9.7
    field = wave.make_field(np.cos(m * grid(n)), np.zeros(n), 0.4)
    dt = 0.8 * (2.0 * math.pi / n) / (math.pi * field.speed)
    evolved = wave.evolve(field, t_end, dt, method="leapfrog")
    steps = round(t_end / dt)
    with mpmath.workdps(40):
        dx = mpmath.mpf(2.0 * math.pi / n)
        r = mpmath.mpf(t_end / steps) * mpmath.mpf(field.speed) / dx
        amp = mpmath.cos(steps * 2 * mpmath.asin(r * mpmath.sin(m * dx / 2)))
        want = [float(amp * mpmath.cos(m * 2 * mpmath.pi * j / n)) for j in range(n)]
    assert np.max(np.abs(evolved.phi - want)) <= 1e-13


def test_leapfrog_to_t_end_zero_returns_the_input():
    field = sample_field(64, 0.5)
    dt = 0.5 * (2.0 * math.pi / 64) / (math.pi * field.speed)
    evolved = wave.evolve(field, 0.0, dt, method="leapfrog")
    assert_allclose(evolved.phi, field.phi, rtol=0, atol=1e-15)
    assert_allclose(evolved.pi, field.pi, rtol=0, atol=1e-15)
    assert evolved.time == 0.0


def test_leapfrog_steps_backward_to_a_negative_t_end():
    """A negative t_end takes |t_end|/dt steps of -dt, not one step of t_end."""
    theta = grid(64)
    field = wave.make_field(np.cos(theta), 0.3 * np.sin(theta), 0.5)
    dt = 0.5 * (2.0 * math.pi / 64) / (math.pi * field.speed)
    back = wave.evolve(field, -3.0, dt, method="leapfrog")
    assert back.time == -3.0
    assert np.max(np.abs(back.phi - wave.evolve(field, -3.0).phi)) < 1e-2
    assert abs(back.mu - field.mu) < 1e-3


@pytest.mark.parametrize("method", ["spectral", "leapfrog"])
def test_evolve_keeps_mu_of_a_field_whose_mean_drifted(method):
    """evolve takes a field whose mean is past the 1e-12 that user data may
    carry, such as an evolved field whose rounding moved its mean, and
    carries the k = 0 mode along unturned.  mu leaves out k = 0, so evolve
    still reports it; make_field and solve_mu keep rejecting such data."""
    theta = grid(16)
    field = wave.make_field(np.cos(theta), 0.3 * np.sin(theta), 0.3)
    drifted = field._replace(phi=field.phi + 1e-11)
    dt = 0.5 * (2.0 * math.pi / 16) / (math.pi * field.speed)
    got = wave.evolve(drifted, 1.0, dt, method=method)
    assert abs(got.mu - wave.evolve(field, 1.0, dt, method=method).mu) <= 1e-12 * field.mu
    with pytest.raises(ParameterError, match="zero mean"):
        wave.solve_mu(drifted.phi, drifted.pi, 0.3)


def test_leapfrog_guards():
    theta = grid(64)
    field = wave.make_field(np.cos(theta), np.zeros(64), 0.5)
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, method="leapfrog")  # needs dt
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, dt=1.0, method="leapfrog")  # unstable step
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, method="verlet")
    with pytest.raises(ParameterError, match="past the limit of 1000000"):
        wave.evolve(field, 1e200, dt=0.01, method="leapfrog")  # would never end
    with pytest.raises(ParameterError, match="inf leapfrog steps"):
        wave.evolve(field, 1.0, dt=5e-324, method="leapfrog")


def test_band_limit_guard():
    n = 64
    profile = np.cos(32.0 * grid(n))  # Nyquist mode of a 64-point grid
    with pytest.raises(ParameterError):
        wave.traveling_field(profile, 1, 0.5)


def test_direction_validation():
    with pytest.raises(ParameterError):
        wave.traveling_field(np.cos(grid(64)), 2, 0.5)


def test_spectral_shift_exact_on_modes():
    theta = grid(32)
    phi = np.cos(theta)
    flipped = wave.spectral_shift(phi, math.pi)
    assert_allclose(flipped, -phi, atol=1e-12)
    assert_allclose(wave.spectral_shift(phi, 2.0 * math.pi), phi, atol=1e-12)


def test_fourier_modes_normalization():
    theta = grid(16)
    modes = wave.fourier_modes(np.cos(theta))
    assert_allclose(modes[1], 0.5, atol=1e-12)
    assert_allclose(modes[-1], 0.5, atol=1e-12)
    assert abs(modes[0]) < 1e-12


def oracle_mu(s_phi, s_pi, lam):
    """solve_mu's fixed point at 60 digits, by bisection on [0, min(mu_max,
    RHS(0))], mu_max = acosh(DBL_MAX sinh|lambda|/|lambda|)/|lambda|, past
    which f_q overflows; the right side falls in mu, so RHS(0) bounds the
    root too."""
    with mpmath.workdps(60):
        big = mpmath.mpf(lam)

        def rhs_minus_mu(mu):
            return s_phi + s_pi * (mpmath.sinh(big) / (big * mpmath.cosh(big * mu))) ** 2 - mu

        mu_max = mpmath.acosh(sys.float_info.max * mpmath.sinh(big) / big) / big
        lo, hi = mpmath.mpf(0), min(mu_max, rhs_minus_mu(0))
        for _ in range(220):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rhs_minus_mu(mid) > 0 else (lo, mid)
        return lo, big / mpmath.sinh(big) * mpmath.cosh(big * lo)


def mode_sum(values, power):
    """Sum over k != 0 of |k|^power |v_k|^2 / 2, in mpmath from the float modes."""
    k = np.abs(wave._mode_numbers(len(values)))
    return mpmath.fsum(0.5 * mpmath.mpf(kj) ** power * abs(mpmath.mpc(zj)) ** 2
                       for kj, zj in zip(k, wave.fourier_modes(values)) if kj)


@pytest.mark.parametrize("lam,pi_amplitude", [(350.0, 5e-74), (365.0, 1e-76),
                                              (400.0, 1e-84), (400.0, 1e-80),
                                              (720.0, 1e-150), (720.0, 1e-160)])
def test_solve_mu_past_underflow_of_lambda_over_sinh_squared(lam, pi_amplitude):
    """(lam/sinh lam)^2 leaves the normal range at |lam| ~ 361, past which
    s_pi/f_q^2 is taken in logs; 350 is the last case on the other side.
    At pi_amplitude 1e-160 the squares |pi_k|^2 underflow too, so the oracle
    sums them in mpmath.  Measured: mu within 0.6 eps of the oracle, the
    speed (condition number lam mu) within 260 eps."""
    theta = grid(16)
    phi, pi = 0.5 * np.cos(theta), pi_amplitude * np.sin(theta)
    s_phi, s_pi = mode_sum(phi, 1), mode_sum(pi, -1)
    mu_want, speed_want = oracle_mu(s_phi, s_pi, lam)
    for sign in (1.0, -1.0):
        mu, speed = wave.solve_mu(phi, pi, sign * lam)
        assert abs(mu - float(mu_want)) <= 2 * np.finfo(float).eps * mu
        assert abs(speed - float(speed_want)) <= (lam + 4) * np.finfo(float).eps * speed


def test_solve_mu_at_a_subnormal_lambda_with_tiny_pi():
    """At |lam| below ~4e-306 the log path's bound 709/|lam| is inf, so it
    brackets the root by RHS(0) instead; pi of amplitude 1e-150 takes that
    path, and with phi = 0, mu is the pi term alone."""
    pi = 1e-150 * np.sin(grid(16))
    mu_want, speed_want = oracle_mu(0, mode_sum(pi, -1), 1e-310)
    for lam in (1e-310, -1e-310):
        mu, speed = wave.solve_mu(np.zeros(16), pi, lam)
        assert abs(mu - float(mu_want)) <= 2 * np.finfo(float).eps * mu
        assert abs(speed - float(speed_want)) <= 4 * np.finfo(float).eps * speed


def test_solve_mu_in_logs_saturates_past_the_safe_intensity():
    """pi of order 1e-3 at lambda = 800 needs cosh(lambda mu) = cosh(785.7): mu =
    0.982 is past the old bound 709/800, but omega_q is finite up to
    mu_max = 1.879, so it is solved.  phi of amplitude 3 puts mu past mu_max,
    and the error names it."""
    theta = grid(16)
    phi, pi = 0.01 * np.cos(theta), 1e-3 * np.sin(theta)
    mu_want, speed_want = oracle_mu(mode_sum(phi, 1), mode_sum(pi, -1), 800.0)
    mu, speed = wave.solve_mu(phi, pi, 800.0)
    assert abs(mu - float(mu_want)) <= 2 * np.finfo(float).eps * mu
    assert abs(speed - float(speed_want)) <= (800 + 4) * np.finfo(float).eps * speed
    with pytest.raises(SaturationError) as exc_info:
        wave.solve_mu(3.0 * np.cos(theta), pi, 800.0)
    with mpmath.workdps(40):
        mu_max = float(mpmath.acosh(sys.float_info.max * mpmath.sinh(800) / 800) / 800)
    assert abs(exc_info.value.largest_safe_n - mu_max) <= math.ulp(mu_max)


@pytest.mark.parametrize("lam", [360.0, 400.0, -400.0, 700.0])
def test_traveling_wave_whose_pi_squares_underflow(lam):
    """Past |lam| ~ 356 the squares |pi_k|^2 of pi = -speed dphi/dtheta are
    subnormal, and from 361 the direct sum lost the pi half of mu; solve_mu
    scales pi_k by its largest modulus, and mu is 2 s_phi = 5e-5."""
    field = wave.traveling_field(0.01 * np.cos(grid(16)), 1, lam)
    assert abs(field.mu - 5e-05) <= 1e-12 * 5e-05


@pytest.mark.parametrize("lam, above", [(337.39, True), (337.395, False)])
def test_solve_mu_on_both_sides_of_the_old_pi_scaling_switch(lam, above):
    """solve_mu once summed |pi_k|^2 directly above a largest |pi_k| of
    sqrt(DBL_MIN/eps) ~ 1.0e-146, and scaled pi_k by it only below; it now
    scales every nonzero pi.  These traveling waves put that largest |pi_k|
    just above and just below the old switch, and mu matches the 60-digit
    oracle to 1e-14 on both sides."""
    field = wave.traveling_field(0.01 * np.cos(grid(16)), 1, lam)
    peak = np.abs(wave.fourier_modes(field.pi)).max()
    switch = math.sqrt(sys.float_info.min / sys.float_info.epsilon)
    assert (peak > switch) == above and abs(peak / switch - 1.0) < 0.01
    mu_want, _ = oracle_mu(mode_sum(field.phi, 1), mode_sum(field.pi, -1), lam)
    mu, _ = wave.solve_mu(field.phi, field.pi, lam)
    assert abs(mu - float(mu_want)) <= 1e-14 * mu


def test_traveling_wave_whose_speed_underflows():
    """At lambda = 800 the speed is 0 in double, and pi with it."""
    with pytest.raises(SolverError, match="speed .* underflows the normal double range"):
        wave.traveling_field(0.01 * np.cos(grid(16)), 1, 800.0)


def test_energy_of_a_still_field_whose_speed_underflows():
    """At lambda = 800 the speed is 0 in double; a field with pi = 0 keeps
    the phi term alone, not 0/0."""
    field = wave.make_field(0.01 * np.cos(grid(16)), np.zeros(16), 800.0)
    assert field.speed == 0.0
    with np.errstate(all="raise"):
        assert wave.energy(field) == pytest.approx(0.01 ** 2 / 4, rel=1e-12)
