"""Deformed wave equation on the periodic grid: the amplitude invariant mu,
the mu-dependent propagation speed, spectral and leapfrog evolution,
traveling-wave (shape-preserving) data, and the undeformed limit.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import wave
from qlab.classical import omega_q
from qlab.errors import ParameterError

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


def test_leapfrog_guards():
    theta = grid(64)
    field = wave.make_field(np.cos(theta), np.zeros(64), 0.5)
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, method="leapfrog")  # needs dt
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, dt=1.0, method="leapfrog")  # unstable step
    with pytest.raises(ParameterError):
        wave.evolve(field, 1.0, method="verlet")


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
