"""The RK4 tracks and their checks as qlab computed them before classical
and level passed in blocks of _BLOCK steps: every step's phase, cos and
sin, the intensity, H_q and the exact orbit as full-length arrays in one
pass.  The exact orbit psi0 e names e, so that its product takes the
operands in the one order level uses at every length.  Tests compare the
blocked passes against this, bit for bit."""

import math

import numpy as np

from qlab.classical import omega_q
from qlab.deformation import _omega, q_number

_SQRT2 = math.sqrt(2.0)


def step_grid(t_end, dt):
    n_steps = max(1, round(abs(t_end / dt)))
    dt = t_end / n_steps
    return np.arange(n_steps + 1) * dt, dt, n_steps


def rk4(q, p, lam, dt, n_steps):
    """The projected RK4 track: the step factor G of classical._rk4's
    docstring, then step k as a rotation by k arg G, all steps at once."""
    lam_i = lam * (0.5 * (q * q + p * p))

    def h(s2):
        return dt * _omega(lam_i * s2, lam)

    h1 = h(1.0)
    h2 = h(1.0 + 0.25 * h1 * h1)
    a3 = 1.0 - 0.25 * h1 * h2
    h3 = h(a3 * a3 + 0.25 * h2 * h2)
    a4, b4 = 1.0 - 0.5 * h2 * h3, h3 * a3
    h4 = h(a4 * a4 + b4 * b4)
    re_g = 1.0 - (h1 * h2 + h2 * h3 + h3 * h4) / 6.0 + h1 * h2 * h3 * h4 / 24.0
    im_g = -(h1 + 2.0 * (h2 + h3) + h4) / 6.0 + (h1 * h2 * h3 + h2 * h3 * h4) / 12.0
    phase = np.arange(n_steps + 1.0) * math.atan2(-im_g, re_g)
    cos, sin = np.cos(phase), np.sin(phase)
    return q * cos + p * sin, p * cos - q * sin


def integrate_eom(state0, t_end, dt):
    """(t, q, p, alpha_sq_drift, hq_drift, max_exact_dev), classical.Trajectory's fields."""
    lam = state0.lam
    t_arr, dt, n_steps = step_grid(t_end, dt)
    q_arr, p_arr = rk4(float(state0.q), float(state0.p), lam, dt, n_steps)
    intensity = 0.5 * (q_arr * q_arr + p_arr * p_arr)
    hq = q_number(intensity, lam)
    alpha0 = state0.alpha
    omega = omega_q(abs(alpha0) * abs(alpha0), lam)
    q_exact = _SQRT2 * (alpha0 * np.exp(-1j * t_arr * omega)).real
    return (t_arr, q_arr, p_arr, float(np.max(np.abs(intensity - intensity[0]))),
            float(np.max(np.abs(hq - hq[0]))), float(np.max(np.abs(q_arr - q_exact))))


def evolve_one_level(psi0, lam, t_end, dt):
    """(t, psi_exact, psi_rk4, frequency, max_deviation, norm_drift), level.LevelEvolution's."""
    psi0 = complex(psi0)
    t_arr, dt, n_steps = step_grid(t_end, dt)
    q, p = rk4(_SQRT2 * psi0.real, _SQRT2 * psi0.imag, lam, dt, n_steps)
    track = (q + 1j * p) / _SQRT2
    omega = omega_q(abs(psi0) * abs(psi0), lam)
    e = np.exp(-1j * t_arr * omega)
    exact = psi0 * e  # named: (psi0, e) at every length, as level takes it
    return (t_arr, exact, track, omega,
            float(np.max(np.abs(track - exact))),
            float(np.max(np.abs(np.abs(track) - abs(psi0)))))
