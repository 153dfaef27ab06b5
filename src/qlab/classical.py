"""Classical deformed oscillator.

Deformed amplitude transformation, deformed Poisson bracket verification,
amplitude-dependent frequency, exact closed-form solutions, the implicit
momentum-velocity relation, and RK4 integration for cross-validation.

Units: omega = m = 1; alpha = (q + ip)/sqrt(2), so |alpha|^2 = (q^2+p^2)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .deformation import lambda_over_sinh, q_number
from .errors import ParameterError, SolverError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ClassicalState:
    q: float
    p: float
    lam: float

    @property
    def alpha(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)

    @property
    def intensity(self) -> float:
        return 0.5 * (self.q * self.q + self.p * self.p)


def deform_amplitude(alpha: complex, lam: float) -> complex:
    """alpha_q = sqrt(sinh(lam |alpha|^2)/(|alpha|^2 sinh lam)) * alpha.

    The scale factor is sqrt(I_q / I) with I = |alpha|^2 continued to real
    argument; alpha = 0 maps to 0 (continuous limit).
    """
    intensity = abs(alpha) ** 2
    if intensity == 0.0:
        return 0j
    return math.sqrt(q_number(intensity, lam) / intensity) * alpha


def omega_q(intensity: float, lam: float) -> float:
    """Orbit-dependent frequency (lam/sinh lam) cosh(lam * intensity); 1 at lam = 0."""
    if intensity < 0:
        raise ParameterError("intensity must be >= 0")
    return lambda_over_sinh(lam) * math.cosh(lam * intensity)


def hamiltonian_q(intensity: float, lam: float) -> float:
    """Conserved deformed Hamiltonian sinh(lam |alpha|^2)/sinh(lam)."""
    return q_number(intensity, lam)


def poisson_bracket_check(alpha: complex, lam: float, h: float = 1e-4) -> float:
    """Finite-difference {alpha_q, alpha_q*} against the closed form.

    The bracket d/dq(a_q) d/dp(a_q*) - d/dp(a_q) d/dq(a_q*) is evaluated by
    central differences with step h and compared with
    -i (lam/sinh lam) sqrt(1 + |alpha_q|^4 sinh^2 lam); returns the absolute
    deviation.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ParameterError("finite-difference step must lie in [1e-6, 1e-3]")
    q0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag

    def a_q(q: float, p: float) -> complex:
        return deform_amplitude(complex(q, p) / math.sqrt(2.0), lam)

    da_dq = (a_q(q0 + h, p0) - a_q(q0 - h, p0)) / (2.0 * h)
    da_dp = (a_q(q0, p0 + h) - a_q(q0, p0 - h)) / (2.0 * h)
    bracket = da_dq * da_dp.conjugate() - da_dp * da_dq.conjugate()
    aq4 = abs(deform_amplitude(alpha, lam)) ** 4
    sh = math.sinh(lam)
    target = -1j * lambda_over_sinh(lam) * math.sqrt(1.0 + aq4 * sh * sh)
    return abs(bracket - target)


def exact_alpha(alpha0: complex, lam: float, t) -> complex | np.ndarray:
    """Closed-form orbit alpha(t) = alpha0 exp(-i t omega_q(|alpha0|^2)).

    ``t`` may be a scalar or an array.
    """
    omega = omega_q(abs(alpha0) ** 2, lam)
    out = alpha0 * np.exp(-1j * np.asarray(t, dtype=float) * omega)
    return complex(out) if out.ndim == 0 else out


def exact_alpha_deformed(alpha_q0: complex, lam: float, t: float) -> complex:
    """Closed-form orbit of the deformed variable under the deformed bracket.

    Frequency (lam/sinh lam) sqrt(1 + |alpha_q0|^4 sinh^2 lam); consistent
    with exact_alpha through the amplitude map (sqrt(1+sinh^2) = cosh).
    """
    aq2 = abs(alpha_q0) ** 2
    sh = math.sinh(lam)
    freq = lambda_over_sinh(lam) * math.sqrt(1.0 + aq2 * aq2 * sh * sh)
    return alpha_q0 * cmath.exp(-1j * t * freq)


def momentum_from_velocity(q: float, qdot: float, lam: float) -> float:
    """Solve p = (sinh lam / lam) qdot / cosh((lam/2)(q^2 + p^2)) for p.

    Damped fixed-point iteration (damping 0.5, |dp| <= 1e-12, at most 200
    iterations) with a bracketed-root fallback on the residual
    p cosh((lam/2)(q^2+p^2)) - (sinh lam/lam) qdot, which is strictly
    increasing in p between 0 and the undamped image of p = 0.
    """
    if lam == 0 or qdot == 0.0:
        return float(qdot)
    c = qdot / lambda_over_sinh(lam)  # (sinh lam / lam) * qdot

    def g(p: float) -> float:
        return c / math.cosh(0.5 * lam * (q * q + p * p))

    p = float(qdot)
    for _ in range(200):
        p_new = 0.5 * p + 0.5 * g(p)
        if not math.isfinite(p_new):
            break
        if abs(p_new - p) <= 1e-12:
            # polish: one undamped application tightens the damped estimate
            return g(p_new)
        p = p_new

    def residual(p: float) -> float:
        return p * math.cosh(0.5 * lam * (q * q + p * p)) - c

    lo, hi = (0.0, c) if c > 0 else (c, 0.0)
    try:
        return brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16)
    except ValueError as exc:
        raise SolverError(f"momentum solver failed to converge: {exc}",
                          residual=residual(p) if math.isfinite(p) else None)


def approx_momentum(q: float, qdot: float, lam: float) -> float:
    """Small-lam expansion qdot [1 + lam^2/6 - (lam^2/8)(q^2 + qdot^2)]."""
    l2 = lam * lam
    return qdot * (1.0 + l2 / 6.0 - 0.125 * l2 * (q * q + qdot * qdot))


def exact_q(q0: float, qdot0: float, lam: float, t) -> float | np.ndarray:
    """Closed-form q(t) = q0 cos(Omega t) + p0 sin(Omega t) from (q0, qdot0).

    p0 comes from the implicit momentum relation, and the orbit is
    sqrt(2) Re exact_alpha((q0 + i p0)/sqrt 2): the resummed form of the
    four-exponential solution.  ``t`` may be a scalar or an array.
    """
    p0 = momentum_from_velocity(q0, qdot0, lam)
    out = _SQRT2 * np.real(exact_alpha(complex(q0, p0) / _SQRT2, lam, t))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    alpha_sq_drift: float
    hq_drift: float
    max_exact_dev: float


def _step_grid(t_end: float, dt: float) -> tuple[float, int]:
    """(dt, n_steps) with dt snapped so the grid lands exactly on t_end."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    n_steps = max(1, round(t_end / dt))
    return t_end / n_steps, n_steps


def _rk4(q: float, p: float, lam: float, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of qdot = w p, pdot = -w q, w = omega_q((q^2+p^2)/2).

    The one integrator of the nonlinear flow alpha' = -i omega_q(|alpha|^2)
    alpha, alpha = (q + ip)/sqrt 2, shared by this module and ``level``.
    Scalar floats and math.cosh: for one trajectory this beats numpy.
    """
    c1 = lambda_over_sinh(lam)
    q_arr = np.empty(n_steps + 1)
    p_arr = np.empty(n_steps + 1)
    q_arr[0] = q
    p_arr[0] = p
    cosh = math.cosh
    for i in range(1, n_steps + 1):
        w = c1 * cosh(lam * 0.5 * (q * q + p * p))
        k1q, k1p = w * p, -w * q
        q2, p2 = q + 0.5 * dt * k1q, p + 0.5 * dt * k1p
        w = c1 * cosh(lam * 0.5 * (q2 * q2 + p2 * p2))
        k2q, k2p = w * p2, -w * q2
        q3, p3 = q + 0.5 * dt * k2q, p + 0.5 * dt * k2p
        w = c1 * cosh(lam * 0.5 * (q3 * q3 + p3 * p3))
        k3q, k3p = w * p3, -w * q3
        q4, p4 = q + dt * k3q, p + dt * k3p
        w = c1 * cosh(lam * 0.5 * (q4 * q4 + p4 * p4))
        k4q, k4p = w * p4, -w * q4
        q += dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        p += dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        q_arr[i] = q
        p_arr[i] = p
    return q_arr, p_arr


def integrate_eom(state0: ClassicalState, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 trajectory of qdot = omega_q p, pdot = -omega_q q.

    omega_q is evaluated at the instantaneous intensity (q^2+p^2)/2.
    Reports the max drift of the conserved |alpha|^2 and of the deformed
    Hamiltonian, plus the max deviation from the closed-form q(t).
    """
    lam = state0.lam
    dt, n_steps = _step_grid(t_end, dt)
    t_arr = np.arange(n_steps + 1) * dt
    q_arr, p_arr = _rk4(float(state0.q), float(state0.p), lam, dt, n_steps)

    intensity = 0.5 * (q_arr * q_arr + p_arr * p_arr)
    alpha_sq_drift = float(np.max(np.abs(intensity - intensity[0])))
    hq = np.array([hamiltonian_q(v, lam) for v in intensity])
    hq_drift = float(np.max(np.abs(hq - hq[0])))
    q_exact = _SQRT2 * exact_alpha(state0.alpha, lam, t_arr).real
    max_exact_dev = float(np.max(np.abs(q_arr - q_exact)))
    return Trajectory(t_arr, q_arr, p_arr, alpha_sq_drift, hq_drift, max_exact_dev)
