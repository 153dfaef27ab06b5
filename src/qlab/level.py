"""One-level system as a classical-like oscillator.

The wave function maps to a phase-space point via
psi = (1/sqrt 2)(omega q + i p); the deformed dynamics turns the
Schroedinger equation into i psidot = (lam/sinh lam) cosh(lam |psi|^2) psi,
whose exact solution is a phase rotation at the amplitude-dependent
frequency shared with the classical module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .classical import _SQRT2, _rk4, _step_grid, exact_alpha, omega_q
from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np


def psi_to_phase_space(psi: complex, omega: float = 1.0) -> tuple[float, float]:
    """(q, p) with q = sqrt(2) Re(psi)/omega, p = sqrt(2) Im(psi)."""
    if omega <= 0:
        raise ParameterError("omega must be positive")
    return math.sqrt(2.0) * psi.real / omega, math.sqrt(2.0) * psi.imag


def phase_space_to_psi(q: float, p: float, omega: float = 1.0) -> complex:
    if omega <= 0:
        raise ParameterError("omega must be positive")
    return complex(omega * q, p) / math.sqrt(2.0)


@dataclass(frozen=True)
class LevelEvolution:
    t: np.ndarray
    psi_exact: np.ndarray
    psi_rk4: np.ndarray
    frequency: float
    max_deviation: float
    norm_drift: float


def evolve_one_level(psi0: complex, lam: float, t_end: float,
                     dt: float = 1e-3) -> LevelEvolution:
    """Exact and RK4 evolution of i psidot = omega_q(|psi|^2) psi.

    The exact solution is psi0 e^{-i Omega t} with
    Omega = (lam/sinh lam) cosh(lam |psi0|^2); the RK4 track integrates the
    nonlinear right side blindly with the classical integrator, since
    psi = (q + ip)/sqrt 2 turns the equation into the classical flow.
    Reports their max deviation and the norm drift of the integrated track
    (|psi| is conserved by the flow).
    """
    import numpy as np

    psi0 = complex(psi0)
    t_arr, dt, n_steps = _step_grid(t_end, dt)
    q, p = _rk4(_SQRT2 * psi0.real, _SQRT2 * psi0.imag, lam, dt, n_steps)
    rk4 = (q + 1j * p) / _SQRT2
    exact = exact_alpha(psi0, lam, t_arr)
    max_dev = float(np.max(np.abs(rk4 - exact)))
    norm_drift = float(np.max(np.abs(np.abs(rk4) - abs(psi0))))
    return LevelEvolution(t_arr, exact, rk4, omega_q(abs(psi0) ** 2, lam),
                          max_dev, norm_drift)
