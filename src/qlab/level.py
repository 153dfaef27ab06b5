"""One-level system as a classical-like oscillator.

The wave function maps to a phase-space point via
psi = (1/sqrt 2)(omega q + i p); the deformed dynamics turns the
Schroedinger equation into i psidot = (lam/sinh lam) cosh(lam |psi|^2) psi,
whose exact solution is a phase rotation at the amplitude-dependent
frequency shared with the classical module.  With psi = (q + ip)/sqrt 2
the equation is the classical flow, so the RK4 track is classical._rk4:
one step factor G(|psi|^2), taken as a rotation by k arg G at step k.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .classical import _SQRT2, _intensity, _rk4, _step_grid, exact_alpha, omega_q
from .errors import _BLOCK, ParameterError

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


class LevelEvolution(NamedTuple):
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
    Omega = (lam/sinh lam) cosh(lam |psi0|^2); the RK4 track is the classical
    integrator's, since psi = (q + ip)/sqrt 2 turns the equation into the
    classical flow: RK4's step factor at |psi0|^2, projected onto the
    conserved |psi|, so the track turns by arg G a step where the exact
    solution turns by Omega dt.  Reports their max deviation and the norm
    drift of the RK4 track, which is rounding alone, in blocks of _BLOCK
    steps: only t and the two complex tracks span the run, 40 MB at WORK_BUDGET.
    """
    import numpy as np

    psi0 = complex(psi0)
    t_arr, dt, n_steps = _step_grid(t_end, dt)
    rk4 = np.empty(n_steps + 1, complex)  # holds q + ip first, then psi, a block at a time
    _rk4(_SQRT2 * psi0.real, _SQRT2 * psi0.imag, lam, dt, n_steps, out=(rk4.real, rk4.imag))
    exact, peaks = np.empty_like(rk4), np.zeros(2)  # peaks: the deviation, the norm drift
    for start in range(0, n_steps + 1, _BLOCK):
        b = slice(start, start + _BLOCK)
        np.divide(rk4[b].real + 1j * rk4[b].imag, _SQRT2, out=rk4[b])
        exact[b] = exact_alpha(psi0, lam, t_arr[b])
        np.maximum(peaks, [np.max(np.abs(rk4[b] - exact[b])),
                           np.max(np.abs(np.abs(rk4[b]) - abs(psi0)))], out=peaks)
    return LevelEvolution(t_arr, exact, rk4, omega_q(_intensity(psi0), lam), *peaks.tolist())
