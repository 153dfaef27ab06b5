"""Deformed wave equation on a periodic 1-D grid.

The Cauchy data (phi, pi) determine a conserved invariant mu through an
implicit scalar equation; the field then obeys an ordinary wave equation
with constant speed f_q(mu) = (lam/sinh lam) cosh(lam mu), which is the
classical orbit frequency omega_q at intensity mu.  Each Fourier mode is a
harmonic oscillator of frequency |k| * speed, so time stepping is
spectrally exact and dt only affects output sampling.

Conventions: grid of N samples (power of two) on a periodic domain of
length L; the dynamics is expressed in the angle variable theta = 2 pi x/L,
and the mode index k is the integer DFT index (the L = 2 pi normalization).
DFT normalization: phi_hat_k = (1/N) sum_j phi_j e^{-2 pi i j k / N}.
Both phi and pi must have zero mean: the 1/|k| weight in mu is singular at
k = 0, so the invariant is undefined for data with a nonzero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .classical import omega_q
from .errors import ParameterError, SolverError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WaveField:
    """Periodic field snapshot with its conserved invariant.

    mu is recomputable from (phi, pi) at any time; speed = f_q(mu).
    """

    n: int
    length: float
    lam: float
    phi: np.ndarray
    pi: np.ndarray
    time: float
    mu: float
    speed: float

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)


def _validate_grid(phi: np.ndarray, pi: np.ndarray) -> None:
    n = phi.shape[0]
    if n < 4 or n & (n - 1):
        raise ParameterError("grid size must be a power of two, >= 4")
    if pi.shape != phi.shape:
        raise ParameterError("phi and pi must have the same length")
    scale = max(float(np.max(np.abs(phi))), float(np.max(np.abs(pi))), 1.0)
    if abs(float(np.mean(phi))) > 1e-12 * scale or abs(float(np.mean(pi))) > 1e-12 * scale:
        raise ParameterError("Cauchy data must have zero mean (k = 0 mode excluded)")


def fourier_modes(values: np.ndarray) -> np.ndarray:
    """DFT with the 1/N normalization; index k runs over the usual FFT order."""
    values = np.asarray(values, dtype=float)
    return np.fft.fft(values) / values.shape[0]


def _mode_numbers(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)  # integers 0, 1, ..., -1


def solve_mu(phi, pi, lam: float) -> tuple[float, float]:
    """Solve mu = sum_{k!=0} (1/(2|k|)) [k^2 |phi_k|^2 + |pi_k|^2 / f_q^2(mu)].

    The right side is continuous and strictly decreasing in mu (f_q grows
    with mu), so the fixed point is unique and bracketed by [0, RHS(0)];
    solved by bracketed root-finding to 1e-12.  Returns (mu, f_q(mu)).
    """
    phi = np.asarray(phi, dtype=float)
    pi = np.asarray(pi, dtype=float)
    _validate_grid(phi, pi)
    k = _mode_numbers(phi.shape[0])
    nz = k != 0
    ak = np.abs(k[nz])
    phi_hat = fourier_modes(phi)[nz]
    pi_hat = fourier_modes(pi)[nz]
    s_phi = float(np.sum(0.5 * ak * np.abs(phi_hat) ** 2))
    s_pi = float(np.sum(0.5 / ak * np.abs(pi_hat) ** 2))

    def rhs(mu: float) -> float:
        c = omega_q(mu, lam)
        return s_phi + s_pi / (c * c)

    upper = rhs(0.0)
    if upper == 0.0:
        return 0.0, omega_q(0.0, lam)
    try:
        mu = brentq(lambda m: rhs(m) - m, 0.0, upper, xtol=1e-13, rtol=8.9e-16)
    except ValueError as exc:
        raise SolverError(f"mu fixed point not bracketed: {exc}")
    return mu, omega_q(mu, lam)


def make_field(phi, pi, lam: float, length: float = TWO_PI) -> WaveField:
    phi = np.array(phi, dtype=float)
    pi = np.array(pi, dtype=float)
    mu, speed = solve_mu(phi, pi, lam)
    return WaveField(phi.shape[0], float(length), float(lam), phi, pi, 0.0, mu, speed)


def evolve(field: WaveField, t_end: float, dt: float | None = None,
           method: str = "spectral") -> WaveField:
    """Advance the field by t_end.

    "spectral" (default): every mode rotates exactly at frequency
    |k| * speed — one step to any t_end, no stability constraint.
    "leapfrog": second-order finite differences kept as a cross-check; this
    mode must satisfy dt <= dx/(pi * speed) with dx = 2 pi / N.
    """
    if method == "spectral":
        return _evolve_spectral(field, t_end)
    if method == "leapfrog":
        if dt is None or dt <= 0:
            raise ParameterError("leapfrog evolution needs a positive dt")
        bound = (TWO_PI / field.n) / (math.pi * field.speed)
        if dt > bound:
            raise ParameterError(
                f"dt = {dt} violates the stability bound dx/(pi*speed) = {bound:.3e}")
        return _evolve_leapfrog(field, t_end, dt)
    raise ParameterError(f"unknown evolution method: {method!r}")


def _evolve_spectral(field: WaveField, t_end: float) -> WaveField:
    n = field.n
    k = _mode_numbers(n)
    omega = np.abs(k) * field.speed
    phi_hat = np.fft.fft(field.phi) / n
    pi_hat = np.fft.fft(field.pi) / n
    cos = np.cos(omega * t_end)
    sin = np.sin(omega * t_end)
    # harmonic-oscillator rotation per mode; k = 0 has omega = 0 and stays 0
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_over = np.where(omega > 0, sin / np.where(omega > 0, omega, 1.0), t_end)
    phi_new = phi_hat * cos + pi_hat * sin_over
    pi_new = pi_hat * cos - phi_hat * omega * sin
    phi_t = np.fft.ifft(phi_new * n).real
    pi_t = np.fft.ifft(pi_new * n).real
    mu, _ = solve_mu(phi_t, pi_t, field.lam)
    return replace(field, phi=phi_t, pi=pi_t, time=field.time + t_end, mu=mu)


def _evolve_leapfrog(field: WaveField, t_end: float, dt: float) -> WaveField:
    n = field.n
    dx = TWO_PI / n
    c2 = field.speed ** 2
    steps = max(1, round(t_end / dt))
    dt = t_end / steps

    def lap(u):
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)

    phi = field.phi.copy()
    pi = field.pi.copy()
    # kick-drift-kick (velocity Verlet) on phi_tt = c^2 phi_xx
    acc = c2 * lap(phi)
    for _ in range(steps):
        pi_half = pi + 0.5 * dt * acc
        phi = phi + dt * pi_half
        acc = c2 * lap(phi)
        pi = pi_half + 0.5 * dt * acc
    mu, _ = solve_mu(phi, pi, field.lam)
    return replace(field, phi=phi, pi=pi, time=field.time + t_end, mu=mu)


def spectral_shift(values: np.ndarray, delta: float) -> np.ndarray:
    """Translate a periodic sample set by +delta: result(theta) = values(theta - delta)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    k = _mode_numbers(n)
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * k * delta)).real


def _band_limit_check(profile: np.ndarray) -> None:
    n = profile.shape[0]
    spec = np.abs(np.fft.fft(profile)) / n
    cutoff = n // 4
    k = np.abs(_mode_numbers(n))
    if np.max(spec[k >= cutoff]) > 1e-12 * max(np.max(spec), 1e-300):
        raise ParameterError("profile must be band-limited below N/4")


def traveling_field(profile, direction: int, lam: float,
                    length: float = TWO_PI) -> WaveField:
    """Cauchy data for a shape-preserving traveling wave.

    For this data the invariant decouples: mu = 2 * sum (|k|/2)|phi_k|^2
    exactly, independent of the speed, because pi = -direction * speed *
    dprofile/dtheta makes the pi contribution equal the phi contribution.
    direction +1 moves toward increasing theta.
    """
    if direction not in (-1, 1):
        raise ParameterError("direction must be +1 or -1")
    profile = np.array(profile, dtype=float)
    _band_limit_check(profile)
    k = _mode_numbers(profile.shape[0])
    phi_hat = np.fft.fft(profile)
    s_phi = float(np.sum(0.5 * np.abs(k) * np.abs(phi_hat / profile.shape[0]) ** 2))
    mu = 2.0 * s_phi
    speed = omega_q(mu, lam)
    dprofile = np.fft.ifft(1j * k * phi_hat).real
    pi = -direction * speed * dprofile
    field = make_field(profile, pi, lam, length)
    if abs(field.mu - mu) > 1e-9 * max(mu, 1.0):
        raise SolverError(f"traveling-wave mu inconsistent: {field.mu} vs {mu}")
    return field


def soliton_check(profile, direction: int, lam: float, t_end: float,
                  length: float = TWO_PI) -> float:
    """Max pointwise deviation from pure translation after evolving to t_end.

    Builds traveling-wave Cauchy data from the profile, evolves, and
    compares with the profile circularly shifted by direction*speed*t_end.
    """
    field = traveling_field(profile, direction, lam, length)
    evolved = evolve(field, t_end)
    expected = spectral_shift(field.phi, direction * field.speed * t_end)
    return float(np.max(np.abs(evolved.phi - expected)))


def energy(field: WaveField) -> float:
    """Mode-oscillator energy sum (1/2)[k^2 |phi_k|^2 + |pi_k|^2 / speed^2]."""
    k = _mode_numbers(field.n)
    nz = k != 0
    phi_hat = fourier_modes(field.phi)[nz]
    pi_hat = fourier_modes(field.pi)[nz]
    c2 = field.speed ** 2
    return float(np.sum(0.5 * (k[nz] ** 2 * np.abs(phi_hat) ** 2
                               + np.abs(pi_hat) ** 2 / c2)))
