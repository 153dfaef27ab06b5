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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .classical import _newton_bisect, _step_count, omega_q
from .deformation import _SINH_MAX_ARG, _log_cosh, _log_sinh, _sech, lambda_over_sinh
from .errors import ParameterError, SaturationError, SolverError

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
    if abs(float(np.mean(phi / scale))) > 1e-12 or abs(float(np.mean(pi / scale))) > 1e-12:
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
    solved by safeguarded Newton on RHS(mu) - mu, written with sech so that
    it cannot overflow.  Where (lam/sinh lam)^2 leaves the normal range
    (|lam| past about 361) the pi term is taken in logs (_solve_mu_in_logs).
    Returns (mu, f_q(mu)).
    """
    phi = np.asarray(phi, dtype=float)
    pi = np.asarray(pi, dtype=float)
    _validate_grid(phi, pi)
    return _invariant(phi, pi, lam)


def _invariant(phi: np.ndarray, pi: np.ndarray, lam: float) -> tuple[float, float]:
    """solve_mu unchecked, for evolve's output, whose mean rounding moves off 0."""
    k = _mode_numbers(phi.shape[0])
    nz = k != 0
    ak = np.abs(k[nz])
    with np.errstate(over="ignore", invalid="ignore"):  # too large data fail below
        phi_hat = fourier_modes(phi)[nz]
        pi_hat = fourier_modes(pi)[nz]
        s_phi = float(np.sum(0.5 * ak * np.abs(phi_hat) ** 2))
        s_pi = float(np.sum(0.5 / ak * np.abs(pi_hat) ** 2))
    if not s_phi + s_pi < math.inf:
        raise ParameterError("Cauchy data too large: the invariant mu overflows")
    l2 = lambda_over_sinh(lam) ** 2
    if s_pi and not (l2 >= sys.float_info.min and s_pi / l2 < math.inf):
        return _solve_mu_in_logs(s_phi, s_pi, abs(lam))
    s_pi_scaled = s_pi / l2 if s_pi else 0.0

    def fdf(mu: float) -> tuple[float, float]:
        # RHS(mu) = s_phi + s_pi / f_q(mu)^2, f_q = (lam/sinh lam) cosh(lam mu)
        s = s_pi_scaled * _sech(lam * mu) ** 2
        return s_phi + s - mu, -2.0 * lam * s * math.tanh(lam * mu) - 1.0

    mu = _newton_bisect(fdf, 0.0, s_phi + s_pi_scaled)
    return mu, omega_q(mu, lam)


def _solve_mu_in_logs(s_phi: float, s_pi: float, a: float) -> tuple[float, float]:
    """solve_mu's fixed point with s_pi/f_q(mu)^2 = e^{ln s_pi - 2 ln f_q(mu)},
    on [0, _SINH_MAX_ARG/a], the intensities omega_q accepts.  A root past
    that bound raises the SaturationError that omega_q would."""
    ln_s = math.log(s_pi) + 2.0 * (_log_sinh(a) - math.log(a))
    mu_max = _SINH_MAX_ARG / a

    def fdf(mu: float) -> tuple[float, float]:
        e = ln_s - 2.0 * _log_cosh(a * mu)
        s = math.exp(e) if e < _SINH_MAX_ARG else math.inf
        return s_phi + s - mu, -2.0 * a * s * math.tanh(a * mu) - 1.0

    if fdf(mu_max)[0] > 0.0:
        safe = int(mu_max)
        raise SaturationError(f"the wave invariant mu at lambda = {a!r} is past the "
                              f"largest safe intensity {safe}", largest_safe_n=safe)
    mu = _newton_bisect(fdf, 0.0, mu_max)
    return mu, omega_q(mu, a)


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
    mode must satisfy dt <= dx/(pi * speed) with dx = 2 pi / N, and take at
    most errors.WORK_BUDGET steps of dt toward t_end (backward if negative).
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
        return _evolve_leapfrog(field, t_end, _step_count(t_end, dt, "leapfrog"))
    raise ParameterError(f"unknown evolution method: {method!r}")


def _evolve_spectral(field: WaveField, t_end: float) -> WaveField:
    n = field.n
    k = _mode_numbers(n)
    omega = np.abs(k) * field.speed
    if not abs(t_end) * field.speed * (n // 2) < math.inf:  # the largest phase |k| speed t
        raise ParameterError(f"t_end = {t_end!r} takes the mode phases past the double range")
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
    mu, _ = _invariant(phi_t, pi_t, field.lam)
    return replace(field, phi=phi_t, pi=pi_t, time=field.time + t_end, mu=mu)


def _evolve_leapfrog(field: WaveField, t_end: float, steps: int) -> WaveField:
    n = field.n
    dx = TWO_PI / n
    dx2 = dx * dx
    c2 = field.speed ** 2
    dt = t_end / steps
    half_dt = 0.5 * dt

    # phi lives in u[1:-1]; u[0] and u[-1] are ghost copies of phi[-1] and
    # phi[0], so the periodic neighbours of phi are the slices u[2:], u[:-2]
    u = np.empty(n + 2)
    phi, right, left = u[1:-1], u[2:], u[:-2]
    phi[:] = field.phi
    pi = field.pi.copy()
    acc = np.empty(n)
    kick = np.empty(n)

    def accelerate():   # acc = c^2 ((phi[i+1] - 2 phi[i]) + phi[i-1]) / dx^2
        u[0], u[-1] = u[-2], u[1]
        np.multiply(phi, 2.0, out=acc)
        np.subtract(right, acc, out=acc)
        np.add(acc, left, out=acc)
        np.divide(acc, dx2, out=acc)
        np.multiply(acc, c2, out=acc)

    # kick-drift-kick (velocity Verlet) on phi_tt = c^2 phi_xx, in place
    accelerate()
    for _ in range(steps):
        pi += np.multiply(acc, half_dt, out=kick)
        phi += np.multiply(pi, dt, out=kick)
        accelerate()
        pi += np.multiply(acc, half_dt, out=kick)
    phi = phi.copy()
    mu, _ = _invariant(phi, pi, field.lam)
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
    _validate_grid(profile, np.zeros_like(profile))  # the grid, before any FFT of it
    with np.errstate(over="ignore", invalid="ignore"):  # too large a mu saturates below
        _band_limit_check(profile)
        k = _mode_numbers(profile.shape[0])
        phi_hat = np.fft.fft(profile)
        mu = 2.0 * float(np.sum(0.5 * np.abs(k) * np.abs(phi_hat / profile.shape[0]) ** 2))
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
    p2 = np.abs(pi_hat) ** 2
    with np.errstate(divide="ignore"):  # a speed that underflows to 0 leaves pi = 0 at 0
        pi_term = np.divide(p2, field.speed ** 2, out=np.zeros_like(p2), where=p2 > 0)
    return float(np.sum(0.5 * (k[nz] ** 2 * np.abs(phi_hat) ** 2 + pi_term)))
