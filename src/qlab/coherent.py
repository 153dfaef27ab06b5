"""f-coherent (nonlinear coherent) states.

Normalized eigenvectors of the deformed annihilation operator A with
eigenvalue alpha, built from the recurrence
c_{n+1} = c_n * alpha / (sqrt(n+1) f(n+1)) in the log-magnitude domain so
that cutoffs beyond 150 levels cannot overflow.  Includes the scalar
product series, and recovery of f from an arbitrary coefficient sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deformation as dfm
from .errors import CutoffError, ParameterError, SolverError
from .fock import FockState, _ladder

# Last-level probability below which the truncated tail is negligible for
# every residual this module promises (an eigenvalue residual scales like
# |alpha|*|c_cutoff| and must stay under 1e-9 for |alpha| up to a few).
TAIL_PROBABILITY = 1e-20

_MAX_CUTOFF = 1 << 15


@dataclass(frozen=True)
class FCoherentState:
    alpha: complex
    spec: dfm.DeformationSpec
    cutoff: int
    coeffs: np.ndarray
    norm_factor: float
    tail_bound: float


def _log_magnitudes(alpha: complex, spec: dfm.DeformationSpec, cutoff: int) -> np.ndarray:
    """ln |c_n| for the unnormalized recurrence, c_0 = 1."""
    log_abs_alpha = math.log(abs(alpha))
    out = np.empty(cutoff + 1)
    out[0] = 0.0
    acc = 0.0
    for n in range(1, cutoff + 1):
        acc += log_abs_alpha - 0.5 * math.log(n) - math.log(dfm.f_of_n(n, spec))
        out[n] = acc
    return out


def build_f_coherent(alpha: complex, spec: dfm.DeformationSpec,
                     cutoff: int | None = None) -> FCoherentState:
    """Construct the truncated f-coherent state |alpha, f>.

    With cutoff=None the truncation level doubles until the last-level
    probability drops below TAIL_PROBABILITY and the terms decay
    geometrically.  An explicit cutoff is validated against the same tail
    estimate and rejected if too small to meet the module's residual
    contracts.
    """
    alpha = complex(alpha)
    if alpha == 0:
        coeffs = np.zeros(2, dtype=complex)
        coeffs[0] = 1.0
        return FCoherentState(alpha, spec, 1, coeffs, 1.0, 0.0)

    if cutoff is None:
        m = 32
        while True:
            logs = _log_magnitudes(alpha, spec, m)
            if 2.0 * (logs[-1] - logs.max()) < math.log(TAIL_PROBABILITY) \
                    and logs[-1] < logs[-2]:
                break
            if m >= _MAX_CUTOFF:
                raise SolverError("coefficient series shows no geometric decay "
                                  f"below cutoff {m}")
            m *= 2
    else:
        m = int(cutoff)
        if m < 1:
            raise ParameterError("cutoff must be >= 1")
        logs = _log_magnitudes(alpha, spec, m)
        if 2.0 * (logs[-1] - logs.max()) >= math.log(1e-10) or logs[-1] >= logs[-2]:
            # estimate the requirement by the same doubling rule
            need = m
            while need < _MAX_CUTOFF:
                need *= 2
                trial = _log_magnitudes(alpha, spec, need)
                if 2.0 * (trial[-1] - trial.max()) < math.log(TAIL_PROBABILITY) \
                        and trial[-1] < trial[-2]:
                    break
            raise CutoffError(f"cutoff {m} leaves a non-negligible tail",
                              required_cutoff=need)

    # normalize via log-sum-exp; the normalization factor is the series
    # value N = (sum |alpha|^{2n}/(n! [f]!^2))^{-1/2} = 1/sqrt(sum |c_n|^2)
    two_logs = 2.0 * logs
    peak = two_logs.max()
    lse = peak + math.log(np.exp(two_logs - peak).sum())
    norm_factor = math.exp(-0.5 * lse)
    phase = math.atan2(alpha.imag, alpha.real)   # cmath.phase raises on a subnormal result
    phases = np.exp(1j * phase * np.arange(m + 1))
    coeffs = np.exp(logs - 0.5 * lse) * phases
    tail = float(abs(coeffs[-1]) ** 2)
    return FCoherentState(alpha, spec, m, coeffs, norm_factor, tail)


def eigenvalue_residual(state: FCoherentState, dim: int | None = None) -> float:
    """|| A |alpha,f> - alpha |alpha,f> ||, embedded in dimension dim.

    dim defaults to cutoff + 2 and must be at least that, so the state's
    support sits strictly inside the truncated space.
    """
    if dim is None:
        dim = state.cutoff + 2
    if dim < state.cutoff + 2:
        raise ParameterError("dim must be >= cutoff + 2")
    amps = np.zeros(dim, dtype=complex)
    amps[:state.coeffs.shape[0]] = state.coeffs
    a_amps = np.zeros(dim, dtype=complex)
    a_amps[:-1] = _ladder(dim, state.spec) * amps[1:]   # (A v)_n = s_n v_{n+1}
    return float(np.linalg.norm(a_amps - state.alpha * amps))


def as_fock_state(state: FCoherentState, dim: int | None = None) -> FockState:
    if dim is None:
        dim = state.cutoff + 2
    amps = np.zeros(dim, dtype=complex)
    amps[:state.coeffs.shape[0]] = state.coeffs
    return FockState(dim, amps)


def scalar_product(state_a: FCoherentState, state_b: FCoherentState) -> complex:
    """<alpha,f | beta,f> by the normalization-series route.

    N_a N_b sum_n (conj(alpha) beta)^n / (n! [f(n)]!^2), summed to the
    common cutoff; equals the coefficient inner product to tail tolerance.
    """
    if state_a.spec != state_b.spec:
        raise ParameterError("scalar_product needs states of the same deformation")
    m = min(state_a.cutoff, state_b.cutoff)
    z = state_a.alpha.conjugate() * state_b.alpha
    term = 1.0 + 0j
    total = term
    for n in range(1, m + 1):
        f = dfm.f_of_n(n, state_a.spec)
        term *= z / (n * f * f)
        total += term
    return state_a.norm_factor * state_b.norm_factor * total


def f_from_coefficients(c_values) -> np.ndarray:
    """Recover f(1)..f(m) from a coefficient sequence: f(n) = C_{n-1}/(C_n sqrt n).

    Any nonzero reals are accepted; f positivity requires a sign-constant
    sequence.  Round-trip: a state built from these f-values reproduces the
    coefficient ratios up to global normalization.
    """
    c = np.asarray(c_values, dtype=float)
    if c.ndim != 1 or c.shape[0] < 2:
        raise ParameterError("need at least two coefficients")
    if np.any(c == 0.0):
        raise ParameterError("degenerate sequence: zero coefficient")
    n = np.arange(1, c.shape[0])
    return c[:-1] / (c[1:] * np.sqrt(n))
