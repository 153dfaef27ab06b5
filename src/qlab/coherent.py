"""f-coherent (nonlinear coherent) states.

Normalized eigenvectors of the deformed annihilation operator A with
eigenvalue alpha, built from the recurrence
c_{n+1} = c_n * alpha / sqrt(F(n+1)) as one cumsum of logs, so that cutoffs
beyond 150 levels cannot overflow.  Includes the scalar product series,
also in logs, and recovery of f from an arbitrary coefficient sequence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import deformation as dfm
from .errors import CutoffError, ParameterError, SolverError
from .fock import FockState, _ladder

# Last-level probability below which the truncated tail is negligible for
# every residual this module promises (an eigenvalue residual scales like
# |alpha|*|c_cutoff| and must stay under 1e-9 for |alpha| up to a few).
TAIL_PROBABILITY = 1e-20

_MAX_CUTOFF = 1 << 15


class FCoherentState(NamedTuple):
    alpha: complex
    spec: dfm.DeformationSpec
    cutoff: int
    coeffs: np.ndarray
    tail_bound: float


def _log_magnitudes(alpha: complex, spec: dfm.DeformationSpec, cutoff: int) -> np.ndarray:
    """ln |c_n|, n = 0..cutoff, of the unnormalized recurrence c_0 = 1 over
    the ladder s_n = sqrt(F(n+1)), whose SaturationError it raises."""
    log_abs_alpha = math.log(abs(alpha)) if alpha else -math.inf
    return np.r_[0.0, np.cumsum(log_abs_alpha - np.log(_ladder(cutoff + 1, spec)))]


def _log_sum_exp(x: np.ndarray) -> float:
    peak = x.max()
    return peak + math.log(np.exp(x - peak).sum())


def _decaying_cutoff(alpha: complex, spec: dfm.DeformationSpec,
                     m: int) -> tuple[int, np.ndarray]:
    """The first of m, 2m, ... (to _MAX_CUTOFF), and its ln |c_n|, whose last
    level weighs below TAIL_PROBABILITY of the largest and still decays."""
    while True:
        logs = _log_magnitudes(alpha, spec, m)
        if (2.0 * (logs[-1] - logs.max()) < math.log(TAIL_PROBABILITY)
                and logs[-1] < logs[-2]):
            return m, logs
        if m >= _MAX_CUTOFF:
            raise SolverError("coefficient series shows no geometric decay "
                              f"below cutoff {m}")
        m = min(2 * m, _MAX_CUTOFF)


def build_f_coherent(alpha: complex, spec: dfm.DeformationSpec,
                     cutoff: int | None = None) -> FCoherentState:
    """Construct the truncated f-coherent state |alpha, f>.

    With cutoff=None the truncation level doubles from 32 until it meets
    the tail rule (_decaying_cutoff).  An explicit cutoff must meet the same
    rule, else it is a CutoffError whose required_cutoff is the first of its
    doublings that does.  Where none up to _MAX_CUTOFF does, either way ends
    in one SolverError naming that cap; where F overflows below the cutoff,
    in the ladder's SaturationError.
    """
    alpha = complex(alpha)
    if alpha == 0:
        coeffs = np.zeros(2, dtype=complex)
        coeffs[0] = 1.0
        return FCoherentState(alpha, spec, 1, coeffs, 0.0)
    start = 32 if cutoff is None else int(cutoff)
    if start < 1:
        raise ParameterError("cutoff must be >= 1")
    m, logs = _decaying_cutoff(alpha, spec, start)
    if cutoff is not None and m != start:
        raise CutoffError(f"cutoff {start} leaves a non-negligible tail", required_cutoff=m)

    # normalize via log-sum-exp: N = (sum |alpha|^{2n}/(n! [f]!^2))^{-1/2}
    # = 1/sqrt(sum |c_n|^2), kept as ln N = -lse/2 since N underflows
    lse = _log_sum_exp(2.0 * logs)
    phase = math.atan2(alpha.imag, alpha.real)   # cmath.phase raises on a subnormal result
    coeffs = np.exp(logs - 0.5 * lse) * np.exp(1j * phase * np.arange(m + 1))
    tail = float(abs(coeffs[-1]) ** 2)
    return FCoherentState(alpha, spec, m, coeffs, tail)


def eigenvalue_residual(state: FCoherentState, dim: int | None = None) -> float:
    """|| A |alpha,f> - alpha |alpha,f> ||, embedded in dimension dim.

    dim defaults to cutoff + 2 and must be at least that, so the state's
    support sits strictly inside the truncated space.
    """
    dim = state.cutoff + 2 if dim is None else dim
    if dim < state.cutoff + 2:
        raise ParameterError("dim must be >= cutoff + 2")
    amps = np.zeros(dim, dtype=complex)
    amps[:state.coeffs.shape[0]] = state.coeffs
    a_amps = np.r_[_ladder(dim, state.spec) * amps[1:], 0.0]   # (A v)_n = s_n v_{n+1}
    return float(np.linalg.norm(a_amps - state.alpha * amps))


def as_fock_state(state: FCoherentState, dim: int | None = None) -> FockState:
    dim = state.cutoff + 2 if dim is None else dim
    amps = np.zeros(dim, dtype=complex)
    amps[:state.coeffs.shape[0]] = state.coeffs
    return FockState(dim, amps)


def scalar_product(state_a: FCoherentState, state_b: FCoherentState) -> complex:
    """<alpha,f | beta,f> by the normalization-series route.

    N_a N_b sum_n (conj(alpha) beta)^n / (n! [f(n)]!^2), summed to the
    common cutoff; equals the coefficient inner product to tail tolerance.
    Terms and normalizations are taken in logs, summed as a shifted
    log-sum-exp with the phases applied after, so that no term overflows
    and no N underflows (N does past |alpha| of about 38).
    """
    if state_a.spec != state_b.spec:
        raise ParameterError("scalar_product needs states of the same deformation")
    m = min(state_a.cutoff, state_b.cutoff)
    la, lb = (_log_magnitudes(s.alpha, s.spec, s.cutoff) for s in (state_a, state_b))
    logs = la[:m + 1] + lb[:m + 1] - 0.5 * (_log_sum_exp(2.0 * la) + _log_sum_exp(2.0 * lb))
    z = state_a.alpha.conjugate() * state_b.alpha
    phases = np.exp(1j * math.atan2(z.imag, z.real) * np.arange(m + 1))
    peak = logs.max()
    return complex(math.exp(peak) * np.sum(np.exp(logs - peak) * phases))


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
