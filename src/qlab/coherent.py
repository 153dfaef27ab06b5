"""f-coherent (nonlinear coherent) states.

Normalized eigenvectors of the deformed annihilation operator A with
eigenvalue alpha, built from the recurrence c_{n+1} = c_n * alpha / sqrt(F(n+1))
in logs, summed outward from the peak of |c_n| so that no cutoff overflows
and no rounding piles up on the way to it.  Includes the scalar product
series, also in logs, and recovery of f from an arbitrary coefficient sequence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import deformation as dfm
from .errors import WORK_BUDGET, CutoffError, ParameterError
from .fock import _ladder

# Last-level probability, relative to the peak level, below which the truncated
# tail is negligible for every residual this module promises (an eigenvalue
# residual scales like |alpha|*|c_cutoff|, under 1e-9 for |alpha| up to a few).
# Past the peak the weights fall, so the first level under it is the least cutoff.
TAIL_PROBABILITY = 1e-20

# Significant bits kept in the high part of a phase: n times it is exact for
# every level n <= WORK_BUDGET.
_PHASE_BITS = 53 - WORK_BUDGET.bit_length()


class FCoherentState(NamedTuple):
    alpha: complex
    spec: dfm.DeformationSpec
    cutoff: int
    coeffs: np.ndarray
    tail_bound: float


def _log_magnitudes(alpha: complex, spec: dfm.DeformationSpec,
                    cutoff: int) -> tuple[int, np.ndarray]:
    """The peak level p and ln|c_n| - ln|c_p|, n = 0..cutoff, over the ladder
    s_n = sqrt(F(n+1)), whose SaturationError it raises.  The steps
    ln|alpha| - ln s_n fall with n, so p follows the last positive one and the
    logs are summed from it both ways; at p = 0, from c_0 = 1 as one cumsum."""
    log_abs_alpha = math.log(abs(alpha)) if alpha else -math.inf
    steps = log_abs_alpha - np.log(_ladder(cutoff + 1, spec, size="cutoff"))
    peak = int(np.count_nonzero(steps > 0.0))
    return peak, np.r_[-np.cumsum(steps[:peak][::-1])[::-1], 0.0, np.cumsum(steps[peak:])]


def _phases(theta: float, m: int) -> np.ndarray:
    """e^{i n theta} for n = 0..m, with theta split into a short high part,
    whose n-fold multiple is exact, and the remainder; a single rounded
    n * theta would be off by about n ulp(theta) at level n."""
    mantissa, exponent = math.frexp(theta)
    hi = math.ldexp(int(math.ldexp(mantissa, _PHASE_BITS)), exponent - _PHASE_BITS)
    n = np.arange(m + 1.0)
    return np.exp(1j * (n * hi)) * np.exp(1j * (n * (theta - hi)))


def build_f_coherent(alpha: complex, spec: dfm.DeformationSpec,
                     cutoff: int | None = None) -> FCoherentState:
    """Construct the truncated f-coherent state |alpha, f>.

    With cutoff=None the truncation level is the first of 32, 64, ... whose
    last level meets the tail rule (TAIL_PROBABILITY).  An explicit cutoff
    must meet the same rule, else it is a CutoffError whose required_cutoff
    is the smallest cutoff that does.  Where none up to errors.WORK_BUDGET
    does, either way ends in one ParameterError naming that budget; where F
    overflows below the cutoff, in the ladder's SaturationError.  At
    alpha = 0 it is the vacuum c_0 = 1, to the cutoff given or else to 1.
    """
    alpha = complex(alpha)
    m = 32 if cutoff is None else int(cutoff)
    if m < 1:
        raise ParameterError("cutoff must be >= 1")
    if alpha == 0:
        m = 1 if cutoff is None else m
        return FCoherentState(alpha, spec, m, np.eye(1, m + 1, dtype=complex)[0], 0.0)
    bound = 0.5 * math.log(TAIL_PROBABILITY)
    while True:
        peak, logs = _log_magnitudes(alpha, spec, m)
        if logs[-1] < bound:
            break
        if m >= WORK_BUDGET:
            raise ParameterError(f"no cutoff up to {WORK_BUDGET} leaves a negligible tail")
        m = min(2 * m, WORK_BUDGET)
    if cutoff is not None and m != cutoff:
        # the weights past the peak fall: the first below the bound is the least
        need = peak + int(np.searchsorted(-logs[peak:], -bound, side="right"))
        raise CutoffError(f"cutoff {cutoff} leaves a non-negligible tail", required_cutoff=need)

    # normalize: N = (sum |alpha|^{2n}/(n! [f]!^2))^{-1/2} = 1/sqrt(sum |c_n|^2),
    # kept as ln N = -lse/2 since N underflows; the peak term of the sum is 1
    lse = math.log(np.exp(2.0 * logs).sum())
    phase = math.atan2(alpha.imag, alpha.real)   # cmath.phase raises on a subnormal result
    coeffs = np.exp(logs - 0.5 * lse) * _phases(phase, m)
    tail = float(abs(coeffs[-1]) ** 2)
    return FCoherentState(alpha, spec, m, coeffs, tail)


def eigenvalue_residual(state: FCoherentState) -> float:
    """|| A |alpha,f> - alpha |alpha,f> ||, embedded in dimension cutoff + 2,
    so that the state's support sits strictly inside the truncated space.
    More zero levels would leave the residual as it is."""
    amps = np.r_[state.coeffs, 0.0]
    # (A v)_n = s_n v_{n+1}
    a_amps = np.r_[_ladder(state.cutoff + 2, state.spec, size="cutoff") * amps[1:], 0.0]
    return float(np.linalg.norm(a_amps - state.alpha * amps))


def scalar_product(state_a: FCoherentState, state_b: FCoherentState) -> complex:
    """<alpha,f | beta,f> by the normalization-series route.

    N_a N_b sum_n (conj(alpha) beta)^n / (n! [f(n)]!^2), summed to the
    common cutoff; equals the coefficient inner product to tail tolerance.
    Terms and normalizations are taken in logs from each state's peak,
    summed as a shifted log-sum-exp with the phases applied after, so that
    no term overflows and no N underflows (N does past |alpha| of about 38).
    """
    if state_a.spec != state_b.spec:
        raise ParameterError("scalar_product needs states of the same deformation")
    m = min(state_a.cutoff, state_b.cutoff)
    la, lb = (_log_magnitudes(s.alpha, s.spec, s.cutoff)[1] for s in (state_a, state_b))
    lse_a, lse_b = (math.log(np.exp(2.0 * x).sum()) for x in (la, lb))
    logs = la[:m + 1] + lb[:m + 1] - 0.5 * (lse_a + lse_b)
    a, b = state_a.alpha, state_b.alpha
    # conj(a) b with Im(conj(a) b) = Im(conj(a) (b - a)), in which no |a|^2 cancels
    z = complex((a.conjugate() * b).real, (a.conjugate() * (b - a)).imag)
    phases = _phases(math.atan2(z.imag, z.real), m)
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
