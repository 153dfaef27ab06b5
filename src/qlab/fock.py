"""Truncated Fock-space ladder operators and identity checks.

The deformed annihilation matrix in the number basis, residual checks for
the deformed commutation and reordering relations, the linearoid
reconstruction a = A / f(F^{-1}(N)), the Heisenberg and rotating-frame
equations of motion, the spectrum of A†A, and quadrature uncertainty
products.

The checks are banded.  A = a f(N) has one superdiagonal, s_n = sqrt(F(n+1)),
so A A† = diag(s^2, 0), A† A = diag(0, s^2), and A shifts a vector by one
place: each check is O(dim), and none builds a dense matrix or solves an
eigenproblem; F, phi and F^{-1} come from array calls into ``deformation``.
deformed_annihilation is the one dense constructor, for callers that want
the matrix itself.

Identities that hold in infinite dimension necessarily fail at the
truncation edge, so every check excludes the last basis state.  All
residuals are measured relative to the local operator scale, max(1,
|entries involved|): q-numbers grow like e^{lam*n}, so an eps-level
relative error is the honest floating-point statement of "the identity holds".
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import deformation as dfm
from .errors import ParameterError, SaturationError


class FockMatrix(NamedTuple):
    """Dense operator in the truncated number basis: identities involving
    products of two ladder operators are only exact on the first dim-1
    basis states.
    """

    dim: int
    entries: np.ndarray


class _StateFields(NamedTuple):
    dim: int
    amplitudes: np.ndarray
    norm: float


class FockState(_StateFields):
    """A state vector of the truncated number basis: FockState(dim, amplitudes)
    coerces the amplitudes to complex and computes their norm."""

    __slots__ = ()

    def __new__(cls, dim: int, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise ParameterError("amplitude vector length must equal dim")
        return super().__new__(cls, dim, amps, float(np.linalg.norm(amps)))

    def __getnewargs__(self):  # copy and pickle pass __new__ its own arguments
        return self.dim, self.amplitudes

    @classmethod
    def basis(cls, dim: int, n: int) -> "FockState":
        if not 0 <= n < dim:
            raise ParameterError(f"basis index {n} outside 0..{dim - 1}")
        amps = np.zeros(dim, dtype=complex)
        amps[n] = 1.0
        return cls(dim, amps)


def _ladder(dim: int, spec: dfm.DeformationSpec, minimum: int = 2,
            size: str = "dim") -> np.ndarray:
    """The superdiagonal of A: s_n = sqrt(F(n+1)) for n = 0..dim-2.  An
    overflowing F names ``size``, the caller's parameter that sets dim."""
    if dim < minimum:
        raise ParameterError(f"dimension must be >= {minimum}, got {dim}")
    big = dfm.big_f(np.arange(1.0, dim), spec)
    if not np.isfinite(big).all():
        n = int(np.isfinite(big).argmin())
        raise SaturationError(f"F({n + 1}) overflows double range; reduce {size} or |lam|",
                              largest_safe_n=n)
    return np.sqrt(big)


def deformed_annihilation(dim: int, spec: dfm.DeformationSpec) -> FockMatrix:
    """Deformed ladder matrix A = a f(n): entry (n, n+1) = sqrt(F(n+1))."""
    s = _ladder(dim, spec)
    m = np.zeros((dim, dim), dtype=complex)
    m[np.arange(dim - 1), np.arange(1, dim)] = s
    return FockMatrix(dim, m)


def _scaled_max_residual(delta: np.ndarray, *terms: np.ndarray) -> float:
    scale = np.ones_like(delta, dtype=float)
    for t in terms:
        scale = np.maximum(scale, np.abs(t))
    return float(np.max(np.abs(delta) / scale))


def _ordered_residual(s: np.ndarray, q: float, target: np.ndarray) -> float:
    """Scale-relative residual of A A† - q A† A = diag(target) on the first
    dim-1 states, where A A† = diag(s^2, 0) and A† A = diag(0, s^2).  The
    callers build the ladder s first, so that an F past the double range is
    a SaturationError before the target is evaluated."""
    p1 = s * s
    p2 = q * np.r_[0.0, p1[:-1]]
    return _scaled_max_residual(p1 - p2 - target, p1, p2, target)


def check_commutator(dim: int, spec: dfm.DeformationSpec) -> float:
    """Residual of A A† - A† A = diag(phi(n)) on the first dim-1 states.

    Returns the max entry of the difference, relative to the local operator
    scale.  The excluded last diagonal entry is O(F(dim)) by construction —
    the structural truncation failure, not a defect.
    """
    s = _ladder(dim, spec, 3)
    return _ordered_residual(s, 1.0, dfm.phi_of_z(np.arange(dim - 1.0), spec))


def check_reordering(dim: int, lam: float) -> float:
    """Residual of A A† - e^lam A† A = diag(e^{-lam n}) on the first dim-1 states."""
    s = _ladder(dim, dfm.q_deform(lam), 3)
    return _ordered_residual(s, math.exp(lam), np.exp(-lam * np.arange(dim))[:-1])


def _number_diagonal(s: np.ndarray) -> np.ndarray:
    return np.r_[0.0, s * s]   # N = A† A = diag(0, s^2)


def linearoid_roundtrip(dim: int, spec: dfm.DeformationSpec) -> float:
    """Reconstruct a from A via A / f(F^{-1}(N)), N = A†A.

    Returns the max absolute deviation from the standard ladder, entry
    (n, n+1) = sqrt(n+1), over the first dim-1 states (entries are O(sqrt(dim)), so absolute is meaningful here).
    """
    s = _ladder(dim, spec)
    inv_f = 1.0 / dfm.f_of_n(dfm.big_f_inverse(_number_diagonal(s), spec), spec)
    recon = s * inv_f[1:]   # the superdiagonal of A diag(inv_f)
    return float(np.max(np.abs(recon - np.sqrt(np.arange(1.0, dim)))[:-1], initial=0.0))


def heisenberg_residual(dim: int, spec: dfm.DeformationSpec) -> float:
    """Residual of [A, n + 1/2] = A on the first dim-1 states.

    Vanishes for every deformation — the linearoid preserves the linear
    Heisenberg equation of motion.  Scale-relative, like the other checks.
    """
    s = _ladder(dim, spec, 3)[:-1]
    p1 = s * np.arange(1.5, dim - 1)   # (A H)_{n,n+1} = s_n (n + 3/2)
    p2 = np.arange(0.5, dim - 2) * s   # (H A)_{n,n+1} = (n + 1/2) s_n
    return _scaled_max_residual(p1 - p2 - s, p1, p2, s)


def evolution_residual(dim: int, spec: dfm.DeformationSpec, t: float) -> float:
    """Scale-relative deviation of e^{iHt} A e^{-iHt} from e^{-it} A (H = diag(n+1/2)).

    The rotating-frame statement of the same deformation-independent
    dynamics; diagonal H, so the conjugation is exact phase multiplication.
    """
    s = _ladder(dim, spec)
    phases = np.exp(1j * (np.arange(dim) + 0.5) * t)
    rotated = phases[:-1] * s * phases[1:].conj()
    return _scaled_max_residual(rotated - np.exp(-1j * t) * s, s)


def spectrum_check(dim: int, spec: dfm.DeformationSpec) -> float:
    """Max scale-relative deviation of eig(A†A) from {F(n), n = 0..dim-1}.

    A†A = diag(0, s^2) is diagonal, so its eigenvalues are that diagonal,
    sorted: the values a dense eigvalsh returns for a diagonal matrix.
    """
    eigs = np.sort(_number_diagonal(_ladder(dim, spec)))
    target = np.sort(dfm.big_f(np.arange(float(dim)), spec))
    return float(np.max(np.abs(eigs - target) / np.maximum(1.0, target)))


class QuadratureResult(NamedTuple):
    delta_q: float
    delta_p: float
    product: float


def quadrature_uncertainty(state: FockState, spec: dfm.DeformationSpec) -> QuadratureResult:
    """Standard deviations of Q = (A+A†)/sqrt(2), P = (A-A†)/(i sqrt(2)).

    The state must be normalized with negligible support on the top two
    levels (< 1e-8), otherwise truncation corrupts the product.  With
    hbar = 1 the undeformed minimum-uncertainty value is 1/2.
    """
    if abs(state.norm - 1.0) > 1e-12:
        raise ParameterError("quadrature_uncertainty needs a normalized state")
    if np.max(np.abs(state.amplitudes[-2:])) >= 1e-8:
        raise ParameterError("state has support at the truncation edge; "
                             "increase dim (amplitudes of top two levels must be < 1e-8)")
    s = _ladder(state.dim, spec).astype(complex)
    v = state.amplitudes

    def _sd(up, down):   # of the operator with superdiagonal up, subdiagonal down
        def apply(x):
            return np.r_[up * x[1:], 0.0] + np.r_[0.0, down * x[:-1]]
        mean = np.vdot(v, apply(v)).real
        return math.sqrt(max(np.vdot(v, apply(apply(v))).real - mean * mean, 0.0))

    q_band, p_band = s / math.sqrt(2.0), s / (1j * math.sqrt(2.0))
    dq, dp = _sd(q_band, q_band), _sd(p_band, -p_band)
    return QuadratureResult(dq, dp, dq * dp)
