"""Truncated Fock-space operators: ladder matrices, the deformed
commutation and reordering identities, Hamiltonian spectra, evolution
unitarity, and quadrature uncertainties.

All residual checks use the edge-excluded, scale-normalized maximum, so
the bounds are meaningful at every lambda.  The checks work on the ladder's
one superdiagonal; the dense matrix-product forms below, and a dense
eigen-solve of A†A for the spectrum, are their reference.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qlab import coherent, fock
from qlab import deformation as dfm
from qlab.errors import ParameterError, SaturationError

SQRT_2Q_LAM1 = 1.7567473550942058  # sqrt(sinh 2 / sinh 1), 40-digit arithmetic
QUAD_PRODUCT_N1_LAM1 = 2.0430806348152438  # (1_q + 2_q)/2 at lam = 1

SPECS = [dfm.q_deform(0.0), dfm.q_deform(0.1), dfm.q_deform(0.5),
         dfm.q_deform(1.0), dfm.identity()]


def test_annihilation_entries():
    """The identity deformation gives the standard ladder."""
    a = fock.deformed_annihilation(5, dfm.identity())
    expected = np.zeros((5, 5))
    for n in range(4):
        expected[n, n + 1] = math.sqrt(n + 1)
    assert_allclose(a.entries, expected, atol=0)


def test_annihilation_rejects_tiny_dim():
    with pytest.raises(ParameterError):
        fock.deformed_annihilation(1, dfm.identity())


def test_deformed_annihilation_scales_by_f():
    spec = dfm.q_deform(1.0)
    a = fock.deformed_annihilation(6, spec).entries
    # A = a f(n-hat): column n+1 carries sqrt(n+1) f(n+1)
    assert_allclose(a[1, 2], SQRT_2Q_LAM1, rtol=1e-15)
    for n in range(5):
        assert_allclose(a[n, n + 1],
                        math.sqrt(n + 1) * dfm.f_of_n(n + 1.0, spec), rtol=1e-14)


def test_identity_spec_reduces_to_undeformed():
    """The q-deformation at lam = 0 is the identity deformation, bit for bit."""
    plain = fock.deformed_annihilation(8, dfm.identity()).entries
    deformed = fock.deformed_annihilation(8, dfm.q_deform(0.0)).entries
    assert_allclose(deformed, plain, atol=0)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-lam{s.lam}")
@pytest.mark.parametrize("dim", [12, 32])
def test_commutator_identity(spec, dim):
    assert fock.check_commutator(dim, spec) <= 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("dim", [12, 32])
def test_reordering_identity(lam, dim):
    assert fock.check_reordering(dim, lam) <= 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-lam{s.lam}")
def test_linearoid_roundtrip(spec):
    assert fock.linearoid_roundtrip(16, spec) <= 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-lam{s.lam}")
def test_heisenberg_identity(spec):
    assert fock.heisenberg_residual(16, spec) <= 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-lam{s.lam}")
def test_spectrum_matches_big_f(spec):
    assert fock.spectrum_check(16, spec) <= 1e-10


@pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
def test_evolution_unitary(t):
    assert fock.evolution_residual(16, dfm.q_deform(0.8), t) <= 1e-10


def test_hamiltonian_identity_spec_diagonal():
    h = dense_hamiltonian(10, dfm.identity())
    assert_allclose(np.diag(h)[:8], np.arange(8) + 0.5, atol=1e-12)
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) < 1e-12


def test_hamiltonian_deformed_variables_same_levels():
    """F^{-1}(A†A) + 1/2 equals diag(n + 1/2) on non-edge states no matter
    the deformation: the transformation is nonlinear but leaves this
    Hamiltonian's form alone."""
    for spec in (dfm.q_deform(0.5), dfm.q_deform(1.0)):
        diag = np.diag(dense_hamiltonian(10, spec)).real
        assert_allclose(diag[:8], np.arange(8) + 0.5, atol=1e-10)


def test_quadrature_vacuum_minimum_uncertainty():
    state = fock.FockState.basis(8, 0)
    r = fock.quadrature_uncertainty(state, dfm.identity())
    assert_allclose(r.product, 0.5, rtol=1e-12)
    assert_allclose(r.delta_q, r.delta_p, rtol=1e-12)


def test_quadrature_first_level_deformed():
    state = fock.FockState.basis(16, 1)
    r = fock.quadrature_uncertainty(state, dfm.q_deform(1.0))
    assert_allclose(r.product, QUAD_PRODUCT_N1_LAM1, rtol=1e-12)


def test_quadrature_rejects_bad_states():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 2.0
    with pytest.raises(ParameterError):
        fock.quadrature_uncertainty(fock.FockState(8, amps), dfm.identity())
    with pytest.raises(ParameterError):  # support at the truncation edge
        fock.quadrature_uncertainty(fock.FockState.basis(8, 7), dfm.identity())


def test_basis_state_bounds():
    with pytest.raises(ParameterError):
        fock.FockState.basis(4, 4)
    with pytest.raises(ParameterError):
        fock.FockState.basis(4, -1)
    state = fock.FockState.basis(4, 2)
    assert state.norm == 1.0


def test_fock_state_shape_check():
    with pytest.raises(ParameterError):
        fock.FockState(4, np.zeros(3, dtype=complex))


def test_ladder_overflow_is_a_saturation_error():
    """sinh(3 n)/sinh 3 is past the double range from n = 238 on."""
    with pytest.raises(SaturationError) as info:
        fock.check_commutator(300, dfm.q_deform(3.0))
    assert info.value.largest_safe_n == 237
    with pytest.raises(SaturationError):
        fock.deformed_annihilation(300, dfm.q_deform(-3.0))


# ------------------------------------------- dense matrix-product reference

def dense_check_commutator(dim, spec):
    a = fock.deformed_annihilation(dim, spec).entries
    ad = a.conj().T
    p1 = a @ ad
    p2 = ad @ a
    target = np.diag(dfm.phi_of_z(np.arange(float(dim)), spec)).astype(complex)
    k = dim - 1
    return fock._scaled_max_residual((p1 - p2 - target)[:k, :k],
                                     p1[:k, :k], p2[:k, :k], target[:k, :k])


def dense_check_reordering(dim, lam):
    a = fock.deformed_annihilation(dim, dfm.q_deform(lam)).entries
    ad = a.conj().T
    p1 = a @ ad
    p2 = math.exp(lam) * (ad @ a)
    target = np.diag(np.exp(-lam * np.arange(dim))).astype(complex)
    k = dim - 1
    return fock._scaled_max_residual((p1 - p2 - target)[:k, :k],
                                     p1[:k, :k], p2[:k, :k], target[:k, :k])


def dense_number_diagonal(dim, spec):
    a = fock.deformed_annihilation(dim, spec).entries
    n_op = a.conj().T @ a
    return a, np.maximum(np.diagonal(n_op).real, 0.0)


def dense_linearoid_roundtrip(dim, spec):
    a, diag = dense_number_diagonal(dim, spec)
    inv_f = 1.0 / dfm.f_of_n(dfm.big_f_inverse(diag, spec), spec)
    recon = a @ np.diag(inv_f)
    k = dim - 1
    plain = fock.deformed_annihilation(dim, dfm.identity()).entries
    return float(np.max(np.abs(recon - plain)[:k, :k]))


def dense_hamiltonian(dim, spec):
    _, diag = dense_number_diagonal(dim, spec)
    return np.diag(dfm.big_f_inverse(diag, spec) + 0.5).astype(complex)


def dense_heisenberg_residual(dim, spec):
    a = fock.deformed_annihilation(dim, spec).entries
    h = np.diag(np.arange(dim) + 0.5).astype(complex)
    p1 = a @ h
    p2 = h @ a
    k = dim - 1
    return fock._scaled_max_residual((p1 - p2 - a)[:k, :k], p1[:k, :k], p2[:k, :k], a[:k, :k])


def dense_evolution_residual(dim, spec, t):
    a = fock.deformed_annihilation(dim, spec).entries
    phases = np.exp(1j * (np.arange(dim) + 0.5) * t)
    rotated = phases[:, None] * a * phases.conj()[None, :]
    return fock._scaled_max_residual(rotated - np.exp(-1j * t) * a, a)


def dense_spectrum_check(dim, spec):
    a = fock.deformed_annihilation(dim, spec).entries
    eigs = np.linalg.eigvalsh(a.conj().T @ a)
    target = np.sort(dfm.big_f(np.arange(float(dim)), spec))
    return float(np.max(np.abs(eigs - target) / np.maximum(1.0, target)))


def dense_quadrature_product(state, spec):
    a = fock.deformed_annihilation(state.dim, spec).entries
    v = state.amplitudes

    def _sd(op):
        mean = np.vdot(v, op @ v).real
        return math.sqrt(max(np.vdot(v, op @ (op @ v)).real - mean * mean, 0.0))

    return (_sd((a + a.conj().T) / math.sqrt(2.0))
            * _sd((a - a.conj().T) / (1j * math.sqrt(2.0))))


def dense_eigenvalue_residual(state, dim):
    amps = np.zeros(dim, dtype=complex)
    amps[:state.coeffs.shape[0]] = state.coeffs
    a = fock.deformed_annihilation(dim, state.spec).entries
    return float(np.linalg.norm(a @ amps - state.alpha * amps))


def make_spec(kind, lam):
    if kind == "q":
        return dfm.q_deform(lam)
    if kind == "identity":
        return dfm.identity()
    return dfm.custom([math.sqrt(1.0 + lam * n) for n in range(257)])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["q", "identity", "custom"]),
       lam=st.floats(0.0, 1.0),
       dim=st.integers(3, 64),
       t=st.floats(0.0, 8.0),
       level=st.integers(0, 61),
       alpha=st.complex_numbers(max_magnitude=3.0))
def test_banded_checks_equal_dense_reference(kind, lam, dim, t, level, alpha):
    """Bit for bit, except the quadrature product: the dense form's BLAS
    matrix-vector product may fuse a multiply into its two-term sums, so
    there the two differ by a few ulp."""
    spec = make_spec(kind, lam)
    for name in ("check_commutator", "linearoid_roundtrip", "heisenberg_residual",
                 "spectrum_check"):
        assert getattr(fock, name)(dim, spec) == globals()["dense_" + name](dim, spec), name
    assert fock.evolution_residual(dim, spec, t) == dense_evolution_residual(dim, spec, t)
    if kind != "custom":
        ordering_lam = lam if kind == "q" else 0.0
        assert fock.check_reordering(dim, ordering_lam) == \
            dense_check_reordering(dim, ordering_lam)

    state = fock.FockState.basis(dim, min(level, dim - 3))
    assert math.isclose(fock.quadrature_uncertainty(state, spec).product,
                        dense_quadrature_product(state, spec),
                        rel_tol=8 * sys.float_info.epsilon)

    coherent_state = coherent.build_f_coherent(alpha, spec)
    assert coherent.eigenvalue_residual(coherent_state) == \
        dense_eigenvalue_residual(coherent_state, coherent_state.cutoff + 2)


def test_banded_checks_at_dim_100000():
    """Every check runs in O(dim), spectrum_check included."""
    dim, lam = 100_000, 0.005
    spec = dfm.q_deform(lam)
    assert fock.check_commutator(dim, spec) <= 1e-10
    assert fock.check_reordering(dim, lam) <= 1e-10
    assert fock.linearoid_roundtrip(dim, spec) <= 1e-10
    assert fock.heisenberg_residual(dim, spec) <= 1e-10
    assert fock.spectrum_check(dim, spec) <= 1e-10
    assert fock.evolution_residual(dim, spec, 1.0) <= 1e-10
    product = fock.quadrature_uncertainty(fock.FockState.basis(dim, 1), spec).product
    assert_allclose(product, 0.5 * (dfm.q_number(1, lam) + dfm.q_number(2, lam)), rtol=1e-14)
