"""One-level nonlinear evolution i d(psi)/dt = omega_q(|psi|^2) psi: the
RK4 track against the exact phase rotation, and the wavefunction <->
phase-space maps.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import level
from qlab.classical import omega_q
from qlab.errors import _BLOCK, ParameterError

import rk4_reference

OMEGA_PSI1_LAM1 = 1.3130352854993313  # cosh(1)/sinh(1)


def test_exact_phase_and_rk4_agree():
    evo = level.evolve_one_level(1.0 + 0j, 1.0, t_end=10.0, dt=1e-3)
    assert evo.max_deviation <= 1e-8
    assert evo.norm_drift <= 1e-10


def test_frequency_frozen_value():
    evo = level.evolve_one_level(1.0 + 0j, 1.0, t_end=0.5)
    assert_allclose(evo.frequency, OMEGA_PSI1_LAM1, rtol=1e-15)


@pytest.mark.parametrize("psi0", [0.5 + 0j, 1.0 + 0j, 0.6 - 0.8j])
def test_frequency_equals_classical_omega(psi0):
    """The nonlinear phase velocity is the classical orbit frequency at the
    same intensity — one dynamics in two guises."""
    evo = level.evolve_one_level(psi0, 0.7, t_end=0.1)
    assert abs(evo.frequency - omega_q(abs(psi0) ** 2, 0.7)) < 1e-12


def test_undeformed_rotation():
    evo = level.evolve_one_level(1.0 + 0j, 0.0, t_end=3.0, dt=1e-3)
    assert evo.frequency == 1.0
    assert abs(evo.psi_exact[-1] - cmath.exp(-3.0j)) < 1e-14


def test_exact_track_preserves_modulus():
    evo = level.evolve_one_level(0.3 + 0.4j, 1.2, t_end=5.0, dt=1e-2)
    assert np.max(np.abs(np.abs(evo.psi_exact) - 0.5)) < 1e-14


def test_track_covers_requested_interval():
    evo = level.evolve_one_level(1.0 + 0j, 0.5, t_end=2.0, dt=1e-2)
    assert evo.t[0] == 0.0
    assert_allclose(evo.t[-1], 2.0, atol=1e-12)
    assert evo.t.shape == evo.psi_exact.shape == evo.psi_rk4.shape


def test_rejects_nonpositive_step():
    with pytest.raises(ParameterError):
        level.evolve_one_level(1.0 + 0j, 0.5, t_end=1.0, dt=0.0)


def test_phase_space_roundtrip():
    rng = np.random.default_rng(20260819)
    for _ in range(20):
        re, im = rng.uniform(-2.0, 2.0, 2)
        psi = complex(re, im)
        q, p = level.psi_to_phase_space(psi)
        assert_allclose(q, math.sqrt(2.0) * re, rtol=1e-15)
        assert_allclose(p, math.sqrt(2.0) * im, rtol=1e-15)
        back = level.phase_space_to_psi(q, p)
        assert abs(back - psi) < 1e-15


def test_phase_space_scaled_frequency():
    psi = 0.8 + 0.1j
    q, p = level.psi_to_phase_space(psi, omega=2.0)
    back = level.phase_space_to_psi(q, p, omega=2.0)
    assert abs(back - psi) < 1e-15
    with pytest.raises(ParameterError):
        level.psi_to_phase_space(psi, omega=0.0)
    with pytest.raises(ParameterError):
        level.phase_space_to_psi(1.0, 0.0, omega=-1.0)


@pytest.mark.parametrize("n_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
                                     3 * _BLOCK + 5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_blocked_evolution_is_the_one_pass_bits(n_steps, sign):
    """evolve_one_level passes in blocks of _BLOCK steps.  Across block
    boundaries, stepping backward and with Im psi0 != 0, every array and
    metric is bit for bit the one-pass formulas' (rk4_reference).  From
    2 _BLOCK - 1 steps on, numpy took the one-pass psi0 e in place, as e psi0,
    whose fused imaginary part differs in the last bit."""
    psi0, lam, dt = 0.3 - 0.8j, 0.7, 1e-3
    t_end = sign * n_steps * dt
    got = level.evolve_one_level(psi0, lam, t_end, dt)
    want = rk4_reference.evolve_one_level(psi0, lam, t_end, dt)
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[3:] == want[3:]


def test_evolve_one_level_memory_is_bounded():
    """At 1e5 steps only t and the two complex tracks span the run: the traced
    peak stays within five full-length float arrays and 1 MB (8.0 MB before
    the blocks)."""
    n_steps = 100_000
    tracemalloc.start()
    try:
        evo = level.evolve_one_level(0.6 + 0.4j, 1.0, 10.0, 10.0 / n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evo.t.shape == (n_steps + 1,)
    assert peak <= 5 * 8 * (n_steps + 1) + 1e6, f"peak traced allocation {peak} bytes"
