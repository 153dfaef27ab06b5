"""f-coherent states: eigenvector residuals of the deformed annihilation
operator, normalization/tail accounting, closed-form checks in the
undeformed limit, scalar products by two routes, and recovery of the
deformation profile from expansion coefficients.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlab import coherent
from qlab import deformation as dfm
from qlab.errors import CutoffError, ParameterError, SaturationError, SolverError

EXP_MINUS_2 = 0.13533528323661270

ALPHAS = [0.5 + 0j, 1.0 + 0j, 2j]
LAMBDAS = [0.0, 1.0]


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_eigenvalue_residual(alpha, lam):
    state = coherent.build_f_coherent(alpha, dfm.q_deform(lam))
    assert coherent.eigenvalue_residual(state) <= 1e-9


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_normalization_within_tail(alpha, lam):
    state = coherent.build_f_coherent(alpha, dfm.q_deform(lam))
    total = float(np.sum(np.abs(state.coeffs) ** 2))
    assert abs(total - 1.0) <= max(state.tail_bound, 1e-14)
    assert state.tail_bound <= 1e-10


def test_vacuum_limit():
    state = coherent.build_f_coherent(0j, dfm.q_deform(1.0))
    assert state.coeffs[0] == 1.0
    assert coherent.eigenvalue_residual(state) == 0.0


def test_undeformed_ground_amplitude():
    """|<0|alpha>|^2 = e^{-|alpha|^2}; checked at |alpha|^2 = 2."""
    state = coherent.build_f_coherent(math.sqrt(2.0), dfm.identity())
    assert_allclose(abs(state.coeffs[0]) ** 2, EXP_MINUS_2, rtol=1e-12)


def test_undeformed_mean_photon_number():
    for alpha in (0.7 + 0j, 1.0 + 0.5j):
        state = coherent.build_f_coherent(alpha, dfm.identity())
        mean_n = float(sum(n * abs(c) ** 2 for n, c in enumerate(state.coeffs)))
        assert_allclose(mean_n, abs(alpha) ** 2, rtol=1e-10)


def test_undeformed_overlap_closed_form():
    a, b = 0.7 + 0.2j, -0.3 + 0.5j
    sa = coherent.build_f_coherent(a, dfm.identity())
    sb = coherent.build_f_coherent(b, dfm.identity())
    got = coherent.scalar_product(sa, sb)
    want = cmath.exp(a.conjugate() * b - (abs(a) ** 2 + abs(b) ** 2) / 2.0)
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_scalar_product_two_routes(lam):
    """Normalization-series route vs the plain coefficient inner product."""
    spec = dfm.q_deform(lam)
    sa = coherent.build_f_coherent(0.9 + 0.1j, spec)
    sb = coherent.build_f_coherent(0.4 - 0.7j, spec)
    series = coherent.scalar_product(sa, sb)
    m = min(sa.cutoff, sb.cutoff) + 1
    direct = complex(np.vdot(sa.coeffs[:m], sb.coeffs[:m]))
    assert abs(series - direct) < 1e-12


def test_scalar_product_norm_is_one():
    state = coherent.build_f_coherent(1.2 + 0.3j, dfm.q_deform(0.8))
    assert abs(coherent.scalar_product(state, state) - 1.0) < 1e-12


def test_scalar_product_rejects_mixed_specs():
    sa = coherent.build_f_coherent(1.0, dfm.q_deform(0.5))
    sb = coherent.build_f_coherent(1.0, dfm.q_deform(0.6))
    with pytest.raises(ParameterError):
        coherent.scalar_product(sa, sb)


def test_explicit_cutoff_respected_or_rejected():
    spec = dfm.q_deform(1.0)
    state = coherent.build_f_coherent(1.0, spec, cutoff=48)
    assert state.cutoff == 48
    with pytest.raises(CutoffError) as exc_info:
        coherent.build_f_coherent(2j, spec, cutoff=4)
    assert exc_info.value.required_cutoff > 4
    with pytest.raises(ParameterError):
        coherent.build_f_coherent(1.0, spec, cutoff=0)


@pytest.mark.parametrize("a, b", [(27, 27), (38 + 5j, 37.5 + 4.2j), (-60j, 0.4 - 59.3j),
                                  (45 - 20j, 44 - 21j), (150, 149.5 + 0.3j), (100j, 101j),
                                  (0, 1.5 - 0.5j), (2j, 0)])
def test_identity_overlap_in_logs_matches_closed_form(a, b):
    """Every term is taken in logs, so no term overflows and no N underflows
    (it does past |alpha| of about 38): 1e-12 to |alpha| = 60, 1e-10 beyond."""
    sa = coherent.build_f_coherent(a, dfm.identity())
    sb = coherent.build_f_coherent(b, dfm.identity())
    got = coherent.scalar_product(sa, sb)
    want = cmath.exp(a.conjugate() * b - (abs(a) ** 2 + abs(b) ** 2) / 2.0)
    assert abs(got - want) <= (1e-12 if max(abs(a), abs(b)) <= 60 else 1e-10)


def oracle_overlap(sa, sb):
    """N_a N_b sum_n (conj(a) b)^n / F(1)...F(n) at 30 digits, each series
    to its state's cutoff and the product to the common one."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(sa.spec.lam)

        def series(z, m):
            term = total = mpmath.mpc(1)
            for n in range(1, m + 1):
                term *= z * mpmath.sinh(lam) / mpmath.sinh(n * lam)
                total += term
            return total

        a, b = mpmath.mpc(sa.alpha), mpmath.mpc(sb.alpha)
        norm = mpmath.sqrt(series(abs(a) ** 2, sa.cutoff) * series(abs(b) ** 2, sb.cutoff))
        return complex(series(mpmath.conj(a) * b, min(sa.cutoff, sb.cutoff)) / norm)


@pytest.mark.parametrize("lam, a, b", [(0.02, 15 + 3j, 14.2 + 3.5j), (0.3, 3 - 1j, 2.5 - 0.4j),
                                       (1.0, 2j, -0.5 + 1.5j), (-0.6, 1.1, 0.9 + 0.2j)])
def test_q_overlap_matches_mpmath_series(lam, a, b):
    spec = dfm.q_deform(lam)
    sa, sb = coherent.build_f_coherent(a, spec), coherent.build_f_coherent(b, spec)
    assert abs(coherent.scalar_product(sa, sb) - oracle_overlap(sa, sb)) <= 1e-12


@pytest.mark.parametrize("alpha, spec", [(3.0, dfm.identity()), (2j, dfm.q_deform(1.0)),
                                         (6.0 - 2j, dfm.q_deform(0.05))])
@pytest.mark.parametrize("cutoff", [1, 4, 20, 33])
def test_required_cutoff_suffices(alpha, spec, cutoff):
    try:
        coherent.build_f_coherent(alpha, spec, cutoff)
    except CutoffError as exc:
        state = coherent.build_f_coherent(alpha, spec, exc.required_cutoff)
        assert state.cutoff == exc.required_cutoff > cutoff
        assert state.tail_bound <= coherent.TAIL_PROBABILITY


@pytest.mark.parametrize("cutoff", [36, 40, 47])
def test_explicit_cutoff_meets_the_residual_promise(cutoff):
    """One tail rule for explicit and automatic cutoffs: at alpha = 3 a
    cutoff of 36 to 47 leaves a last-level probability between 1e-19 and
    1e-11, and an eigenvalue residual between 1.7e-9 and 8.2e-6, past the
    1e-9 that the module promises."""
    with pytest.raises(CutoffError) as info:
        coherent.build_f_coherent(3.0, dfm.identity(), cutoff)
    state = coherent.build_f_coherent(3.0, dfm.identity(), info.value.required_cutoff)
    assert coherent.eigenvalue_residual(state) <= 1e-9


def test_no_cutoff_up_to_the_cap_is_one_error_naming_it():
    """|alpha| = 1000 needs about 10^6 levels: an explicit cutoff below the
    cap, the cap itself and the automatic rule end alike."""
    messages = set()
    for cutoff in (4, coherent._MAX_CUTOFF, None):
        with pytest.raises(SolverError) as info:
            coherent.build_f_coherent(1000.0, dfm.identity(), cutoff)
        assert type(info.value) is SolverError
        messages.add(str(info.value))
    (message,) = messages
    assert str(coherent._MAX_CUTOFF) in message


def test_ladder_overflow_below_the_cutoff_saturates():
    """F(n) = sinh(n lam)/sinh(lam) is past the double range from n = 710 at
    lam = 1, and from n = 24 at lam = 30."""
    assert coherent.build_f_coherent(1.0, dfm.q_deform(1.0), 700).cutoff == 700
    with pytest.raises(SaturationError) as info:
        coherent.build_f_coherent(1.0, dfm.q_deform(1.0), 720)
    assert info.value.largest_safe_n == 709
    with pytest.raises(SaturationError) as info:
        coherent.build_f_coherent(1.0, dfm.q_deform(30.0))
    assert info.value.largest_safe_n == 23


def test_subnormal_phase_builds():
    """cmath.phase(3.36 + 5e-324j) raises OverflowError for its subnormal
    result; the build takes the phase as an atan2 of the parts."""
    spec = dfm.identity()
    tilted = coherent.build_f_coherent(complex(3.36, 5e-324), spec)
    plain = coherent.build_f_coherent(3.36, spec)
    assert np.array_equal(tilted.coeffs, plain.coeffs)


def test_as_fock_state_embedding():
    state = coherent.build_f_coherent(1.0, dfm.q_deform(1.0))
    fk = coherent.as_fock_state(state)
    assert fk.dim == state.cutoff + 2
    assert abs(fk.norm - 1.0) < 1e-12
    wide = coherent.as_fock_state(state, dim=state.cutoff + 10)
    assert np.all(wide.amplitudes[state.cutoff + 1:] == 0)


def test_residual_dim_validation():
    state = coherent.build_f_coherent(1.0, dfm.q_deform(1.0))
    with pytest.raises(ParameterError):
        coherent.eigenvalue_residual(state, dim=state.cutoff)


def test_f_recovery_from_built_state():
    """Coefficient ratios of a built state give back f(n)/alpha."""
    spec = dfm.q_deform(1.0)
    state = coherent.build_f_coherent(1.0, spec)
    recovered = coherent.f_from_coefficients(state.coeffs[:10].real)
    expected = [dfm.f_of_n(float(n), spec) for n in range(1, 10)]
    assert_allclose(recovered, expected, rtol=1e-12)


def test_f_recovery_seeded_roundtrip():
    rng = np.random.default_rng(20260819)
    f_vals = rng.uniform(0.5, 1.5, 12)
    c = np.empty(13)
    c[0] = 1.0
    for n in range(1, 13):
        c[n] = c[n - 1] / (math.sqrt(n) * f_vals[n - 1])
    recovered = coherent.f_from_coefficients(c)
    assert_allclose(recovered, f_vals, rtol=1e-12)


def test_f_recovery_validation():
    with pytest.raises(ParameterError):
        coherent.f_from_coefficients([1.0])
    with pytest.raises(ParameterError):
        coherent.f_from_coefficients([1.0, 0.0, 0.5])
