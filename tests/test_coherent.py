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

from qlab import coherent, experiments
from qlab import deformation as dfm
from qlab.errors import WORK_BUDGET, CutoffError, ParameterError, SaturationError

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


def test_vacuum_keeps_an_explicit_cutoff():
    """alpha = 0 with a cutoff carries cutoff + 1 coefficients, c_0 = 1 and
    the rest 0, through the verb too; without one it stops at level 1."""
    state = coherent.build_f_coherent(0j, dfm.q_deform(1.0), cutoff=10)
    assert (state.cutoff, state.coeffs.tolist()) == (10, [1.0] + [0.0] * 10)
    assert coherent.eigenvalue_residual(state) == 0.0
    assert coherent.build_f_coherent(0j, dfm.q_deform(1.0)).cutoff == 1
    result = experiments.run_experiment("coherent build", {"alpha_re": 0.0, "cutoff": 10})
    assert result.summary["cutoff"] == 10 and len(result.columns["n"]) == 11


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
                                  (0, 1.5 - 0.5j), (2j, 0), (400 - 300j, 399.2 - 300.5j),
                                  (-703.5j - 703.5, -703 - 704j), (995, 994.6 + 0.4j),
                                  (612.3456789 + 523.98765j, 611.9876543 + 524.4321j)])
def test_identity_overlap_in_logs_matches_closed_form(a, b):
    """Every term is taken in logs from the peak of |c_n|, so no term
    overflows, no N underflows (it does past |alpha| of about 38) and no
    rounding piles up on the way to the peak: 1e-12 out to |alpha| = 995, the
    largest the build accepts.  The closed form exp(conj(a) b - (|a|^2+|b|^2)/2)
    is taken at 30 digits: in doubles its terms of size |alpha|^2 cancel."""
    sa = coherent.build_f_coherent(a, dfm.identity())
    sb = coherent.build_f_coherent(b, dfm.identity())
    got = coherent.scalar_product(sa, sb)
    with mpmath.workdps(30):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        want = complex(mpmath.exp(mpmath.conj(a) * b - (abs(a) ** 2 + abs(b) ** 2) / 2))
    assert abs(got - want) <= 1e-12


def test_overlap_verb_closed_form_holds_at_large_alpha():
    """The verb rounds the closed form's Im(conj(a) b) once, from exact
    products: taken in doubles, its two terms of size |alpha|^2 would cancel
    to an error of about 4e-12 here, which closed_form_err would report."""
    params = {"kind": "identity", "a_re": 612.3456789, "a_im": 523.98765,
              "b_re": 611.9876543, "b_im": 524.4321}
    result = experiments.run_experiment("coherent overlap", params)
    assert result.summary["closed_form_err"] <= 1e-12


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
                                       (1.0, 2j, -0.5 + 1.5j), (-0.6, 1.1, 0.9 + 0.2j),
                                       (0.005, 40 + 10j, 39.5 + 10.3j)])
def test_q_overlap_matches_mpmath_series(lam, a, b):
    spec = dfm.q_deform(lam)
    sa, sb = coherent.build_f_coherent(a, spec), coherent.build_f_coherent(b, spec)
    assert abs(coherent.scalar_product(sa, sb) - oracle_overlap(sa, sb)) <= 1e-12


CUSTOM_SPEC = dfm.custom(np.sqrt(1.0 + 0.05 * np.arange(200)))  # F(n) = n (1 + n/20)


@pytest.mark.parametrize("alpha, spec", [(3.0, dfm.identity()), (2j, dfm.q_deform(1.0)),
                                         (6.0 - 2j, dfm.q_deform(0.05)), (2.5 + 1j, CUSTOM_SPEC)])
@pytest.mark.parametrize("cutoff", [1, 4, 20, 33])
def test_required_cutoff_suffices(alpha, spec, cutoff):
    """required_cutoff is the smallest cutoff that meets the tail rule: a build
    at it succeeds, and one at a level less asks for it again."""
    try:
        coherent.build_f_coherent(alpha, spec, cutoff)
    except CutoffError as exc:
        need = exc.required_cutoff
        state = coherent.build_f_coherent(alpha, spec, need)
        assert state.cutoff == need > cutoff
        assert state.tail_bound <= coherent.TAIL_PROBABILITY
        with pytest.raises(CutoffError) as less:
            coherent.build_f_coherent(alpha, spec, need - 1)
        assert less.value.required_cutoff == need


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
    """|alpha| = 1000 needs more than errors.WORK_BUDGET levels: an explicit
    cutoff below that budget, the budget itself and the automatic rule end
    alike, in one ParameterError naming it."""
    messages = set()
    for cutoff in (4, WORK_BUDGET, None):
        with pytest.raises(ParameterError) as info:
            coherent.build_f_coherent(1000.0, dfm.identity(), cutoff)
        assert type(info.value) is ParameterError
        messages.add(str(info.value))
    (message,) = messages
    assert str(WORK_BUDGET) in message


def test_ladder_overflow_below_the_cutoff_saturates():
    """F(n) = sinh(n lam)/sinh(lam) is past the double range from n = 711 at
    lam = 1 (F(710) = 9.50e307), and from n = 25 at lam = 30."""
    assert coherent.build_f_coherent(1.0, dfm.q_deform(1.0), 700).cutoff == 700
    with pytest.raises(SaturationError) as info:
        coherent.build_f_coherent(1.0, dfm.q_deform(1.0), 720)
    assert info.value.largest_safe_n == 710
    with pytest.raises(SaturationError) as info:
        coherent.build_f_coherent(1.0, dfm.q_deform(30.0))
    assert info.value.largest_safe_n == 24


def test_subnormal_phase_builds():
    """cmath.phase(3.36 + 5e-324j) raises OverflowError for its subnormal
    result; the build takes the phase as an atan2 of the parts."""
    spec = dfm.identity()
    tilted = coherent.build_f_coherent(complex(3.36, 5e-324), spec)
    plain = coherent.build_f_coherent(3.36, spec)
    assert np.array_equal(tilted.coeffs, plain.coeffs)


def test_phases_at_large_complex_alpha_stay_exact():
    """At alpha = 129.6 + 75.5i the state runs to level 32768; a phase taken
    as one rounded n * theta per level left a residual of 1.4e-10."""
    state = coherent.build_f_coherent(129.6 + 75.5j, dfm.identity())
    assert state.cutoff == 32768
    assert coherent.eigenvalue_residual(state) <= 1e-12


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
