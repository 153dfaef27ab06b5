"""The one-pass thermodynamic moments (thermo._moments) against an mpmath
oracle (thermo_oracle.py), on both sides of the bounds of the
Euler-Maclaurin tail and of the old 1e-6 switch, plus hypothesis
properties, a memory bound and the typed range errors.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from thermo_oracle import oracle

from qlab import thermo
from qlab.errors import ParameterError, SaturationError


def assert_matches_oracle(t, lam, convention, rtol=1e-12):
    m = thermo._moments(1.0 / t, lam, convention)
    for name, got, want in zip(("ln Z", "<n>", "C"), (m.log_z, m.mean_n, m.heat),
                               oracle(t, lam, convention)):
        assert abs(got - want) <= rtol * abs(want), \
            f"{name}(T={t!r}, lambda={lam!r}, {convention}, {m.tail}): {got!r} vs {want!r}"
    return m


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
@pytest.mark.parametrize("lam", [5e-324, 1e-9, 9.9e-7, 1.01e-6, 2e-6, 1e-5, 0.1, 0.3])
def test_moments_match_mpmath_oracle(lam, convention):
    for t in (1e2, 1e4, 1e6):
        assert_matches_oracle(t, lam, convention)


@pytest.mark.parametrize("lam", [1e-3, 0.3, 2.0])
def test_cold_moments_keep_their_relative_accuracy(lam):
    """Cold, <n> and C are carried by level 1 alone, so the levels left out
    must be small against its weight, not against Z ~ 1."""
    for t in (0.02, 0.1, 0.25, 1.0):
        for convention in thermo.CONVENTIONS:
            assert_matches_oracle(t, lam, convention)


def slope_bound_temperature(lam, convention):
    """The T at which beta E'(1) meets thermo._EM_SLOPE."""
    spec = thermo._spectrum(lam, convention)
    return lam * math.cosh(lam * (1.0 + spec.shift)) / spec.scale / thermo._EM_SLOPE


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_direct_and_em_sides_of_each_bound_agree(convention):
    """Levels >= 1 go to the Euler-Maclaurin tail where |lambda| <=
    _EM_LAM and beta E'(1) <= _EM_SLOPE: either side of each bound the
    method changes, not the accuracy."""
    bound = thermo._EM_LAM
    for t in (1e4, 1e6):
        below = assert_matches_oracle(t, bound * (1.0 - 1e-9), convention)
        above = assert_matches_oracle(t, bound * (1.0 + 1e-9), convention)
        assert (below.tail, below.terms) == ("direct+em", 1)
        assert (above.tail, above.terms) == ("direct", above.cutoff + 1)
    for lam in (1e-6, bound):
        t = slope_bound_temperature(lam, convention)
        cold = assert_matches_oracle(t * (1.0 - 1e-9), lam, convention)
        hot = assert_matches_oracle(t * (1.0 + 1e-9), lam, convention)
        assert (cold.tail, cold.terms) == ("direct", cold.cutoff + 1)
        assert (hot.tail, hot.terms) == ("direct+em", 1)


def test_undeformed_closed_form_is_the_limit():
    for t in (0.5, 1e2, 1e6):
        for convention in thermo.CONVENTIONS:
            closed = thermo._moments(1.0 / t, 0.0, convention)
            near = thermo._moments(1.0 / t, 5e-324, convention)
            assert closed.tail == "closed" and closed.terms == 0
            for got, want in zip(near[:3], closed[:3]):
                assert abs(got - want) <= 1e-13 * abs(want)


_exponents = st.floats(min_value=-12.0, max_value=0.0)
_temperatures = st.floats(min_value=-1.0, max_value=5.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_exponents, _temperatures, st.sampled_from(thermo.CONVENTIONS))
def test_heat_positive_and_even_in_lambda(lam_exp, t, convention):
    lam = 10.0 ** lam_exp
    plus = thermo._moments(1.0 / t, lam, convention)
    assert plus.heat > 0.0 and plus.mean_n > 0.0
    assert thermo._moments(1.0 / t, -lam, convention) == plus


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-12.0, max_value=-3.0), st.floats(min_value=0.05, max_value=20.0),
       st.sampled_from(thermo.CONVENTIONS))
def test_occupation_tends_to_bose_einstein(lam_exp, x, convention):
    """|<n> - 1/(e^x - 1)| <= lam^2 |printed correction|: the "sym" spectrum
    meets half the printed coefficient, "num" less."""
    lam = 10.0 ** lam_exp
    bose = thermo.bose_einstein(x)
    gap = abs(thermo.mean_occupation(1.0 / x, lam, convention) - bose)
    assert gap <= lam * lam * abs(thermo.planck_correction_coefficient(x)) + 1e-13 * bose


def test_long_sum_memory_is_bounded():
    """The longest direct sum, 6.3e5 levels just above _EM_LAM at the
    hottest T, passes in blocks: no array as long as the sum."""
    tracemalloc.start()
    try:
        m = thermo._moments(1.0 / 1e300, 1.1e-3, "sym")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.tail, m.terms) == ("direct", 628411)
    assert abs(m.heat / oracle(1e300, 1.1e-3, "sym")[2] - 1.0) <= 1e-12
    assert peak < 4e6, f"peak traced allocation {peak} bytes"


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0, 1e301, 1e-301])
def test_temperature_outside_the_range_is_rejected(t):
    for read in (thermo.specific_heat, thermo.specific_heat_law,
                 thermo.deformed_planck_approx):
        with pytest.raises(ParameterError, match="temperature must lie in"):
            read(t, 0.1)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_lambda_must_be_finite(lam):
    with pytest.raises(ParameterError, match="lambda must be finite"):
        thermo.partition_function(1.0, lam)
    with pytest.raises(ParameterError, match="lambda must be finite"):
        thermo.energy_levels(4, lam)
    with pytest.raises(ParameterError, match="lambda must be finite"):
        thermo.specific_heat_law(1e6, lam)
    with pytest.raises(ParameterError, match="lambda must be finite"):
        thermo.deformed_planck_approx(1.0, lam)


def test_cutoff_past_the_sinh_range_saturates():
    with pytest.raises(SaturationError) as exc_info:
        thermo.mean_occupation(1e290, 300.0)
    assert exc_info.value.largest_safe_n == 1
    with pytest.raises(SaturationError):
        thermo.mean_occupation(1.0, 710.0, "num")  # sinh(lambda) itself overflows
    # the cutoff reaches level 1 only, so its sinh argument 1.5 lambda is safe
    assert thermo.mean_occupation(1.0, 400.0) == 0.0
