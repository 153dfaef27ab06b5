"""The one-pass thermodynamic moments (thermo._moments) against an mpmath
oracle (thermo_oracle.py), on both sides of the join of Gregory's head and
of the old 1e-6 switch, plus hypothesis properties, a memory bound and the
typed range errors.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from thermo_oracle import oracle

from qlab import thermo
from qlab.deformation import _log_cosh, _log_sinh
from qlab.errors import ParameterError


def assert_matches_oracle(t, lam, convention, rtol=1e-12):
    m = thermo._moments([1.0 / t], lam, convention)[0]
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


def join_temperature(lam, convention, level):
    """The T at which the join of _moments reaches level, where beta E'(level)
    = _EM_SLOPE min(1, _EM_SLOPE/|lambda|)^6 (inf past the double range)."""
    a, shift = abs(lam), (0.5 if convention == "sym" else 0.0)
    ln_t = (math.log(a) + _log_cosh(a * (level + shift)) - _log_sinh(a) + _log_cosh(a * shift)
            - math.log(thermo._EM_SLOPE) - 6.0 * math.log(min(1.0, thermo._EM_SLOPE / a)))
    return math.exp(min(ln_t, 709.0))


def plan(t, lam, convention):
    return thermo._moments([1.0 / t], lam, convention)[0][3:]


def across_a_change_of_plan(lo, hi, lam, convention, key=plan):
    """Adjacent temperatures in [lo, hi] across which key, plan or tail,
    changes, by bisection in ln T and then in T."""
    first = key(lo, lam, convention)
    assert first != key(hi, lam, convention), (lo, hi, lam, convention)
    while math.nextafter(lo, hi) < hi:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        mid = mid if lo < mid < hi else math.nextafter(lo, hi)
        if key(mid, lam, convention) == first:
            lo = mid
        else:
            hi = mid
    return lo, hi


def tail(t, lam, convention):
    return plan(t, lam, convention)[2]


def assert_continuous(lo, hi, lam, convention, rtol=1e-14):
    below, above = (thermo._moments([1.0 / x], lam, convention)[0] for x in (lo, hi))
    for name, a, b in zip(("ln Z", "<n>", "C"), below, above):
        assert abs(a - b) <= rtol * abs(b), \
            f"{name}(T={lo!r}/{hi!r}, lambda={lam!r}, {convention}): {a!r} vs {b!r}"


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_both_sides_of_the_join_and_of_the_head_agree_with_the_oracle(convention):
    """Levels 1 .. J take Gregory's rule and the rest are summed one by one.
    Where the head appears, at J = 1 where 7 |lambda| <= _EM_SLOPE (it then
    runs to the cutoff) and where its price falls below the levels' elsewhere
    (past J = 5,000 at lambda = 2e-3, 20,000 at 0.02; none past lambda ~ 0.022),
    and where J moves by one level, the method changes, not the accuracy."""
    edges = [(lam, *across_a_change_of_plan(join_temperature(lam, convention, 1) * 0.999,
                                            join_temperature(lam, convention, 1) * 1.001,
                                            lam, convention, tail)) for lam in (1e-6, 1e-3)]
    edges += [(lam, *across_a_change_of_plan(join_temperature(lam, convention, 10),
                                             join_temperature(lam, convention, 30000),
                                             lam, convention, tail)) for lam in (2e-3, 0.02)]
    for lam, level in ((2e-3, 8000), (5e-3, 10000), (0.01, 15000), (0.02, 25000)):
        t = join_temperature(lam, convention, level)
        edges.append((lam, *across_a_change_of_plan(t, t * (1.0 + 2.0 * lam), lam, convention)))
    for lam, lo, hi in edges:
        assert_continuous(lo, hi, lam, convention)
        assert assert_matches_oracle(lo, lam, convention)[3:] != \
            assert_matches_oracle(hi, lam, convention)[3:]
    assert {tail(hi, lam, convention) for lam, _, hi in edges} == {"direct+em"}


def test_undeformed_closed_form_is_the_limit():
    for t in (0.5, 1e2, 1e6):
        for convention in thermo.CONVENTIONS:
            closed = thermo._moments([1.0 / t], 0.0, convention)[0]
            near = thermo._moments([1.0 / t], 5e-324, convention)[0]
            assert closed.tail == "closed" and closed.terms == 0
            for got, want in zip(near[:3], closed[:3]):
                assert abs(got - want) <= 1e-13 * abs(want)


_exponents = st.floats(min_value=-12.0, max_value=0.0)
_temperatures = st.floats(min_value=-1.0, max_value=5.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_exponents, _temperatures, st.sampled_from(thermo.CONVENTIONS))
def test_heat_positive_and_even_in_lambda(lam_exp, t, convention):
    lam = 10.0 ** lam_exp
    plus = thermo._moments([1.0 / t], lam, convention)[0]
    assert plus.heat > 0.0 and plus.mean_n > 0.0
    assert thermo._moments([1.0 / t], -lam, convention)[0] == plus


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
    """The longest direct sum, 30,048 terms at the hottest T (a sweep of lambda
    over [1e-8, 10]), and a head of 6,250 nodes with 3,253 levels past it,
    pass in blocks: no array as long as the sum."""
    for lam, convention, plan_ in ((0.023106940151935124, "num", (30048, "direct")),
                                   (1.43e-3, "sym", (9504, "direct+em"))):
        tracemalloc.start()
        try:
            m = thermo._moments([1.0 / 1e300], lam, convention)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.terms, m.tail) == plan_
        assert abs(m.heat / oracle(1e300, lam, convention)[2] - 1.0) <= 1e-12
        assert peak < 4e6, f"peak traced allocation {peak} bytes"


_lams_to_2 = st.floats(min_value=-6.0, max_value=math.log10(2.0)).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_lams_to_2, st.sampled_from(thermo.CONVENTIONS), st.floats(min_value=0.0, max_value=1.0))
def test_moments_are_continuous_across_the_join_and_the_head(lam, convention, q):
    """ln Z, <n> and C at two adjacent temperatures across which the head
    appears, or J (or the cutoff) moves by one level, agree to 1e-14 relative."""
    if 7.0 * lam <= thermo._EM_SLOPE:  # the head appears where J reaches level 1
        t = join_temperature(lam, convention, 1)
        lo, hi, key = t * 0.999, t * 1.001, tail
    else:  # J crosses a level up to where sinh(|lambda| (J + shift)) ~ 1e300
        lo = join_temperature(lam, convention, max(1, int(q * (690.0 + math.log(lam)) / lam)))
        hi, key = lo * (1.0 + 2.0 * lam), plan
    if 1e-300 <= lo and hi <= 1e300 and key(lo, lam, convention) != key(hi, lam, convention):
        assert_continuous(*across_a_change_of_plan(lo, hi, lam, convention, key), lam, convention)


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


@pytest.mark.parametrize("t, lam, convention", [
    (1e290, 300.0, "sym"), (1e295, 300.0, "num"), (1.0, 710.0, "num"), (2.0, -710.0, "num")])
def test_cutoff_past_the_sinh_range_is_finite(t, lam, convention):
    """scale E overflows at the cutoff (T = 1e290, lambda = 300), or scale
    = sinh(lambda) does (710), yet the cutoff E <= 1.5e303 has a finite index,
    and every level below it is finite: at lambda = 300, T = 1e290, levels
    0, 1 and 2 (E_2 = e^600/2) weigh about 1 each, so <n> = 1."""
    assert_matches_oracle(t, lam, convention)


def test_cutoff_past_the_sinh_range_keeps_only_the_ground_level():
    """"sym" at lambda = 710: E_1 = sinh(1065)/(2 sinh 355) = e^710/2 has no
    weight at T = 1, so Z = e^{-1/2}, <n> = C = 0; before, the cutoff raised."""
    m = thermo._moments([1.0], 710.0, "sym")[0]
    assert (m.log_z, m.mean_n, m.heat) == (-0.5, 0.0, 0.0)
    # the cutoff reaches level 1 only, so its sinh argument 1.5 lambda is safe
    assert thermo.mean_occupation(1.0, 400.0) == 0.0
