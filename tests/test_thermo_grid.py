"""thermo_table's one pass over a whole temperature grid against the frozen
per-temperature pass (moments_reference.py): every row bit for bit, in any
order of the grid, the same first error, the price of a grid checked
before any level is summed, and the memory of the longest sum.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moments_reference import moments

from qlab import thermo
from qlab.errors import WORK_BUDGET, ParameterError


def bits(values):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


def assert_grid_matches_reference(temps, lam, convention):
    """Each row as the per-temperature pass gives it."""
    want = [moments(1.0 / t, lam, convention) for t in temps]
    got = thermo._moments([1.0 / t for t in temps], lam, convention)
    assert [bits(row) for row in got] == [bits(row) for row in want]
    table = thermo.thermo_table(temps, lam, convention)
    for i, t in enumerate(temps):
        alone = thermo.thermo_table([t], lam, convention)
        row = [table.z[i], table.mean_n[i], table.c[i], table.planck_approx[i]]
        assert bits(row) == bits([alone.z[0], alone.mean_n[0], alone.c[0],
                                  alone.planck_approx[0]])
        assert bits(row[:3]) == bits([math.exp(want[i].log_z), want[i].mean_n, want[i].heat])
    hottest = max(want, key=lambda m: m.cutoff)
    assert (table.cutoff_used, table.terms, table.tail) == \
        (hottest.cutoff, sum(m.terms for m in want), hottest.tail)
    return [m.tail if m.terms <= thermo._BLOCK else "multi-block" for m in want]


# lambda = 1e-5 sums its levels directly at T = 99 and takes a head to the
# cutoff from 99.5 on; 2e-3 takes a head and then levels up to the cutoff at
# 1e5, and at 1e300 more terms than a block.
MIXED = {0.0: [0.5, 1e6, 1e-3, 4.0],
         1e-5: [1e4, 0.5, 99.0, 1e300, 3.0, 99.5],
         2e-3: [1e300, 0.02, 1e5, 7.0],
         0.3: [64.0, 0.25, 1e-300, 2.0]}


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_mixed_grids_match_the_reference_in_every_kind_of_row(convention):
    kinds = set()
    for lam, temps in MIXED.items():
        kinds.update(assert_grid_matches_reference(temps, lam, convention))
    assert kinds == {"closed", "direct", "direct+em", "multi-block"}


_lams = st.sampled_from([0.0, 1e-6, 1e-5, 5e-4, 1e-3, 1.0005e-3, 0.01, 0.3, 2.0, 40.0, 300.0])
_temps = st.lists(st.floats(min_value=-3.0, max_value=8.0).map(lambda e: 10.0 ** e)
                  | st.sampled_from([99.0, 99.9, 1e290, 1e300]), min_size=1, max_size=8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_lams, _temps, st.sampled_from(thermo.CONVENTIONS), st.randoms(use_true_random=False))
def test_every_row_is_its_own_grid_in_any_order(lam, temps, convention, random):
    assert_grid_matches_reference(temps, lam, convention)
    random.shuffle(temps)
    assert_grid_matches_reference(temps, lam, convention)


@pytest.mark.parametrize("lam, temps", [
    (300.0, [1.0, 1e290, 0.5, 1e295]),
    (300.0, [1e295, 1.0, 1e290]),
    (710.0, [2.0, 3.0]),           # sinh(lambda) itself overflows
    (-710.0, [3.0, 2.0]),
])
@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_grids_whose_cutoff_index_overflowed_match_the_reference(lam, temps, convention):
    """These grids once raised a SaturationError where scale E at the cutoff
    overflowed, although every level below the cutoff is finite."""
    assert_grid_matches_reference(temps, lam, convention)


def test_a_grid_past_the_work_budget_is_refused_before_any_sum(monkeypatch):
    limit = int(WORK_BUDGET // thermo._POINT_COST)
    thermo._check_cost(limit, 0)
    with pytest.raises(ParameterError, match=f"past the limit of {WORK_BUDGET}"):
        thermo.thermo_table(np.geomspace(1.0, 10.0, limit + 1), 0.0)

    def no_sum(*args):
        raise AssertionError("summed a grid past the budget")

    # about the most terms one temperature sums: a head and 3,650 levels
    assert thermo._moments([1e-300], 1.43e-3, "sym")[0].terms == 9504
    monkeypatch.setattr(thermo, "_pool", no_sum)
    with pytest.raises(ParameterError, match="9017 temperatures and 85582506 terms to sum"):
        thermo.thermo_table(np.geomspace(1e299, 1e300, 9017), 1.43e-3, "sym")


def test_the_longest_single_sum_stays_under_a_megabyte():
    """A head of 5,852 nodes and 3,650 levels, about the most one temperature
    sums, pass in blocks; and 6,381 levels, the longest direct sum of a sweep
    of lambda over [1e-8, 10] and T over [0.1, 1e300]."""
    for lam, convention in ((1.43e-3, "sym"), (0.10904204429677526, "num")):
        thermo.specific_heat(1e300, lam, convention)
        tracemalloc.start()
        try:
            heat = thermo.specific_heat(1e300, lam, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert heat == moments(1e-300, lam, convention).heat
        assert peak < 1e6, f"peak traced allocation {peak} bytes"
    assert thermo._moments([1e-300], 0.10904204429677526, "num")[0][4:] == (6382, "direct")
