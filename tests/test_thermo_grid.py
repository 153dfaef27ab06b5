"""thermo_table's one pass over a whole temperature grid against the frozen
per-temperature pass (moments_reference.py): every row bit for bit, in any
order of the grid, the same first error, the price of a grid checked
before any level is summed, each row's plan the one priced lower, and the
memory of the longest sum.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moments_reference import moments
from thermo_oracle import oracle

from qlab import thermo
from qlab.errors import _POINT_COST, WORK_BUDGET, ParameterError


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
    limit = WORK_BUDGET // _POINT_COST
    thermo._check_cost(limit)
    with pytest.raises(ParameterError, match=f"past the limit of {WORK_BUDGET}"):
        thermo.thermo_table(np.geomspace(1.0, 10.0, limit + 1), 0.0)

    def no_sum(*args):
        raise AssertionError("summed a grid")

    # about the priciest row: a head of 6,250 nodes and 3,253 levels, 502 units
    assert thermo._moments([1e-300], 1.43e-3, "sym")[0].terms == 9504
    monkeypatch.setattr(thermo, "_pool", no_sum)
    with pytest.raises(AssertionError, match="summed a grid"):
        thermo.thermo_table(np.geomspace(1e299, 1e300, 1994), 1.43e-3, "sym")
    with pytest.raises(ParameterError, match="1995 temperatures, 6486679 levels and 12446358 "
                                             "head nodes cost 1.00047e"):
        thermo.thermo_table(np.geomspace(1e299, 1e300, 1995), 1.43e-3, "sym")


class Priced(Exception):
    pass


def price(monkeypatch, t, lam, convention, node_cost):
    """The price of one row's plan, planned with _NODE_COST = node_cost but
    priced at the true costs; no level is summed."""
    level, node = thermo._LEVEL_COST, thermo._NODE_COST

    def check(points, levels=0, nodes=0):
        raise Priced(points * _POINT_COST + levels * level + nodes * node)

    monkeypatch.setattr(thermo, "_check_cost", check)
    monkeypatch.setattr(thermo, "_NODE_COST", node_cost)
    try:
        thermo._moments([1.0 / t], lam, convention)
    except Priced as priced:
        return priced.args[0]
    finally:
        monkeypatch.undo()
    raise AssertionError("no price checked")


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_each_row_takes_the_plan_priced_lower(monkeypatch, convention):
    """Over lambda and T, a row's price is the lower of its two plans': a head
    wherever J >= 1 (a node priced at 1e-300), or every level summed one by
    one (a node at inf)."""
    heads = 0
    for lam in np.geomspace(1e-5, 0.5, 41):
        for t in np.geomspace(1.0, 1e300, 31):
            chosen, head, direct = (price(monkeypatch, t, lam, convention, node)
                                    for node in (thermo._NODE_COST, 1e-300, math.inf))
            assert chosen == min(head, direct), (lam, t)
            heads += chosen < direct
    assert heads > 200  # both plans are chosen


def test_the_planck_bound_takes_two_of_the_priciest_rows_a_lambda(monkeypatch):
    """_WIDEST prices the priciest row at x = 1e-300 with |lambda| <= 0.1, the
    row just past _EM_SLOPE/7: a sweep of lambda finds it within a level and
    none above.  planck-check's bound, two such rows a lambda and six for the
    convention probe, fits the work budget."""
    lams = [*np.geomspace(1e-8, 0.1, 2001), math.nextafter(thermo._EM_SLOPE / 7, 1.0)]
    worst = max(price(monkeypatch, 1e300, float(lam), convention, thermo._NODE_COST)
                for lam in lams for convention in thermo.CONVENTIONS)
    assert worst <= thermo._WIDEST < worst + thermo._LEVEL_COST
    assert (2 * thermo._PLANCK_LAMBDAS + 6) * thermo._WIDEST <= WORK_BUDGET


@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_the_hottest_rows_at_lambda_0_1_sum_their_levels(convention):
    """At T = 1e300, lambda = 0.1 a head of about 6,650 nodes is priced over
    the 6,957 levels it would take, which measure 2-3 times faster summed one
    by one; the row is still within 1e-12 of the oracle."""
    m = thermo._moments([1e-300], 0.1, convention)[0]
    assert (m.terms, m.tail) == (6958, "direct")
    assert bits(m) == bits(moments(1e-300, 0.1, convention))
    for got, want in zip(m[:3], oracle(1e300, 0.1, convention)):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_the_longest_single_sum_stays_under_a_megabyte():
    """A head of 6,250 nodes and 3,253 levels, about the priciest row, and
    30,047 levels, the longest direct sum of a sweep of lambda over [1e-8, 10]
    and T over [0.1, 1e300], pass in blocks."""
    for lam, convention in ((1.43e-3, "sym"), (0.023106940151935124, "num")):
        thermo.specific_heat(1e300, lam, convention)
        tracemalloc.start()
        try:
            heat = thermo.specific_heat(1e300, lam, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert heat == moments(1e-300, lam, convention).heat
        assert peak < 1e6, f"peak traced allocation {peak} bytes"
    assert thermo._moments([1e-300], 0.023106940151935124, "num")[0][4:] == (30048, "direct")
