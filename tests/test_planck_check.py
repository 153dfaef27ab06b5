"""planck_coefficient_check reads every <n> from one table keyed by
(lambda, convention, x): its reports against the three-pass check
(planck_reference.py) field for field, each row summed once, and its
lambda grid and x bounded before any sum."""

import json
import math
import sys

import pytest
from planck_reference import planck_coefficient_check as reference

from qlab import cli, thermo
from qlab.errors import ParameterError

# the default grid (0.02 and 0.01 are the probe's), the probe's own grid, one
# holding it and more, and two grids apart from it
GRIDS = [(0.04, 0.02, 0.01), (0.02, 0.01, 0.005), (0.03, 0.02, 0.01, 0.005, 0.0025),
         (0.1, 0.05), (0.09, 0.07, 0.06)]
XS = [0.5, 1.0, 2.0, 3.0, 1e-3, 0.01, 0.7, 30.0, 3.3e-103]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("convention", thermo.CONVENTIONS)
def test_every_report_field_is_the_three_pass_checks(grid, convention):
    for x in XS:
        got, want = thermo.planck_coefficient_check(grid, x, convention), \
            reference(grid, x, convention)
        assert repr(got) == repr(want), (x, grid, convention)  # == but for nan; -0.0 counts
        assert got.converged() == want.converged()


@pytest.mark.parametrize("x", [1e-310, float("nan"), 800.0, -1.0])
def test_a_bad_x_is_the_three_pass_checks_error(x):
    with pytest.raises(ParameterError) as want:
        reference(GRIDS[0], x)
    with pytest.raises(ParameterError) as got:
        thermo.planck_coefficient_check(GRIDS[0], x)
    assert str(got.value) == str(want.value)


def summed_rows(monkeypatch):
    """The (lambda, convention, beta) of every row _moments sums, one list a call."""
    calls, moments = [], thermo._moments

    def counting(betas, lam, convention):
        calls.append([(lam, convention, b) for b in betas])
        return moments(betas, lam, convention)

    monkeypatch.setattr(thermo, "_moments", counting)
    return calls


@pytest.mark.parametrize("x", [1e-310, 1e-250, 1e-200, 1e-103,
                               math.nextafter(thermo._PLANCK_X_MIN, 0.0)])
def test_an_x_whose_printed_coefficient_overflows_is_refused_before_any_sum(monkeypatch, x):
    """Below _PLANCK_X_MIN the printed coefficient, ~ -6/x^3, is -inf.  The
    check once summed every row and then failed on its report (exit 3); a
    ParameterError now names the smallest x before any row is summed."""
    calls = summed_rows(monkeypatch)
    with pytest.raises(ParameterError, match=f"x must be >= {thermo._PLANCK_X_MIN!r}$"):
        thermo.planck_coefficient_check(GRIDS[0], x)
    assert calls == []


def test_the_smallest_x_has_a_finite_report(capsys):
    """At _PLANCK_X_MIN the printed coefficient is -DBL_MAX, and -inf an ulp
    below, for a thousand ulps each side; its JSON report keeps that value,
    where rounding it to 15 digits once made it -inf and a traceback."""
    x_min, f = thermo._PLANCK_X_MIN, thermo.planck_correction_coefficient
    below, above = [x_min], [x_min]
    for _ in range(1000):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    assert f(x_min) == -sys.float_info.max
    assert {f(v) for v in below[1:]} == {-math.inf} and all(f(v) > -math.inf for v in above)
    assert cli.run(["thermo", "planck-check", "--x", repr(x_min)]) == 0
    assert json.loads(capsys.readouterr().out)["printed_coefficient"] == -sys.float_info.max


def test_no_row_is_summed_twice(monkeypatch):
    calls = summed_rows(monkeypatch)
    for grid in GRIDS:
        for convention in thermo.CONVENTIONS:
            for x in XS:
                calls.clear()
                thermo.planck_coefficient_check(grid, x, convention)
                rows = [row for call in calls for row in call]
                assert len(rows) == len(set(rows)), (grid, convention, x)
                pairs = [call[0][:2] for call in calls]  # one grid a (lambda, convention)
                assert len(pairs) == len(set(pairs)), (grid, convention, x)


def test_the_default_grid_makes_seven_grid_calls(monkeypatch):
    """Six probe grids, which hold lambda = 0.02 and 0.01 at x = 1, and 0.04's row."""
    calls = summed_rows(monkeypatch)
    thermo.planck_coefficient_check((0.04, 0.02, 0.01), 1.0)
    assert len(calls) == 7


def lambdas(count):
    return ",".join(repr(0.1 * (k + 1) / count) for k in range(count))


def test_a_grid_of_the_bound_runs_and_one_more_is_refused(capsys, monkeypatch):
    """The bound takes two of the priciest rows at x = 1e-300 a lambda (about
    2 ms priced); one more value is refused before any row is summed.  The
    grid, about 20 KB of argv, goes to cli.run in-process, not into a test id."""
    bound = thermo._PLANCK_LAMBDAS
    calls = summed_rows(monkeypatch)
    with pytest.raises(ParameterError, match=f"past the limit of {bound}$"):
        thermo.planck_coefficient_check([0.1 * (k + 1) / (bound + 1) for k in range(bound + 1)],
                                        1e-300, "num")
    assert calls == []
    argv = ["thermo", "planck-check", "--x", "1", "--lambdas"]
    assert cli.run(argv + [lambdas(bound)]) == 0
    capsys.readouterr()
    assert cli.run(argv + [lambdas(bound + 1)]) == 2
    err = capsys.readouterr().err
    assert f"{bound + 1} lam values are past the limit of {bound}" in err
