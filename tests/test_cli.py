"""Command-line harness: grammar, exit codes, error channel, output
formats, atomic writes, seeding, suite execution, the measured fact that
every public function but the library-only ones is reached by some verb,
and one strict-JSON error line for edge inputs and for fuzzed argvs.
"""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import csv_reference
import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from thermo_oracle import oracle

import qlab
from qlab import cli, deformation, experiments, thermo
from qlab.errors import ParameterError, SaturationError, SolverError

SRC = Path(__file__).resolve().parents[1] / "src"
BUNDLED_SUITE = SRC / "qlab" / "data" / "acceptance.suite"


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- coverage

# The public functions that no verb runs: the dense ladder matrix and three
# scalar thermo readers, whose values the verbs carry in other forms and which
# the benchmark (perfbench/) calls or times.  Every other public function is
# reached by some verb, which the test below measures rather than declares.
LIBRARY_ONLY = {
    "fock.deformed_annihilation", "thermo.mean_occupation", "thermo.partition_function",
    "thermo.specific_heat",
}
PERFBENCH = SRC.parent / "perfbench"


def small_verb_argvs(tmp_path) -> list[list[str]]:
    """One small valid argv per COMMANDS key, between them using every spec kind."""
    table = tmp_path / "f.csv"
    table.write_text("".join(f"{n},{1 + n / 100}\n" for n in range(65)), encoding="utf-8")
    flags = {
        "deform table": ["--lambda", "0.3", "--n-max", "4"],
        "operators check": ["--kind", "identity", "--dim", "8"],
        "classical simulate": ["--lambda", "0.5", "--q0", "1", "--p0", "0",
                               "--t-end", "0.1", "--dt", "0.01"],
        "classical bracket": ["--lambda", "0.5", "--alpha-re", "0.5"],
        "classical bracket-grid": ["--points", "2"],
        "classical momentum": ["--lambda", "0.5", "--q", "0.5", "--qdot", "0.5"],
        "classical momentum-scaling": ["--points", "2"],
        "classical alpha": ["--lambda", "0.5", "--q0", "1", "--p0", "0"],
        "wave simulate": ["--lambda", "0.3", "--t-end", "0.5", "--n", "16",
                          "--soliton", "1"],
        "level simulate": ["--lambda", "0.5", "--re", "0.5", "--t-end", "0.1",
                           "--dt", "0.01"],
        "level map": ["--re", "0.5"],
        "coherent build": ["--kind", "custom", "--f-table", str(table), "--alpha-re", "0.5"],
        "coherent overlap": ["--kind", "identity", "--a-re", "0.5", "--b-re", "0.3"],
        "coherent recover": ["--count", "4"],
        "thermo table": ["--lambda", "0.1", "--t-min", "10", "--t-max", "100",
                         "--points", "2"],
        "thermo levels": ["--lambda", "0.3", "--n-max", "4"],
        "thermo planck-check": ["--x", "1"],
        "thermo blueshift": ["--lambda", "0.1", "--n", "2"],
    }
    assert list(flags) == list(experiments.COMMANDS)
    return [key.split(" ") + argv for key, argv in flags.items()]


def test_every_public_function_is_reached_by_a_verb(capsys, tmp_path):
    """Run every verb once under sys.setprofile: the public functions never
    called are exactly LIBRARY_ONLY."""
    reached = set()  # code objects of the qlab functions called

    def record(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("qlab."):
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.run(argv) for argv in small_verb_argvs(tmp_path)]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes), capsys.readouterr().err
    unreached = set()
    for module, names in qlab._EXPORTS.items():
        for name in names:
            obj = getattr(importlib.import_module(f"qlab.{module}"), name)
            if inspect.isfunction(obj) and obj.__code__ not in reached:
                unreached.add(f"{module}.{name}")
    assert unreached == LIBRARY_ONLY


def test_every_library_only_function_is_used_by_the_benchmark():
    """A public function that no verb reaches stays only while the benchmark
    names it: an operation calls it, or a per-layer metric times it."""
    sources = "\n".join(path.read_text(encoding="utf-8")
                        for path in sorted(PERFBENCH.glob("*.py")))
    for name in sorted(LIBRARY_ONLY):
        assert re.search(rf"\b{re.escape(name)}\b", sources), name


# --------------------------------------------------------------- exit codes

def test_successful_run_exits_zero(capsys):
    code, out, err = run(capsys, ["deform", "table", "--lambda", "1.0",
                                  "--n-max", "3"])
    assert code == 0
    assert err == ""
    header = out.splitlines()[0]
    assert header.split(",")[0] == "n"
    assert len(out.splitlines()) == 5  # header + rows 0..3


def test_missing_required_flag_exits_two(capsys):
    code, _, err = run(capsys, ["classical", "momentum", "--q", "1.0"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"


def test_unknown_flag_exits_two(capsys):
    code, _, err = run(capsys, ["deform", "table", "--wavelength", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"


def test_bad_value_type_exits_two(capsys):
    code, _, err = run(capsys, ["deform", "table", "--lambda", "abc"])
    assert code == 2
    assert "message" in json.loads(err)


def test_solver_failure_exits_three(capsys):
    # (n_max + 1) * lambda beyond sinh range -> saturation
    code, _, err = run(capsys, ["thermo", "levels", "--lambda", "1.0",
                                "--n-max", "800"])
    assert code == 3
    assert json.loads(err)["error"] == "SaturationError"


def test_errors_are_single_json_lines(capsys):
    _, _, err = run(capsys, ["deform", "table", "--lambda", "abc"])
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}


def test_cutoff_error_carries_required_cutoff(capsys):
    code, _, err = run(capsys, ["coherent", "build", "--alpha-re", "3",
                                "--cutoff", "4"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "CutoffError"
    need = payload["required_cutoff"]
    assert isinstance(need, int) and need > 4
    code, _, _ = run(capsys, ["coherent", "build", "--alpha-re", "3",
                              "--cutoff", str(need)])
    assert code == 0


def test_saturation_error_carries_largest_safe_n(capsys):
    code, _, err = run(capsys, ["thermo", "levels", "--lambda", "1.0",
                                "--n-max", "800"])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["largest_safe_n"] == 710  # E_710 = e^709.77, E_711 = e^710.77
    code, _, _ = run(capsys, ["thermo", "levels", "--lambda", "1.0",
                              "--n-max", "710"])
    assert code == 0


@pytest.mark.parametrize("argv, safe", [
    (["classical", "simulate", "--lambda", "1", "--q0", "40", "--p0", "0", "--t-end", "1"],
     355.3186497177575),
    (["level", "simulate", "--lambda", "1", "--re", "30", "--t-end", "1"], 355.3186497177575),
    (["wave", "simulate", "--lambda", "1", "--t-end", "1", "--amplitude", "60", "--n", "16"],
     710.637299435515),
], ids=["argv0-354", "argv1-354", "argv2-709"])  # fixed ids keep each case's name stable
def test_overflowing_flow_saturates(capsys, argv, safe):
    """An intensity whose omega_q overflows (whose omega_q at 2 I, for RK4,
    whose stages overshoot I) is one SaturationError line, not an
    OverflowError traceback, naming the last finite intensity:
    acosh(DBL_MAX sinh 1) = 710.6372994355152 at 40 digits."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["largest_safe_n"] == safe


@pytest.mark.parametrize("argv, size, safe", [
    ("operators check --lambda 3 --dim 300", "dim", 237),
    ("coherent build --lambda 1 --alpha-re 1 --cutoff 720", "cutoff", 710),
])
def test_overflowing_ladder_saturates(capsys, argv, size, safe):
    """F(238) = sinh(714)/sinh(3) is past the double range; the error line
    is all that reaches stderr, with no numpy warning before it, and names
    the verb's own size parameter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv.split())
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["message"].endswith(f"; reduce {size} or |lam|")
    assert payload["largest_safe_n"] == safe


def test_operators_check_at_dim_100000(capsys):
    """No check is dense, so dim 1e5 runs: every residual within 1e-10."""
    code, out, err = run(capsys, ["operators", "check", "--lambda", "0.005",
                                  "--dim", "100000", "--format", "json"])
    assert (code, err) == (0, "")
    metrics = json.loads(out)
    assert metrics.pop("uncertainty_product") > 0.5
    assert len(metrics) == 6
    assert all(value <= 1e-10 for value in metrics.values()), metrics


def test_flow_past_sinh_overflow_of_lambda(capsys):
    """lam/sinh(lam) at lambda = 800 is 0 in double: the orbit stands still."""
    code, out, err = run(capsys, ["classical", "simulate", "--lambda", "800", "--q0", "0.1",
                                  "--p0", "0", "--t-end", "1"])
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[-1].split(",")[:3] == ["1", "0.1", "0"]


# Past |lambda| = 709, where sinh(lambda) overflows: every verb gives the
# oracle's number or a typed error, never a traceback.  The oracle values
# allow (|lambda| + 4) eps, the relative change one rounding of lambda makes
# in e^{-|lambda|}; the CLI's 15 digits are well inside that.
def close_to(got, want, lam):
    tol = (abs(lam) + 4.0) * sys.float_info.epsilon * abs(want) + 2.0 ** -1070
    return abs(got - float(want)) <= tol


def oracle_deform_amplitude(alpha, lam):
    intensity = abs(mpmath.mpc(alpha)) ** 2
    lam = mpmath.mpf(lam)
    return mpmath.sqrt(mpmath.sinh(lam * intensity) / (intensity * mpmath.sinh(lam))) * alpha


def test_deform_table_past_sinh_overflow_saturates(capsys):
    """F(1) = 1 at lambda = 800, but F(2) = 2 cosh(800) is past the double
    range, and so is phi(1) = F(2) - F(1): the row n = 1 is the first that
    overflows."""
    code, out, err = run(capsys, ["deform", "table", "--lambda", "800", "--n-max", "2"])
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["message"] == "phi = F(n + 1) - F(n) overflows at n = 1"
    assert payload["largest_safe_n"] == 0


def test_bracket_past_sinh_overflow(capsys):
    code, out, err = run(capsys, ["classical", "bracket", "--lambda", "800",
                                  "--alpha-re", "0.1"])
    assert code == 0, err
    summary = json.loads(out)
    with mpmath.workdps(50):
        want = oracle_deform_amplitude(mpmath.mpf("0.1"), 800)
    assert close_to(summary["alpha_q_re"], want.real, 800)
    assert summary["alpha_q_im"] == 0.0
    # both sides of the bracket are ~1e-341, below every double
    assert summary["residual"] == 0.0


def test_bracket_past_the_safe_intensity_saturates(capsys):
    """|alpha|^2 = 900 at lambda = 1: I_q overflows, which used to reach the
    JSON writer as inf and end in a traceback."""
    code, out, err = run(capsys, ["classical", "bracket", "--lambda", "1",
                                  "--alpha-re", "30"])
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert (payload["error"], payload["largest_safe_n"]) == ("SaturationError",
                                                             710.637299435515)


def test_alpha_past_sinh_overflow(capsys):
    code, out, err = run(capsys, ["classical", "alpha", "--lambda", "800", "--q0", "0.1",
                                  "--p0", "0"])
    assert code == 0, err
    summary = json.loads(out)
    with mpmath.workdps(50):
        lam = mpmath.mpf(800)
        alpha0 = mpmath.mpf("0.1") / mpmath.sqrt(2)
        omega = lam / mpmath.sinh(lam) * mpmath.cosh(lam * alpha0 ** 2)
        alpha_t = alpha0 * mpmath.exp(-1j * omega)
        alpha_q0 = oracle_deform_amplitude(alpha0, lam)
        freq = lam / mpmath.sinh(lam) * mpmath.sqrt(
            1 + abs(alpha_q0) ** 4 * mpmath.sinh(lam) ** 2)
        alpha_q_t = alpha_q0 * mpmath.exp(-1j * freq)
    for key, want in (("alpha_re", alpha_t.real), ("alpha_im", alpha_t.imag),
                      ("alpha_q_re", alpha_q_t.real), ("alpha_q_im", alpha_q_t.imag)):
        assert close_to(summary[key], want, 800), key
    assert summary["consistency"] == 0.0


def test_momentum_past_sinh_overflow(capsys):
    """(sinh lambda/lambda) qdot overflows at lambda = 800; p does not."""
    code, out, err = run(capsys, ["classical", "momentum", "--lambda", "800", "--q", "0.1",
                                  "--qdot", "0.1"])
    assert code == 0, err
    summary = json.loads(out)
    with mpmath.workdps(50):
        lam = mpmath.mpf(800)
        q, qdot = mpmath.mpf("0.1"), mpmath.mpf("0.1")
        log_c = mpmath.log(mpmath.sinh(lam) / lam * qdot)
        want = mpmath.findroot(lambda p: mpmath.log(p) + mpmath.log(
            mpmath.cosh(lam / 2 * (q * q + p * p))) - log_c, 1.4)
        approx = qdot * (1 + lam ** 2 / 6 - lam ** 2 / 8 * (q * q + qdot * qdot))
    assert close_to(summary["p"], want, 800)
    assert close_to(summary["p_approx"], approx, 800)


@pytest.mark.parametrize("lam", [400.0, 800.0])
def test_wave_past_underflow_of_lambda_over_sinh_squared(capsys, lam):
    """(lambda/sinh lambda)^2 underflows from |lambda| ~ 361 on, and at 800
    lambda/sinh lambda itself: with pi = 0 the invariant is the phi term."""
    code, out, err = run(capsys, ["wave", "simulate", "--lambda", str(lam), "--t-end", "1",
                                  "--amplitude", "0.01", "--n", "16"])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    with mpmath.workdps(50):
        mu = mpmath.mpf("0.01") ** 2 / 4  # sum over k = +-1 of |k| |phi_k|^2 / 2
        speed = lam / mpmath.sinh(lam) * mpmath.cosh(lam * mu)
    assert close_to(summary["mu"], mu, lam)
    assert close_to(summary["speed"], speed, lam)
    assert summary["mu_drift"] < 1e-18


def test_diverging_rk4_is_a_solver_error(capsys):
    """dt = 1e-3 against omega_q(12.5, 1) = 1.1e5: RK4 is unstable."""
    code, _, err = run(capsys, ["classical", "simulate", "--lambda", "1", "--q0", "5",
                                "--p0", "0", "--t-end", "1"])
    assert code == 3
    assert json.loads(err)["error"] == "SolverError"


def test_solver_error_carries_residual(capsys, monkeypatch):
    def fail(key, given):
        raise SolverError("no convergence", residual=2.5e-3)

    monkeypatch.setattr(experiments, "run_experiment", fail)
    code, _, err = run(capsys, ["classical", "momentum", "--lambda", "1",
                                "--q", "1", "--qdot", "1"])
    assert code == 3
    assert json.loads(err) == {"error": "SolverError", "message": "no convergence",
                               "residual": 2.5e-3}


@pytest.mark.parametrize("residual, written", [(math.inf, "inf"), (math.nan, "nan")])
def test_non_finite_error_field_is_strict_json(capsys, monkeypatch, residual, written):
    def fail(key, given):
        raise SolverError("no convergence", residual=residual)

    monkeypatch.setattr(experiments, "run_experiment", fail)
    code, _, err = run(capsys, ["level", "map", "--re", "1"])
    assert code == 3
    assert json.loads(err, parse_constant=reject_constant)["residual"] == written


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# One argv per kind of input that used to end in a traceback or in a stderr
# that was not one strict-JSON line, with the exit code and error type each
# gives now.
EDGE_ARGVS = [
    # a nan or inf parameter, rejected where parameters are coerced
    ("classical alpha --lambda 0.5 --q0 1 --p0 0 --t inf", 2, "ParameterError"),
    ("level map --re nan", 2, "ParameterError"),
    # a non-finite result: -inf for p_approx = qdot (1 + ... - qdot^2 ...)
    ("classical momentum --lambda 1 --q 1 --qdot 1e300", 3, "SolverError"),
    ("level map --re 1 --omega 5e-324", 3, "SolverError"),
    ("classical momentum-scaling --lam-fine 5e-324", 3, "SolverError"),
    # the small-lambda expansion's range, where its lambda^2 is finite: named
    # before any root is solved
    ("classical momentum --lambda 1e308 --q 0.5 --qdot 0.5", 2,
     "ParameterError: lambda must be >= -1e+154 and <= 1e+154"),
    ("classical momentum --lambda 1.0000000000000002e154 --q 0.5 --qdot 0.5", 2,
     "ParameterError: lambda must be >= -1e+154 and <= 1e+154"),
    ("classical momentum --lambda 1e154 --q 0.5 --qdot 0.5", 0, ""),
    ("classical momentum-scaling --lam-coarse 1.0000000000000002e154 --lam-fine 1e153", 2,
     "ParameterError: lam_coarse must be >= -1e+154 and <= 1e+154"),
    ("classical momentum-scaling --lam-coarse 1e154 --lam-fine 1e153 --points 2", 0, ""),
    # |alpha|^2 past the double range, at lambda = 0 too
    ("classical alpha --lambda 0.5 --q0 1e200 --p0 0", 3, "SaturationError"),
    ("classical bracket --lambda 0 --alpha-re 1e200", 3, "SaturationError"),
    ("classical bracket-grid --alpha-max 1e308", 3, "SaturationError"),
    # a step count past the one work budget (errors.WORK_BUDGET), or not finite
    ("classical simulate --lambda 0.5 --q0 1 --p0 0 --t-end 1e200", 2, "ParameterError"),
    ("classical simulate --lambda 0.5 --q0 1 --p0 0 --t-end 10 --dt 1e-7", 2, "ParameterError"),
    ("level simulate --lambda 0.5 --re 0.5 --t-end 0.1 --dt 5e-324", 2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 1e200 --n 16 --method leapfrog --dt 0.01",
     2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 1 --n 16 --method leapfrog --dt 5e-324",
     2, "ParameterError"),
    # the rest
    ("classical bracket-grid --points -1", 2, "ParameterError"),
    ("classical bracket-grid --lam-min=1e308 --lam-max=-1e308", 2, "ParameterError"),
    ("classical alpha --lambda 2.5 --q0 -3.3 --p0 -3.75 --t 1e308", 2, "ParameterError"),
    ("classical simulate --lambda -0.33 --q0 0 --p0 1.65 --t-end 2.23 --dt 3.02",
     3, "SolverError"),
    # RK4's divergence guard at lambda = 0, one step each side of |G|^{2n} = 2:
    # |G|^2 is 1.42 at dt = 2.9 and 2.27 at dt = 3
    ("classical simulate --lambda 0 --q0 1 --p0 0 --t-end 2.9 --dt 2.9", 0, ""),
    ("classical simulate --lambda 0 --q0 1 --p0 0 --t-end 3 --dt 3", 3,
     "SolverError: RK4 diverged: dt * omega_q = 3 is too long a step"),
    ("wave simulate --lambda 0.3 --t-end 1e308 --n 16", 2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 0.5 --n -1", 2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 0.5 --n 16 --amplitude 1e308", 2, "ParameterError"),
    ("coherent recover --seed -1", 2, "ParameterError"),
    # each size limit, declared once on its Param and checked before any work
    ("deform table --lambda 0 --n-max 1000000000", 2,
     "ParameterError: n_max must be >= 1 and <= 100000"),
    ("deform table --lambda 0 --n-max 100001", 2,
     "ParameterError: n_max must be >= 1 and <= 100000"),
    ("operators check --dim 1000000000000", 2,
     "ParameterError: dim must be >= 2 and <= 1000000"),
    ("classical bracket-grid --points 100000000", 2,
     "ParameterError: points must be >= 1 and <= 577"),
    ("classical bracket-grid --points 578", 2,
     "ParameterError: points must be >= 1 and <= 577"),
    ("classical momentum-scaling --points 1000001", 2,
     "ParameterError: points must be >= 2 and <= 125000"),
    ("classical momentum-scaling --points 125001", 2,
     "ParameterError: points must be >= 2 and <= 125000"),
    ("wave simulate --lambda 0.3 --t-end 1 --n 1099511627776", 2,
     "ParameterError: n must be >= 4 and <= 1000000"),
    ("coherent build --alpha-re 1 --cutoff 1000000000000", 2,
     "ParameterError: cutoff must be >= 0 and <= 1000000"),
    ("coherent recover --count 10000000000", 2,
     "ParameterError: count must be >= 2 and <= 262"),
    ("coherent recover --count 263", 2, "ParameterError: count must be >= 2 and <= 262"),
    ("thermo table --lambda 0.3 --t-min 0.5 --t-max 8 --points 1000000000000", 2,
     "ParameterError: points must be >= 2 and <= 62500"),
    ("thermo levels --lambda 0 --n-max 1000000000000", 2,
     "ParameterError: n_max must be >= 1 and <= 1000000"),
    # a temperature grid priced past the work budget, one temperature more
    # than fits: WORK_BUDGET // _POINT_COST rows, a bound on --points, or
    # 1,994 rows of a head of 6,250 nodes and 3,253 levels
    ("thermo table --lambda 0 --t-min 1 --t-max 10 --points 62501", 2,
     "ParameterError: points must be >= 2 and <= 62500, got 62501"),
    ("thermo table --lambda 1.43e-3 --t-min 1e299 --t-max 1e300 --points 1995", 2,
     "ParameterError: 1995 temperatures, 6486679 levels and 12446358 head nodes cost"),
    # the temperature range of thermo's sums, declared on the Params: one
    # ulp past each end
    ("thermo table --lambda 0.3 --t-min 1e299 --t-max 1.0000000000000002e+300", 2,
     "ParameterError: t_max must be >= 1e-300 and <= 1e+300, got 1.0000000000000002e+300"),
    ("thermo table --lambda 0.3 --t-min 9.999999999999999e-301 --t-max 8", 2,
     "ParameterError: t_min must be >= 1e-300 and <= 1e+300"),
    ("thermo table --lambda 0.3 --t-min 0 --t-max 8", 2,
     "ParameterError: t_min must be >= 1e-300 and <= 1e+300, got 0.0"),
    ("classical simulate --lambda 0.5 --q0 1 --p0 0 --t-end 0.01 --stride 0", 2,
     "ParameterError: stride must be >= 1 and <= 1000000"),
    ("level simulate --lambda 0.5 --re 0.5 --t-end 0.01 --stride 0", 2,
     "ParameterError: stride must be >= 1 and <= 1000000"),
    # no cutoff up to the work budget meets the tail rule, explicit or
    # automatic; 996 is the least integer |alpha| that no cutoff fits
    ("coherent build --alpha-re 1000 --cutoff 4", 2,
     "ParameterError: no cutoff up to 1000000 leaves a negligible tail"),
    ("coherent build --alpha-re 1000 --cutoff 32768", 2,
     "ParameterError: no cutoff up to 1000000 leaves a negligible tail"),
    ("coherent build --alpha-re 996", 2,
     "ParameterError: no cutoff up to 1000000 leaves a negligible tail"),
    # F overflows below the cutoff, which the message names: the verb has no dim
    ("coherent build --lambda 1 --alpha-re 1 --cutoff 720", 3,
     "SaturationError: F(711) overflows double range; reduce cutoff or |lam|"),
    ("coherent build --lambda 30 --alpha-re 1", 3, "SaturationError: reduce cutoff"),
    ("thermo planck-check --x 800", 2, "ParameterError"),
    # the printed coefficient, ~ -6/x^3, is -DBL_MAX at the least x, -inf an ulp below
    ("thermo planck-check --x 3.2196739725461854e-103", 0, ""),
    ("thermo planck-check --x 3.219673972546185e-103", 2, "ParameterError: the printed "
     "coefficient overflows; x must be >= 3.2196739725461854e-103"),
    # a repeated lambda leaves no extrapolation step between the two
    ("thermo planck-check --x 1 --lambdas 0.01,0.01", 2, "ParameterError: distinct"),
    ("thermo planck-check --x 1 --lambdas 0.02,0.01,0.01", 2, "ParameterError: distinct"),
    ("thermo blueshift --lambda 800 --n 2", 3, "SaturationError"),
    ("thermo blueshift --lambda 0.1 --n 1e308", 3, "SaturationError"),
    # a traveling wave whose speed, and so whose pi, underflows to 0
    ("wave simulate --lambda 800 --t-end 1 --amplitude 0.01 --n 16 --soliton 1", 3,
     "SolverError: underflows the normal double range"),
    # suite always writes its JSON report, so it takes no --format
    ("suite some.suite --format csv", 2, "ParameterError: unrecognized arguments"),
    # the levels saturate where E_n overflows, not where a (n_max + 1) passes 709
    ("thermo levels --lambda 0.1 --n-max 7089", 3, "SaturationError: past n = 7081"),
    ("thermo levels --lambda 0.1 --n-max 7082", 3, "SaturationError: past n = 7081"),
    ("thermo levels --lambda 0.1 --n-max 7081", 0, ""),
    # a level whose sinh overflows but whose value fits: E_355 = 1.29e308
    ("thermo levels --lambda 2 --n-max 355", 0, ""),
    ("thermo levels --lambda 2 --n-max 356", 3, "SaturationError: past n = 355"),
    ("thermo levels --lambda 2 --n-max 355 --convention num", 0, ""),
    ("thermo levels --lambda 800 --n-max 3", 3, "SaturationError: past n = 0"),
    ("thermo levels --lambda 500 --n-max 1", 0, ""),  # E_1 = 7e216
    # planck_approx: the Bose value at lambda = 0 past T = 3e102, where the
    # coefficient overflows, and an empty cell where lambda^2 times it does
    ("thermo table --lambda 0 --t-min 1e200 --t-max 1e201 --points 2", 0, ""),
    ("thermo table --lambda 0.3 --t-min 1e299 --t-max 1e300 --points 2", 0, ""),
    # C = 0 on the whole grid, every excited level frozen out: no fall
    ("thermo table --lambda 500 --t-min 1 --t-max 2 --points 2", 0, ""),
    ("thermo table --lambda 3.7 --t-min 1.5e-181 --t-max 4e-150", 0, ""),
    # every level below the cutoff is finite (E <= 1.5e303), and sinh(lambda) need not be
    ("thermo table --lambda 710 --t-min 1 --t-max 2 --points 2", 0, ""),
    ("thermo table --lambda 710 --t-min 1 --t-max 2 --points 2 --convention num", 0, ""),
    # omega_q by its value: the speed 2.12e-258 where lambda/sinh(lambda) underflows to 0
    ("wave simulate --lambda 800 --t-end 1", 0, ""),
    ("wave simulate --lambda 760 --t-end 1 --mode 1 --amplitude 0.5", 0, ""),
    # omega_q(2 I) = 709.5 at I = 0.5; the last finite intensity is 0.9955730460865284
    ("classical simulate --lambda 709.5 --q0 1 --p0 0 --t-end 1", 0, ""),
    ("classical simulate --lambda 709.5 --q0 1.411079761095402 --p0 0 --t-end 0.01", 0, ""),
    ("classical simulate --lambda 709.5 --q0 1.4110797610954022 --p0 0 --t-end 0.01", 3,
     "SaturationError: intensity 0.9955730460865287 at lambda = 709.5 is past the largest "
     "safe intensity 0.9955730460865284"),
    # F(1) = 1 at every lambda; at 709.5, phi(2) = F(3) - F(2) = e^1419 overflows
    ("deform table --lambda 709.5 --n-max 1", 0, ""),
    ("deform table --lambda 709.5 --n-max 2", 3,
     "SaturationError: phi = F(n + 1) - F(n) overflows at n = 2"),
    ("operators check --lambda 100 --dim 9", 0, ""),  # F(8) = 1.01e304
    ("coherent build --lambda 800 --alpha-re 0.3", 3,
     "SaturationError: F(2) overflows double range; reduce cutoff or |lam|"),
    # 2 sinh^2(lambda n/2) = 1.12e308 at n = 710, past the double range at 711
    ("thermo blueshift --lambda 1 --n 710", 0, ""),
    ("thermo blueshift --lambda 1 --n 711", 3, "SaturationError: past lam n = 710.476"),
]
SUCCESSFUL_EDGE_ARGVS = [argv.split() for argv, code, _ in EDGE_ARGVS if code == 0]


@pytest.mark.parametrize("lam, extra", [(800.0, []),
                                        (760.0, ["--mode", "1", "--amplitude", "0.5"])])
def test_wave_speed_past_the_underflow_of_lambda_over_sinh(capsys, lam, extra):
    """The speed (lambda/sinh lambda) cosh(lambda mu), where lambda/sinh lambda
    alone underflows, matches 40-digit mpmath at the reported mu to 1e-12."""
    code, out, err = run(capsys, ["wave", "simulate", "--lambda", str(lam), "--t-end", "1",
                                  *extra])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    with mpmath.workdps(40):
        a = mpmath.mpf(lam)
        want = float(a / mpmath.sinh(a) * mpmath.cosh(a * mpmath.mpf(summary["mu"])))
    assert summary["speed"] == pytest.approx(want, rel=1e-12)
    if lam == 800.0:
        assert summary["speed"] == pytest.approx(2.1203172424034487e-258, rel=1e-12)


@pytest.mark.parametrize("convention", ["sym", "num"])
def test_thermo_table_past_the_sinh_range_matches_the_oracle(capsys, convention):
    """At lambda = 710, where sinh(lambda) overflows, the rows are the 20-digit
    oracle's: "num" has E_1 = 1, "sym" no excited level of any weight."""
    code, out, err = run(capsys, ["thermo", "table", "--lambda", "710", "--t-min", "1",
                                  "--t-max", "2", "--points", "2", "--convention", convention])
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "T,Z,mean_n,C,planck_approx" and len(rows) == 2
    for row in rows:
        t, z, mean_n, heat = (float(v) for v in row.split(",")[:4])
        want = [float(v) for v in oracle(t, 710.0, convention)]
        assert [math.log(z), mean_n, heat] == pytest.approx(want, rel=1e-12)


def test_thermo_table_leaves_an_overflowing_planck_cell_empty(capsys):
    """Where lambda^2 times the coefficient overflows, the planck_approx cell
    is empty and the row keeps the library's Z, <n> and C; a finite cell reads
    as a float column would."""
    code, out, err = run(capsys, ["thermo", "table", "--lambda", "0.3", "--t-min", "1e100",
                                  "--t-max", "1e300", "--points", "3"])
    assert (code, err) == (0, "")
    table = thermo.thermo_table(np.geomspace(1e100, 1e300, 3), 0.3)
    want = [[format(v, ".15g") for v in row] for row in
            zip(table.temperatures, table.z, table.mean_n, table.c, table.planck_approx)]
    want[1][4] = want[2][4] = ""
    assert table.planck_approx[1:] == [-math.inf, -math.inf] and want[0][4] != ""
    assert [line.split(",") for line in out.splitlines()[1:]] == want


@pytest.mark.parametrize("argv, exit_code, error", [row for row in EDGE_ARGVS if row[1]])
def test_edge_inputs_give_one_strict_json_error_line(capsys, argv, exit_code, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv.split())
    assert [str(w.message) for w in caught] == []  # a CLI run would print each on stderr
    assert (code, out) == (exit_code, "")
    (line,) = err.splitlines()
    payload = json.loads(line, parse_constant=reject_constant)
    error, _, message = error.partition(": ")
    assert payload["error"] == error and message in payload["message"]


def test_leapfrog_steps_cost_one_turn_per_mode(capsys):
    """1.5 x 10^5 leapfrog steps on 65,536 points: 0.13 s in one CLI child,
    where stepping them one by one took 23 s."""
    code, out, err = run(capsys, "wave simulate --lambda 0.3 --n 65536 --t-end 1 "
                                 "--dt 1e-5 --method leapfrog".split())
    assert (code, err) == (0, "")
    assert json.loads(out)["mu_drift"] < 1e-9


@pytest.mark.parametrize("method", [[], ["--method", "leapfrog", "--dt", "1e-302"]])
def test_wave_energy_at_a_speed_whose_square_overflows(capsys, method):
    """The speed is about 2.2e173 here, so speed^2 overflows: the energy
    takes its pi term as (|pi_k| / speed)^2, and the run writes one JSON
    document."""
    argv = "wave simulate --lambda 1 --n 16 --amplitude 40 --t-end 1e-300".split()
    code, out, err = run(capsys, argv + method)
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=reject_constant)["speed"] > 1e173


def test_successful_verbs_write_no_inf_nan_or_stderr(capsys, tmp_path):
    """Every small verb and every EDGE_ARGVS row that exits 0 writes only
    finite cells, and nothing on stderr."""
    for argv in small_verb_argvs(tmp_path) + SUCCESSFUL_EDGE_ARGVS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, err, [str(w.message) for w in caught]) == (0, "", []), argv
        cells = set(",".join(out.splitlines()[1:]).split(","))
        assert not cells & {"inf", "-inf", "nan"}, argv


# Values for the fuzz below: the edge floats, and moderate ones.  A float dt
# is at least 0.01 in size unless it is an edge value, and every int is at
# most 64 or one past a declared bound, which is rejected before any work,
# so no example takes more than a few hundred steps or a dim past 64.
EDGE_FLOATS = [0.0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]


def fuzz_value(par):
    if par.kind is float:
        moderate = st.floats(-4.0, 4.0)
        if par.name == "dt":
            moderate = moderate.filter(lambda x: abs(x) >= 0.01)
        return st.sampled_from(EDGE_FLOATS) | moderate
    if par.kind is int:
        lo, hi = par.bounds or (-2, 64)
        past = [v for v in (lo - 1, hi + 1) if v < math.inf]
        return st.integers(-2, 64) | st.sampled_from(past)
    return st.sampled_from(par.choices or [par.default])


@st.composite
def fuzz_argv(draw):
    key = draw(st.sampled_from(sorted(experiments.COMMANDS)))
    argv = key.split(" ")
    for par in experiments.COMMANDS[key].params:
        if par.required or draw(st.booleans()):
            argv.append(f"{cli._flag(par.name)}={draw(fuzz_value(par))}")
    fmt = draw(st.sampled_from([None, "csv", "json"]))
    return argv + ([f"--format={fmt}"] if fmt else [])


@settings(max_examples=300, deadline=1000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argv=fuzz_argv())
def test_fuzzed_argvs_exit_cleanly(argv):
    """Any verb with any values: exit 0 with a quiet stderr, or exit 2 or 3
    with nothing on stdout and one strict-JSON line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.run(argv)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        return
    assert code in (2, 3)
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    assert "error" in json.loads(line, parse_constant=reject_constant)


def test_no_arguments_exits_two(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------ output modes

def test_format_switch(capsys):
    code, out_json, _ = run(capsys, ["deform", "table", "--lambda", "0.5",
                                     "--n-max", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out_json)
    assert "max_roundtrip_err" in payload


def rendered_results(capsys, monkeypatch, argvs) -> list:
    """(stdout, result) of each argv run with --format csv, where result is
    the ExperimentResult that cli.run rendered."""
    results = []
    real = experiments.run_experiment

    def recording(key, given):
        results.append(real(key, given))
        return results[-1]

    monkeypatch.setattr(experiments, "run_experiment", recording)
    pairs = []
    for argv in argvs:
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert code == 0, (argv, err)
        pairs.append((out, results[-1]))
    return pairs


# Every EDGE_ARGVS row that exits 0, and runs whose cells sit at an edge: an
# empty ratio cell, 0.5 steps, the round trip's largest count and a
# factorial near the top of the double range.
CSV_EDGE_ARGVS = SUCCESSFUL_EDGE_ARGVS + [
    "thermo blueshift --lambda 0 --n 2".split(),
    "thermo levels --lambda 0 --n-max 3".split(),
    "coherent recover --count 262".split(),
    "deform table --lambda 1 --n-max 56".split(),
]


def test_csv_matches_the_reference_renderer(capsys, tmp_path, monkeypatch):
    argvs = small_verb_argvs(tmp_path) + CSV_EDGE_ARGVS
    for out, result in rendered_results(capsys, monkeypatch, argvs):
        assert out == csv_reference._render_csv(result.rows)


CELLS = {
    "float": st.floats(allow_subnormal=True)
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    "int": st.integers(-10**6, 10**6),
    "str": st.text("abcdefghijklmnopqrstuvwxyz_|^0123456789", max_size=8),
    "none": st.none(),
}


@st.composite
def tables(draw) -> dict:
    """Columns of one length, each of one cell type, a float one sometimes
    as a float64 array.  At least two columns, since csv.writer quotes the
    one empty cell of a one-column row and no verb writes one column."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=2, max_size=6))
    length = draw(st.integers(1, 20))
    columns = {}
    for i, kind in enumerate(kinds):
        column = draw(st.lists(CELLS[kind], min_size=length, max_size=length))
        if kind == "float" and draw(st.booleans()):
            column = np.array(column)
        columns[f"c{i}"] = column
    return columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=tables())
def test_csv_renderer_matches_the_reference_on_any_columns(columns):
    result = experiments.ExperimentResult(columns, {})
    assert cli._render_csv(columns) == csv_reference._render_csv(result.rows)


def test_every_verbs_columns_have_one_length_and_one_cell_type(capsys, tmp_path,
                                                               monkeypatch):
    """zip stops at the shortest column, and the CSV format of a column is
    read off its first cell."""
    for _, result in rendered_results(capsys, monkeypatch, small_verb_argvs(tmp_path)):
        columns = result.columns
        assert len({len(column) for column in columns.values()}) == 1, columns
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                assert column.dtype == np.float64, name
            else:
                assert len(set(map(type, column))) == 1, (name, column)


def test_deform_table_rows_are_the_dicts_built_per_row_before():
    result = experiments.run_experiment("deform table", {"lambda": 0.3, "n_max": 40})
    expected = csv_reference.deform_table_rows(deformation.q_deform(0.3), 0.3, 40)
    assert repr(result.rows) == repr(expected)  # keys, order, types and signed zeros


def test_csv_floats_are_15_digits(capsys):
    _, out, _ = run(capsys, ["thermo", "blueshift", "--lambda", "0.001",
                             "--n", "100", "--format", "csv"])
    row = out.splitlines()[1].split(",")
    value = float(row[-2])
    assert row[-2] == format(value, ".15g")


def test_operators_check_uses_every_row_of_a_custom_table(capsys, tmp_path):
    """At dim = the table length the top N = sqrt(F)^2 rounds one ulp past
    the top node, and F^-1 takes it as the top; clearly past it is an error."""
    table = tmp_path / "f.csv"
    table.write_text("n,f\n" + "".join(f"{n},{math.sqrt(1.0 + 0.05 * n)!r}\n"
                                       for n in range(40)))
    code, out, err = run(capsys, ["operators", "check", "--kind", "custom", "--f-table",
                                  str(table), "--dim", "40", "--format", "json"])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    for key in ("commutator", "linearoid", "heisenberg", "spectrum", "evolution"):
        assert summary[key] <= 1e-10, key
    spec = deformation.load_f_table(str(table))
    with pytest.raises(ParameterError, match="outside the custom table range"):
        deformation.big_f_inverse(spec.nodes[-1] * (1.0 + 1e-12), spec)


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["level", "map", "--re", "0.3", "--im", "0.4"]
    _, out, _ = run(capsys, argv)
    path = tmp_path / "map.json"
    code, silent, _ = run(capsys, argv + ["--out", str(path)])
    assert code == 0
    assert silent == ""
    assert path.read_text() == out


def test_out_to_missing_directory_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, ["level", "map", "--re", "1",
                                "--out", str(tmp_path / "no" / "where.json")])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"


def test_no_temp_files_left_behind(capsys, tmp_path):
    path = tmp_path / "out.csv"
    run(capsys, ["deform", "table", "--lambda", "0.2", "--out", str(path)])
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.csv"]
    assert leftovers == []


@pytest.mark.parametrize("seed", [0, 1, 7, 20260819])
def test_recovery_round_trip_holds_at_its_largest_count(seed):
    """At count 262 every C_n is a normal double, so f comes back to an ulp."""
    result = experiments.run_experiment("coherent recover", {"count": 262, "seed": seed})
    assert result.summary["max_err"] <= 4.5e-16


def test_seed_controls_recovery_experiment(capsys):
    argv = ["coherent", "recover", "--count", "8"]
    _, out_a, _ = run(capsys, argv + ["--seed", "7"])
    _, out_b, _ = run(capsys, argv + ["--seed", "7"])
    _, out_c, _ = run(capsys, argv + ["--seed", "8"])
    assert out_a == out_b
    assert out_a != out_c


# ----------------------------------------------------------------- suites

def write_suite(tmp_path, text):
    path = tmp_path / "demo.suite"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_passing_suite_exits_zero(capsys, tmp_path):
    path = write_suite(tmp_path, """
[blueshift-small]
run = thermo blueshift
lambda = 0.001
n = 100
check.ratio.max = 1.002
check.ratio.min = 0.999
""")
    code, out, _ = run(capsys, ["suite", path])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "demo.suite"
    assert report["passed"] == 1 and report["failed"] == 0
    assert report["experiments"][0]["passed"] is True


def test_failing_bound_exits_one_and_names_metric(capsys, tmp_path):
    path = write_suite(tmp_path, """
[impossible]
run = thermo blueshift
lambda = 0.001
n = 100
check.exact.max = 1e-12
""")
    code, out, _ = run(capsys, ["suite", path])
    assert code == 1
    report = json.loads(out)
    entry = report["experiments"][0]
    assert entry["passed"] is False
    failed_checks = [c for c in entry["checks"] if not c["passed"]]
    assert failed_checks[0]["metric"] == "exact"
    assert failed_checks[0]["kind"] == "max"


def test_unknown_suite_key_exits_two(capsys, tmp_path):
    path = write_suite(tmp_path, """
[typo]
run = thermo blueshift
lambada = 0.001
n = 100
""")
    code, _, err = run(capsys, ["suite", path])
    assert code == 2
    assert "lambada" in json.loads(err)["message"]


def test_unknown_suite_verb_exits_two(capsys, tmp_path):
    path = write_suite(tmp_path, "[x]\nrun = thermo dance\nlambda = 1\n")
    code, _, _ = run(capsys, ["suite", path])
    assert code == 2


def test_missing_suite_file_exits_two(capsys, tmp_path):
    code, _, _ = run(capsys, ["suite", str(tmp_path / "absent.suite")])
    assert code == 2


def test_suite_value_outside_its_domain_fails_at_load(tmp_path, monkeypatch):
    """load_suite checks every value against its Param before any section
    runs, so a bad one in a late section stops the whole suite up front: a
    grid size below 2 or past the budget's, or a temperature outside thermo's
    [1e-300, 1e300]."""
    ran = []
    monkeypatch.setattr(experiments, "run_experiment", lambda *args: ran.append(args))
    for bad, match in (("t_min = 0.5\npoints = 1", "points must be >= 2"),
                       ("t_min = 0.5\npoints = 62501", "points must be >= 2 and <= 62500"),
                       ("t_min = 0", r"t_min must be >= 1e-300 and <= 1e\+300")):
        path = write_suite(tmp_path, f"""
[first]
run = level map
re = 1

[table]
run = thermo table
lambda = 0.3
t_max = 8
{bad}
""")
        for load in (experiments.load_suite, experiments.run_suite):
            with pytest.raises(ParameterError, match=match):
                load(path)
    assert ran == []


def test_bundled_suite_metrics_are_each_verbs_json_summary(capsys):
    """A report's metrics record is the whole JSON summary of its verb: each
    bundled section run as `qlab <module> <verb> --format json` prints the
    same keys, in the same order, with the same values."""
    code, out, _ = run(capsys, ["suite", str(BUNDLED_SUITE)])
    records = json.loads(out)["experiments"]
    entries = experiments.load_suite(str(BUNDLED_SUITE))
    assert code == 0 and [r["name"] for r in records] == [e.name for e in entries]
    for record, entry in zip(records, entries):
        flags = [arg for key, value in entry.params.items() for arg in (cli._flag(key), value)]
        code, out, err = run(capsys, entry.command_key.split() + flags + ["--format", "json"])
        assert (code, err) == (0, ""), entry.name
        assert list(record["metrics"].items()) == list(json.loads(out).items()), entry.name


def test_a_check_on_a_summary_value_that_is_no_number_fails_and_raises_nothing(capsys,
                                                                                  tmp_path):
    """A string, a list or a None fails its check the way a missing key
    does; a bool is a number, so converged = true passes min = 1."""
    path = write_suite(tmp_path, """
[table]
run = thermo table
lambda = 0.1
t_min = 1e2
t_max = 1e6
points = 3
check.tail.max = 1
check.c_last.min = 0

[planck]
run = thermo planck-check
x = 1
check.extrapolated.min = -10
check.converged.min = 1

[wave]
run = wave simulate
lambda = 0.3
t_end = 1
n = 16
check.shape_error.max = 1
check.missing.max = 1

[blueshift]
run = thermo blueshift
lambda = 0
n = 2
check.ratio.max = 2
""")
    code, out, err = run(capsys, ["suite", path])
    assert (code, err) == (1, "")
    records = json.loads(out)["experiments"]
    assert not any("error" in r for r in records)
    got = {(r["name"], c["metric"]): (c["value"], c["passed"])
           for r in records for c in r["checks"]}
    assert {key: passed for key, (_, passed) in got.items()} == {
        ("table", "tail"): False, ("table", "c_last"): True,
        ("planck", "extrapolated"): False, ("planck", "converged"): True,
        ("wave", "shape_error"): False, ("wave", "missing"): False,
        ("blueshift", "ratio"): False}
    assert got["planck", "converged"][0] is True
    assert [got["wave", "shape_error"][0], got["blueshift", "ratio"][0]] == [None, None]


def test_empty_suite_exits_zero(capsys, tmp_path):
    path = write_suite(tmp_path, "")
    code, out, _ = run(capsys, ["suite", path])
    assert code == 0
    report = json.loads(out)
    assert report["experiments"] == []
    assert report["passed"] == 0 and report["failed"] == 0


def test_suite_reports_are_deterministic(capsys, tmp_path):
    path = write_suite(tmp_path, """
[operators]
run = operators check
lambda = 0.5
dim = 16
check.commutator.max = 1e-10

[recovery]
run = coherent recover
count = 6
seed = 3
check.max_err.max = 1e-12
""")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.run(["suite", path, "--out", str(out_a)]) == 0
    assert cli.run(["suite", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this tree, so
    that no test's imports count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_third_party_package():
    """A cold `import qlab` resolves its names lazily: it loads no
    submodule, so no third-party package, numpy included."""
    out = fresh_python("import sys; before = set(sys.modules); import qlab; "
                       "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
                       "print(sorted(new - set(sys.stdlib_module_names)))")
    assert out.strip() == "['qlab']"


# The verbs whose runners compute scalar closed forms or scalar roots only,
# with the exit code each gives; the lambda = 800 cases are past the point
# where sinh(lambda) overflows.
NUMPY_FREE_VERBS = [
    (["deform", "table", "--lambda", "0.3", "--n-max", "24"], 0),
    (["deform", "table", "--lambda", "800", "--n-max", "2"], 3),
    (["classical", "momentum", "--lambda", "0.5", "--q", "0.3", "--qdot", "0.7"], 0),
    (["classical", "momentum", "--lambda", "800", "--q", "0.1", "--qdot", "0.1"], 0),
    (["classical", "momentum-scaling"], 0),
    (["classical", "bracket", "--lambda", "0.5", "--alpha-re", "0.6"], 0),
    (["classical", "bracket", "--lambda", "800", "--alpha-re", "0.1"], 0),
    (["level", "map", "--re", "0.3", "--im", "0.2"], 0),
    (["thermo", "blueshift", "--lambda", "0.1", "--n", "5"], 0),
    (["thermo", "blueshift", "--lambda", "abc", "--n", "5"], 2),
]


def test_scalar_verbs_never_load_numpy():
    """Each verb above runs through cli.run, in one fresh interpreter, and
    numpy is still not loaded at the end, nor dataclasses or inspect (each
    record is a NamedTuple)."""
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from qlab import cli\n"
        f"verbs = {[argv for argv, _ in NUMPY_FREE_VERBS]!r}\n"
        "codes = []\n"
        "for argv in verbs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.run(argv))\n"
        "print(json.dumps([codes, [m in sys.modules for m in "
        "('numpy', 'dataclasses', 'inspect')]]))\n")
    codes, loaded = json.loads(out)
    assert codes == [code for _, code in NUMPY_FREE_VERBS]
    assert loaded == [False, False, False]


# The array verbs of the benchmark's cold-verbs workload, with their exit codes.
ARRAY_VERBS = [
    (["operators", "check", "--lambda", "0.3", "--dim", "24"], 0),
    (["classical", "simulate", "--lambda", "0.3", "--q0", "1", "--p0", "0", "--t-end", "2",
      "--dt", "1e-3", "--stride", "200"], 0),
    (["wave", "simulate", "--lambda", "0.3", "--t-end", "5", "--n", "64", "--mode", "3",
      "--amplitude", "0.5", "--soliton", "1", "--format", "json"], 0),
    (["level", "simulate", "--lambda", "0.3", "--re", "0.8", "--t-end", "1", "--dt", "1e-3",
      "--stride", "250"], 0),
    (["coherent", "build", "--lambda", "0.3", "--alpha-re", "1.2"], 0),
    (["coherent", "build", "--alpha-re", "3", "--cutoff", "4"], 2),
    (["thermo", "table", "--lambda", "0.3", "--t-min", "0.5", "--t-max", "8",
      "--points", "4"], 0),
]


def test_array_verbs_never_load_numpy_ma():
    """Each verb above runs through cli.run, in one fresh interpreter, and
    neither numpy.ma (about 12 ms of a cold start) nor dataclasses is
    loaded after any of them."""
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from qlab import cli\n"
        f"verbs = {[argv for argv, _ in ARRAY_VERBS]!r}\n"
        "runs = []\n"
        "for argv in verbs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([cli.run(argv), 'numpy.ma' in sys.modules, "
        "'dataclasses' in sys.modules])\n"
        "print(json.dumps(runs))\n")
    assert json.loads(out) == [[code, False, False] for _, code in ARRAY_VERBS]


def threads_at_exit(argvs, env):
    """For each argv, the exit code, the OS thread count read from
    /proc/self/status once the verb has run, and OPENBLAS_NUM_THREADS, from
    a fresh child that runs qlab.cli as __main__, as `python -m qlab.cli`
    does, so through cli.main()."""
    code = ("import contextlib, io, json, os, runpy, sys\n"
            "sys.argv = ['qlab', *json.loads(sys.argv[1])]\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('qlab.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "with open('/proc/self/status') as f:\n"
            "    threads = next(int(l.split()[1]) for l in f if l.startswith('Threads:'))\n"
            "print(json.dumps([status, threads, os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    env = dict(env, PYTHONPATH=str(SRC))
    children = [subprocess.Popen([sys.executable, "-c", code, json.dumps(argv)], env=env,
                                 stdout=subprocess.PIPE, text=True) for argv in argvs]
    return [json.loads(child.communicate()[0]) for child in children]


needs_proc_status = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                       reason="no /proc/self/status")


@needs_proc_status
def test_array_verbs_start_no_blas_threads():
    """The CLI process runs each array verb on its one thread: main() sets
    OPENBLAS_NUM_THREADS=1 before numpy loads, so no idle pool is started."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    runs = threads_at_exit([argv for argv, _ in ARRAY_VERBS], env)
    assert runs == [[code, 1, "1"] for _, code in ARRAY_VERBS]


@needs_proc_status
def test_user_set_blas_threads_reach_numpy():
    """A user's OPENBLAS_NUM_THREADS is left as it is, and OpenBLAS starts
    that many threads (at most one per usable CPU)."""
    argv, code = ARRAY_VERBS[0]
    want = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    assert threads_at_exit([argv], env) == [[code, want, "2"]]


def test_in_process_run_leaves_the_environment_alone(capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    argv, code = ARRAY_VERBS[0]
    assert cli.run(argv) == code
    capsys.readouterr()
    assert dict(os.environ) == before


def sample_argv(key: str) -> list[str]:
    """argv for a command, with every parameter given and the global flags."""
    if key == "suite":
        return ["suite", "some.suite", "--out", "r.json"]
    argv = key.split(" ")
    values = {int: "3", float: "0.25", str: "text"}
    for par in experiments.COMMANDS[key].params:
        argv += [cli._flag(par.name), values[par.kind]]
    return argv + ["--format", "json"]


def subcommands(parser) -> dict:
    """The parsers of a parser's subcommands, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("key", [*experiments.COMMANDS, "suite"])
def test_one_leaf_parser_matches_the_full_tree(capsys, key):
    """The parser cli.run builds for one command holds that one leaf, and
    gives the full tree's --help text and Namespace."""
    argv = sample_argv(key)
    assert cli._command_named(argv) == key
    narrow, full = cli.build_parser(key), cli.build_parser()
    assert list(subcommands(narrow)) == [argv[0]]
    if key != "suite":
        assert list(subcommands(subcommands(narrow)[argv[0]])) == [argv[1]]
    assert narrow.parse_args(argv) == full.parse_args(argv)
    helps = []
    for parser in (narrow, full):
        with pytest.raises(SystemExit) as exc_info:
            parser.parse_args(argv[:1 if key == "suite" else 2] + ["--help"])
        assert exc_info.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(f"usage: qlab {key} ")


@pytest.mark.parametrize("argv", [
    ["bogus", "table"],
    ["deform", "bogus"],
    ["deform table", "--lambda", "1"],
    ["deform", "table", "--bogus", "1"],
    ["deform", "table", "--n-max"],
    ["suite"],
    ["suite", "a.suite", "b.suite"],
    ["--bogus"],
])
def test_parse_errors_match_the_full_tree(capsys, argv):
    """A typo still exits 2 with exactly one JSON line, and the message is
    the one the full tree gives."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    with pytest.raises(ParameterError) as exc_info:
        cli.build_parser().parse_args(argv)
    assert json.loads(err)["message"] == str(exc_info.value)


def test_momentum_at_huge_velocity_exits_zero(capsys):
    code, out, err = run(capsys, ["classical", "momentum", "--lambda", "1",
                                  "--q", "1", "--qdot", "1e6", "--format", "json"])
    assert code == 0, err
    assert math.isclose(json.loads(out)["p"], 5.011652693560864, rel_tol=1e-12)


@pytest.mark.parametrize("spec_args,spec", [
    ({"lambda": 0.1}, deformation.q_deform(0.1)),
    ({"lambda": -0.7}, deformation.q_deform(-0.7)),
    ({"kind": "identity", "lambda": 0.0}, deformation.identity()),
])
def test_deform_table_factorial_column_is_f_factorial(spec_args, spec):
    """The table's running product is f(1) f(2) ... f(n), multiplied in that order."""
    columns = experiments.run_experiment("deform table", dict(spec_args, n_max=40)).columns
    for n, factorial in zip(columns["n"], columns["f_factorial"]):
        assert factorial == math.prod(deformation.f_of_n(k, spec) for k in range(1, n + 1))


def test_deform_table_factorial_overflow_names_largest_safe_n():
    with pytest.raises(SaturationError) as exc_info:
        experiments.run_experiment("deform table", {"lambda": 1.0, "n_max": 100})
    assert exc_info.value.largest_safe_n == 56
    assert str(exc_info.value) == "deformed factorial overflows at n = 57"


def test_run_experiment_rejects_unknown_params():
    with pytest.raises(Exception) as exc_info:
        experiments.run_experiment("thermo blueshift",
                                   {"lambda": 0.1, "n": 1.0, "bogus": 2.0})
    assert "bogus" in str(exc_info.value)


def test_thermo_table_sums_a_long_spectrum(capsys):
    """lambda = 1e-5 up to T = 1e6 reaches level 7e5, each row by a head of
    Gregory's rule from level 1 to the cutoff: the JSON summary says so, its
    terms count level 0 and each head's nodes and 7 levels (375, 375 and
    399), and the rows match the mpmath oracle."""
    argv = ["thermo", "table", "--lambda", "1e-5", "--t-min", "1e4", "--t-max", "1e6",
            "--points", "3"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for t, z, mean_n, c, _ in ([float(v) for v in row] for row in rows):
        log_z, want_n, want_c = oracle(t, 1e-5, "sym")
        assert abs(math.log(z) / log_z - 1.0) <= 1e-12
        assert abs(mean_n / want_n - 1.0) <= 1e-12
        assert abs(c / want_c - 1.0) <= 1e-12
    code, out, _ = run(capsys, argv + ["--format", "json"])
    summary = json.loads(out)
    assert code == 0 and summary["tail"] == "direct+em"
    assert summary["cutoff_used"] == 700781 and summary["terms"] == 1149
    closed = experiments.run_experiment(
        "thermo table", {"lambda": 0.0, "t_min": 1.0, "t_max": 2.0, "points": 2})
    assert (closed.summary["terms"], closed.summary["tail"]) == (0, "closed")


def test_thermo_table_reports_law_dev_only_where_the_law_applies():
    base = {"t_min": 1e2, "t_max": 1e6, "points": 3}
    deformed = experiments.run_experiment("thermo table", {"lambda": 0.3, **base})
    assert 0.0 <= deformed.summary["law_dev"] <= 1e-4
    assert "fall" in deformed.summary
    undeformed = experiments.run_experiment("thermo table", {"lambda": 0.0, **base})
    assert "law_dev" not in undeformed.summary
    below_range = experiments.run_experiment(
        "thermo table", {"lambda": 0.1, "t_min": 2.0, "t_max": 3.0, "points": 2})
    assert "law_dev" not in below_range.summary
    # lambda/2 underflows to 0: L = ln(4T sinh(lambda/2)) - gamma is far below 1
    smallest = experiments.run_experiment(
        "thermo table", {"lambda": 5e-324, "t_min": 10.0, "t_max": 100.0, "points": 3})
    assert "law_dev" not in smallest.summary and "product_variation" in smallest.summary


# ------------------------------------------------------------- input files

def wave_ic_lines(n=16):
    """(x, phi, pi) rows of phi = cos(theta), pi = 0 on a 2 pi grid."""
    lines = []
    for j in range(n):
        x = 2.0 * math.pi * j / n
        lines.append(f"{x!r},{math.cos(x)!r},0.0")
    return lines


def run_wave_ic(capsys, tmp_path, text):
    path = tmp_path / "ic.csv"
    path.write_text(text, encoding="utf-8")
    return run(capsys, ["wave", "simulate", "--lambda", "0.5", "--t-end", "1",
                        "--ic", str(path)])


def test_wave_ic_file_with_header_and_blank_lines(capsys, tmp_path):
    rows = wave_ic_lines()
    text = "x,phi,pi\n" + "\n".join(rows[:5]) + "\n\n" + "\n".join(rows[5:]) + "\n\n"
    code, out, err = run_wave_ic(capsys, tmp_path, text)
    assert code == 0, err
    assert abs(json.loads(out)["mu"] - 0.25) < 1e-12
    code, out_plain, _ = run_wave_ic(capsys, tmp_path, "\n".join(rows) + "\n")
    assert code == 0
    assert out_plain == out


@pytest.mark.parametrize("bad_row", ["1.0,2.0", "1.0,2.0,3.0,4.0", "1.0,zebra,0.0",
                                     "nan,2.0,0.0", "1.0,inf,0.0", "1.0,2.0,-inf"])
def test_wave_ic_file_bad_row_names_its_line(capsys, tmp_path, bad_row):
    rows = wave_ic_lines()
    rows[1] = bad_row  # line 3 of the file, after the header
    code, _, err = run_wave_ic(capsys, tmp_path, "x,phi,pi\n" + "\n".join(rows) + "\n")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "line 3" in payload["message"]


def test_wave_simulate_reads_each_fields_x_once(monkeypatch):
    """WaveField.x builds its grid on each read, so the rows read it once per
    field, not once per row."""
    from qlab import wave

    reads = {}
    grid = wave.WaveField.x.fget

    def counted(field):
        reads[id(field)] = reads.get(id(field), 0) + 1
        return grid(field)

    monkeypatch.setattr(wave.WaveField, "x", property(counted))
    result = experiments.run_experiment("wave simulate", {
        "lambda": 0.3, "t_end": 0.5, "n": 64, "soliton": 1})
    assert len(result.columns["x"]) == 3 * 64
    assert reads and max(reads.values()) == 1


def test_wave_ic_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, ["wave", "simulate", "--lambda", "0.5", "--t-end", "1",
                                "--ic", str(tmp_path / "absent.csv")])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("argv, rows", [
    (["wave", "simulate", "--lambda", "0.5", "--t-end", "1", "--ic"], wave_ic_lines()),
    (["coherent", "recover", "--format", "json", "--coeffs"], ["1.0", "0.5", "0.2", "0.05"]),
    (["operators", "check", "--kind", "custom", "--dim", "40", "--f-table"],
     [f"{n},{math.sqrt(1.0 + 0.05 * n)!r}" for n in range(40)])])
def test_input_files_stop_at_the_row_bound_of_n(capsys, tmp_path, monkeypatch, argv, rows):
    """--ic, --coeffs and --f-table files are refused at data row WORK_BUDGET
    + 1, as --n is past WORK_BUDGET: here with the bound lowered to the rows."""
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.setattr(deformation, "WORK_BUDGET", len(rows))
    assert run(capsys, argv + [str(path)])[0] == 0
    monkeypatch.setattr(deformation, "WORK_BUDGET", len(rows) - 1)
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].endswith(
        f"line {len(rows)}: more than WORK_BUDGET = {len(rows) - 1} data rows")


COEFFS = [1.0, 0.5, 0.2, 0.05]  # f(n) = C_{n-1} / (C_n sqrt n)


def run_coeffs(capsys, tmp_path, text):
    path = tmp_path / "coeffs.csv"
    path.write_text(text, encoding="utf-8")
    return run(capsys, ["coherent", "recover", "--coeffs", str(path),
                        "--format", "json"])


def test_coeffs_file_with_header_and_blank_lines(capsys, tmp_path):
    rows = [f"{n},{c!r}" for n, c in enumerate(COEFFS)]
    text = "n,c\n" + rows[0] + "\n\n" + "\n".join(rows[1:]) + "\n\n"
    code, out, err = run_coeffs(capsys, tmp_path, text)
    assert code == 0, err
    assert json.loads(out)["count"] == 3
    _, csv_out, _ = run(capsys, ["coherent", "recover", "--coeffs",
                                 str(tmp_path / "coeffs.csv")])
    f_values = [float(line.split(",")[1]) for line in csv_out.splitlines()[1:]]
    expected = [COEFFS[n - 1] / (COEFFS[n] * math.sqrt(n)) for n in (1, 2, 3)]
    assert f_values == pytest.approx(expected, rel=1e-14)


def test_coeffs_file_reads_the_last_column_of_any_width(capsys, tmp_path):
    text = "1.0\n7,0.5\n2,2,0.2\n0.05\n"
    code, out, err = run_coeffs(capsys, tmp_path, text)
    assert code == 0, err
    assert json.loads(out)["count"] == 3


def test_coeffs_file_non_numeric_row_names_its_line(capsys, tmp_path):
    code, _, err = run_coeffs(capsys, tmp_path, "n,c\n0,1.0\n1,0.5\n2,zebra\n")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "line 4" in payload["message"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_coeffs_file_non_finite_row_names_its_line(capsys, tmp_path, cell):
    code, out, err = run_coeffs(capsys, tmp_path, f"n,c\n0,1.0\n1,{cell}\n2,0.2\n")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert payload["message"] == "coefficient line 3: non-finite value"


def test_coeffs_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, ["coherent", "recover", "--coeffs",
                                str(tmp_path / "absent.csv")])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"
