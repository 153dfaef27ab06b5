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
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from thermo_oracle import oracle

import qlab
from qlab import cli, deformation, experiments
from qlab.errors import ParameterError, SaturationError, SolverError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- coverage

# The public functions that no verb runs: library entry points (the dense
# ladder matrices, a closed-form q(t), a state embedding, a factorial and two
# scalar thermo readers) whose values the verbs carry in other forms.  Every
# other public function is reached by some verb, which the test below
# measures rather than declares.
LIBRARY_ONLY = {
    "classical.exact_q", "coherent.as_fock_state", "deformation.f_factorial",
    "fock.annihilation", "fock.dagger", "fock.deformed_annihilation", "fock.hamiltonian",
    "thermo.partition_function", "thermo.specific_heat",
}


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
    assert payload["largest_safe_n"] == 708
    code, _, _ = run(capsys, ["thermo", "levels", "--lambda", "1.0",
                              "--n-max", "708"])
    assert code == 0


@pytest.mark.parametrize("argv, safe", [
    (["classical", "simulate", "--lambda", "1", "--q0", "40", "--p0", "0", "--t-end", "1"], 354),
    (["level", "simulate", "--lambda", "1", "--re", "30", "--t-end", "1"], 354),
    (["wave", "simulate", "--lambda", "1", "--t-end", "1", "--amplitude", "60", "--n", "16"], 709),
])
def test_overflowing_flow_saturates(capsys, argv, safe):
    """|lambda| I past 709 (past 709/2 for RK4, whose stages overshoot I)
    is one SaturationError line, not an OverflowError traceback."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["largest_safe_n"] == safe


def test_overflowing_ladder_saturates(capsys):
    """F(237) = sinh(711)/sinh(3) is past the double range; the error line
    is all that reaches stderr, with no numpy warning before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["operators", "check", "--lambda", "3", "--dim", "300"])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["largest_safe_n"] == 236


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
    """F(1) at lambda = 800 is past the range q_number covers (n |lambda| <= 709)."""
    code, out, err = run(capsys, ["deform", "table", "--lambda", "800", "--n-max", "2"])
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "SaturationError"
    assert payload["largest_safe_n"] == 709.0 / 800.0


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
    assert (payload["error"], payload["largest_safe_n"]) == ("SaturationError", 709)


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
    ("classical momentum --lambda 1e308 --q 0.5 --qdot 0.5", 3, "SolverError"),
    ("classical momentum-scaling --lam-fine 5e-324", 3, "SolverError"),
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
    ("thermo table --lambda 3.7 --t-min 1.5e-181 --t-max 4e-150", 3, "SolverError"),
    ("classical simulate --lambda -0.33 --q0 0 --p0 1.65 --t-end 2.23 --dt 3.02",
     3, "SolverError"),
    ("wave simulate --lambda 0.3 --t-end 1e308 --n 16", 2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 0.5 --n -1", 2, "ParameterError"),
    ("wave simulate --lambda 0.3 --t-end 0.5 --n 16 --amplitude 1e308", 2, "ParameterError"),
    ("coherent recover --seed -1", 2, "ParameterError"),
    # each size limit, declared once on its Param and checked before any work
    ("deform table --lambda 0 --n-max 1000000000", 2,
     "ParameterError: n_max must be >= 1 and <= 1000000"),
    ("operators check --dim 1000000000000", 2,
     "ParameterError: dim must be >= 2 and <= 1000000"),
    ("classical bracket-grid --points 100000000", 2,
     "ParameterError: points must be >= 1 and <= 1000"),
    ("classical momentum-scaling --points 1000001", 2,
     "ParameterError: points must be >= 2 and <= 1000000"),
    ("wave simulate --lambda 0.3 --t-end 1 --n 1099511627776", 2,
     "ParameterError: n must be >= 4 and <= 1000000"),
    ("coherent build --alpha-re 1 --cutoff 1000000000000", 2,
     "ParameterError: cutoff must be >= 0 and <= 1000000"),
    ("coherent recover --count 10000000000", 2,
     "ParameterError: count must be >= 2 and <= 1000000"),
    ("thermo table --lambda 0.3 --t-min 0.5 --t-max 8 --points 1000000000000", 2,
     "ParameterError: points must be >= 2 and <= 1000000"),
    ("thermo levels --lambda 0 --n-max 1000000000000", 2,
     "ParameterError: n_max must be >= 1 and <= 1000000"),
    # no cutoff up to the cap meets the tail rule, explicit or automatic
    ("coherent build --alpha-re 1000 --cutoff 4", 3, "SolverError"),
    ("coherent build --alpha-re 1000 --cutoff 32768", 3, "SolverError"),
    # F overflows below the cutoff
    ("coherent build --lambda 1 --alpha-re 1 --cutoff 720", 3, "SaturationError"),
    ("coherent build --lambda 30 --alpha-re 1", 3, "SaturationError"),
    ("thermo planck-check --x 800", 2, "ParameterError"),
    ("thermo blueshift --lambda 800 --n 2", 3, "SaturationError"),
    ("thermo blueshift --lambda 0.1 --n 1e308", 3, "SaturationError"),
]


@pytest.mark.parametrize("argv, exit_code, error", EDGE_ARGVS)
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
    runs, so a bad one in a late section stops the whole suite up front."""
    path = write_suite(tmp_path, """
[first]
run = level map
re = 1

[table]
run = thermo table
lambda = 0.3
t_min = 0.5
t_max = 8
points = 1
""")
    ran = []
    monkeypatch.setattr(experiments, "run_experiment", lambda *args: ran.append(args))
    for load in (experiments.load_suite, experiments.run_suite):
        with pytest.raises(ParameterError, match="points must be >= 2"):
            load(path)
    assert ran == []


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
    numpy is still not loaded at the end."""
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from qlab import cli\n"
        f"verbs = {[argv for argv, _ in NUMPY_FREE_VERBS]!r}\n"
        "codes = []\n"
        "for argv in verbs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.run(argv))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    codes, numpy_loaded = json.loads(out)
    assert codes == [code for _, code in NUMPY_FREE_VERBS]
    assert numpy_loaded is False


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
    numpy.ma (about 12 ms of a cold start) is not loaded after any of them."""
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "from qlab import cli\n"
        f"verbs = {[argv for argv, _ in ARRAY_VERBS]!r}\n"
        "runs = []\n"
        "for argv in verbs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([cli.run(argv), 'numpy.ma' in sys.modules])\n"
        "print(json.dumps(runs))\n")
    assert json.loads(out) == [[code, False] for _, code in ARRAY_VERBS]


def sample_argv(key: str) -> list[str]:
    """argv for a command, with every parameter given and the global flags."""
    if key == "suite":
        return ["suite", "some.suite", "--out", "r.json", "--format", "json"]
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
    """The table's running product multiplies in f_factorial's order."""
    result = experiments.run_experiment("deform table", dict(spec_args, n_max=40))
    for row in result.rows:
        assert row["f_factorial"] == deformation.f_factorial(row["n"], spec)


def test_deform_table_factorial_overflow_names_largest_safe_n():
    with pytest.raises(SaturationError) as exc_info:
        experiments.run_experiment("deform table", {"lambda": 1.0, "n_max": 100})
    assert exc_info.value.largest_safe_n == 56
    with pytest.raises(SaturationError) as ref_info:
        deformation.f_factorial(57, deformation.q_deform(1.0))
    assert str(exc_info.value) == str(ref_info.value)


def test_run_experiment_rejects_unknown_params():
    with pytest.raises(Exception) as exc_info:
        experiments.run_experiment("thermo blueshift",
                                   {"lambda": 0.1, "n": 1.0, "bogus": 2.0})
    assert "bogus" in str(exc_info.value)


def test_thermo_table_sums_a_long_spectrum(capsys):
    """lambda = 1e-5 up to T = 1e6 reaches level 7e5, each row by the
    Euler-Maclaurin tail from level 1: the JSON summary says so, and the
    rows match the mpmath oracle."""
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
    assert summary["cutoff_used"] == 700781 and summary["terms"] == 3
    closed = experiments.run_experiment(
        "thermo table", {"lambda": 0.0, "t_min": 1.0, "t_max": 2.0, "points": 2})
    assert (closed.summary["terms"], closed.summary["tail"]) == (0, "closed")


def test_thermo_table_reports_law_dev_only_where_the_law_applies():
    base = {"t_min": 1e2, "t_max": 1e6, "points": 3}
    deformed = experiments.run_experiment("thermo table", {"lambda": 0.3, **base})
    assert 0.0 <= deformed.metrics["law_dev"] <= 1e-4
    assert "fall" in deformed.metrics
    undeformed = experiments.run_experiment("thermo table", {"lambda": 0.0, **base})
    assert "law_dev" not in undeformed.metrics
    below_range = experiments.run_experiment(
        "thermo table", {"lambda": 0.1, "t_min": 2.0, "t_max": 3.0, "points": 2})
    assert "law_dev" not in below_range.metrics
    # lambda/2 underflows to 0: L = ln(4T sinh(lambda/2)) - gamma is far below 1
    smallest = experiments.run_experiment(
        "thermo table", {"lambda": 5e-324, "t_min": 10.0, "t_max": 100.0, "points": 3})
    assert "law_dev" not in smallest.metrics and "product_variation" in smallest.metrics


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


@pytest.mark.parametrize("bad_row", ["1.0,2.0", "1.0,2.0,3.0,4.0", "1.0,zebra,0.0"])
def test_wave_ic_file_bad_row_names_its_line(capsys, tmp_path, bad_row):
    rows = wave_ic_lines()
    rows[1] = bad_row  # line 3 of the file, after the header
    code, _, err = run_wave_ic(capsys, tmp_path, "x,phi,pi\n" + "\n".join(rows) + "\n")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "line 3" in payload["message"]


def test_wave_ic_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, ["wave", "simulate", "--lambda", "0.5", "--t-end", "1",
                                "--ic", str(tmp_path / "absent.csv")])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"


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


def test_coeffs_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, ["coherent", "recover", "--coeffs",
                                str(tmp_path / "absent.csv")])
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"
