"""Command-line harness: grammar, exit codes, error channel, output
formats, atomic writes, seeding, suite execution, and the guarantee that
every library operation is reachable from some subcommand.
"""

import importlib
import json
import math

import pytest

from qlab import cli, experiments
from qlab.errors import SolverError


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- registry

def test_registry_values_are_commands():
    for op, command_key in experiments.REGISTRY.items():
        assert command_key in experiments.COMMANDS, f"{op} -> {command_key}"


def test_registry_ops_exist():
    for op in experiments.REGISTRY:
        module_name, attr = op.split(".")
        module = importlib.import_module(f"qlab.{module_name}")
        assert callable(getattr(module, attr)), op


def test_registry_covers_public_modules():
    """Every computational module contributes operations to the registry."""
    prefixes = {op.split(".")[0] for op in experiments.REGISTRY}
    assert prefixes == {"deformation", "fock", "classical", "wave",
                        "level", "coherent", "thermo"}


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


def test_solver_error_carries_residual(capsys, monkeypatch):
    def fail(key, given):
        raise SolverError("no convergence", residual=2.5e-3)

    monkeypatch.setattr(experiments, "run_experiment", fail)
    code, _, err = run(capsys, ["classical", "momentum", "--lambda", "1",
                                "--q", "1", "--qdot", "1"])
    assert code == 3
    assert json.loads(err) == {"error": "SolverError", "message": "no convergence",
                               "residual": 2.5e-3}


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


def test_run_experiment_rejects_unknown_params():
    with pytest.raises(Exception) as exc_info:
        experiments.run_experiment("thermo blueshift",
                                   {"lambda": 0.1, "n": 1.0, "bogus": 2.0})
    assert "bogus" in str(exc_info.value)


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
