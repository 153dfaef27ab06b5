"""The four workloads: their inputs, one pass of operations, and the checks.

Every workload is built from ``--seed`` alone and exposes ``ops``, a fixed
list of operations that one pass runs in order.  An operation returns a value
or raises; its ``check`` compares the value with a computation made here,
apart from the program.  ``probe`` marks the operations that exercise a known
fault: a wrong value from a probe counts as a failed operation, a wrong value
from any other operation makes the run incorrect.  An exception from any
operation counts as failed.

Nothing in this module runs at import time beyond imports.
"""

from __future__ import annotations

import cmath
import configparser
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SUITE = os.path.join(SRC, "qlab", "data", "acceptance.suite")
EULER_GAMMA = 0.57721566490153286061


@dataclass
class Op:
    name: str
    run: Callable            # run(scratch) -> value; scratch is per pass
    check: Callable          # check(value) -> list of problems
    probe: bool = False
    weight: int = 1          # operations this call stands for
    failures: Callable | None = None   # failures(value) -> failed among weight


@dataclass
class CliOp:
    """One ``python -m qlab.cli`` invocation and the check of what it wrote."""
    name: str
    argv: list
    check: Callable          # check(code, stdout, stderr, out_text) -> problems
    out_file: str | None = None   # basename of the --out file, if any
    expected_code: int = 0


def rel_err(value, reference) -> float:
    if reference == 0:
        return abs(value)
    return abs(value / reference - 1.0)


def _close(label, value, reference, tol):
    err = rel_err(value, reference)
    if not err <= tol:
        return [f"{label}: {value!r} vs reference {reference!r} "
                f"(relative error {err:.3g} > {tol:g})"]
    return []


def _at_most(label, value, bound):
    if not (isinstance(value, (int, float)) and value <= bound):
        return [f"{label}: {value!r} exceeds {bound:g}"]
    return []


# ------------------------------------------------------ independent references

def thermo_reference(t: float, lam: float, convention: str) -> dict:
    """Z, <n>, C = beta^2 Var E of the exact spectrum, summed with numpy.

    "sym" levels are E_n = sinh(lam (n + 1/2)) / (2 sinh(lam/2)) and "num"
    levels E_n = sinh(lam n)/sinh(lam); lam = 0 uses the closed forms.  The
    sum runs until beta (E_n - E_0) > 60, where a term is below 1e-26.
    """
    beta = 1.0 / t
    if lam == 0:
        em1 = math.expm1(beta)
        z = 1.0 / -math.expm1(-beta)
        if convention == "sym":
            z = math.exp(-0.5 * beta) / -math.expm1(-beta)
        return {"z": z, "mean_n": 1.0 / em1,
                "c": beta * beta * math.exp(beta) / (em1 * em1)}
    lam = abs(lam)
    if convention == "sym":
        scale = 2.0 * math.sinh(0.5 * lam)
        e0 = math.sinh(0.5 * lam) / scale
        n_max = math.asinh(scale * (e0 + 60.0 * t)) / lam
        n = np.arange(int(n_max) + 3, dtype=float)
        energy = np.sinh(lam * (n + 0.5)) / scale
    else:
        e0 = 0.0
        n_max = math.asinh(math.sinh(lam) * 60.0 * t) / lam
        n = np.arange(int(n_max) + 3, dtype=float)
        energy = np.sinh(lam * n) / math.sinh(lam)
    x = beta * (energy - e0)
    w = np.exp(-x)
    z_shift = float(np.sum(w))
    mean_x = float(np.sum(x * w)) / z_shift
    var_x = float(np.sum((x - mean_x) ** 2 * w)) / z_shift
    return {"z": math.exp(-beta * e0) * z_shift,
            "mean_n": float(np.sum(n * w)) / z_shift, "c": var_x}


def heat_law(t: float, lam: float, convention: str) -> float:
    """C_law = 1/L - 1/L^2 with L from the midpoint ("sym") or trapezoid
    ("num") sum of exp(-beta E) on a grid of spacing lam."""
    if convention == "sym":
        big_l = math.log(4.0 * t * math.sinh(0.5 * lam)) - EULER_GAMMA
    else:
        big_l = math.log(2.0 * t * math.sinh(lam)) - EULER_GAMMA + 0.5 * lam
    return 1.0 / big_l - 1.0 / (big_l * big_l)


def planck_reference(t: float, lam: float) -> float:
    """1/(e^x - 1) plus lam^2 times the printed -x (e^3x + 4e^2x + e^x)/(e^x - 1)^4."""
    x = 1.0 / t
    em1 = math.expm1(x)
    coefficient = -x * (math.exp(3 * x) + 4 * math.exp(2 * x) + math.exp(x)) / em1 ** 4
    return 1.0 / em1 + lam * lam * coefficient


def f_inverse_closed(x: float, lam: float) -> float:
    """F^-1(x) for F(y) = sinh(y lam)/sinh(lam)."""
    return math.asinh(x * math.sinh(lam)) / lam


def check_thermo_row(label, t, lam, convention, z, mean_n, c, planck=None):
    ref = thermo_reference(t, lam, convention)
    problems = (_close(f"{label} Z(T={t:g})", z, ref["z"], 1e-12)
                + _close(f"{label} <n>(T={t:g})", mean_n, ref["mean_n"], 1e-12)
                + _close(f"{label} C(T={t:g})", c, ref["c"],
                         1e-12 if lam == 0 else 1e-4))
    if planck is not None:
        problems += _close(f"{label} planck(T={t:g})", planck,
                           planck_reference(t, lam), 1e-12)
    return problems


def mu_fixed_point(phi, pi, lam: float, mu: float) -> float:
    """Relative residual of mu = sum_k (|k| |phi_k|^2 + |pi_k|^2 / (|k| c^2)) / 2,
    c = (lam/sinh lam) cosh(lam mu), over the nonzero DFT modes."""
    n = len(phi)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))[1:]
    phi_k = np.abs(np.fft.fft(phi)[1:] / n) ** 2
    pi_k = np.abs(np.fft.fft(pi)[1:] / n) ** 2
    speed = (lam / math.sinh(lam) if lam else 1.0) * math.cosh(lam * mu)
    rhs = float(np.sum(0.5 * k * phi_k + 0.5 * pi_k / (k * speed * speed)))
    return rel_err(mu, rhs)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text):
    return [{k: _number(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def suite_bounds(path=SUITE):
    """{section: [(metric, kind, bound)]} read from the suite file itself."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    bounds = {}
    for section in parser.sections():
        bounds[section] = [(key.split(".")[1], key.split(".")[2], float(value))
                           for key, value in parser.items(section)
                           if key.startswith("check.")]
    return bounds


def check_suite_report(report, bounds, errors_are_problems=True):
    """Every section of the report present and within the bounds of the
    suite file; the level-exact-phase frequency is coth 1.  A section that
    raised is a problem unless the caller counts it as a failed operation."""
    problems = []
    records = {r["name"]: r for r in report.get("experiments", [])}
    if sorted(records) != sorted(bounds):
        problems.append(f"report sections {sorted(records)} != suite sections")
    n_errors = 0
    for name, checks in bounds.items():
        record = records.get(name)
        if record is None:
            continue
        if "error" in record:
            n_errors += 1
            if errors_are_problems:
                problems.append(f"[{name}] raised {record['error']}")
            continue
        for metric, kind, bound in checks:
            value = record["metrics"].get(metric)
            ok = value is not None and (value <= bound if kind == "max"
                                        else value >= bound)
            if not ok:
                problems.append(f"[{name}] {metric} = {value!r} breaks {kind} {bound:g}")
    level = records.get("level-exact-phase")
    if level is not None and "metrics" in level:
        # omega = (lam/sinh lam) cosh(lam |psi0|^2) at lam = 1, psi0 = 1
        problems += _close("[level-exact-phase] frequency",
                           level["metrics"]["frequency"],
                           math.cosh(1.0) / math.sinh(1.0), 1e-14)
    if report.get("passed") != len(bounds) - n_errors:
        problems.append(f"report counts passed={report.get('passed')} "
                        f"failed={report.get('failed')}")
    return problems


# ------------------------------------------------------------------ cold-verbs

def _json_check(fn):
    def check(code, out, err, out_text):
        text = out_text if out_text is not None else out
        try:
            payload = json.loads(text)
        except ValueError:
            return [f"output is not JSON: {text[:80]!r}"]
        return fn(payload)
    return check


def _csv_check(fn, rows_expected=None):
    def check(code, out, err, out_text):
        text = out_text if out_text is not None else out
        if not text.endswith("\n"):
            return ["CSV output does not end with a newline"]
        try:
            rows = parse_csv(text)
        except ValueError as exc:
            return [f"CSV output does not parse: {exc}"]
        if rows_expected is not None and len(rows) != rows_expected:
            return [f"CSV has {len(rows)} rows, expected {rows_expected}"]
        return fn(rows)
    return check


class ColdVerbs:
    """Small CLI invocations, each in a fresh interpreter, covering every module.

    The seed draws lambda in [0.1, 0.9] for each verb, and the amplitudes,
    positions, wave mode and photon number within the fixed ranges below.
    """

    name = "cold-verbs"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def draw(lo, hi):
            return float(f"{rng.uniform(lo, hi):.6g}")

        lam = [draw(0.1, 0.9) for _ in range(9)]
        q0, q, qdot, re, alpha = (draw(0.5, 1.5), draw(-1, 1), draw(0.2, 1.0),
                                  draw(0.5, 1.2), draw(0.5, 2.0))
        amp, mode = draw(0.2, 1.0), int(rng.integers(1, 8))
        n_photons = draw(1, 20)
        n_max = 24
        self.ops = [
            CliOp("deform-table", ["deform", "table", "--lambda", str(lam[0]),
                                   "--n-max", str(n_max)],
                  _csv_check(lambda rows, l=lam[0]: self._deform(rows, l), n_max + 1)),
            CliOp("operators-check", ["operators", "check", "--lambda", str(lam[1]),
                                      "--dim", "24"],
                  _csv_check(self._operators)),
            CliOp("classical-simulate",
                  ["classical", "simulate", "--lambda", str(lam[2]), "--q0", str(q0),
                   "--p0", "0", "--t-end", "2", "--dt", "1e-3", "--stride", "200",
                   "--out", "classical.csv"],
                  _csv_check(lambda rows, l=lam[2]: self._classical(rows, l, q0), 11),
                  out_file="classical.csv"),
            CliOp("classical-momentum",
                  ["classical", "momentum", "--lambda", str(lam[3]), "--q", str(q),
                   "--qdot", str(qdot)],
                  _json_check(lambda p, l=lam[3]: self._momentum(p, l, q, qdot))),
            CliOp("wave-simulate",
                  ["wave", "simulate", "--lambda", str(lam[4]), "--t-end", "5",
                   "--n", "64", "--mode", str(mode), "--amplitude", str(amp),
                   "--soliton", "1", "--format", "json", "--out", "wave.json"],
                  _json_check(lambda p, l=lam[4]: self._wave(p, l, amp, mode)),
                  out_file="wave.json"),
            CliOp("level-simulate",
                  ["level", "simulate", "--lambda", str(lam[5]), "--re", str(re),
                   "--t-end", "1", "--dt", "1e-3", "--stride", "250"],
                  _csv_check(lambda rows, l=lam[5]: self._level(rows, l, re), 5)),
            CliOp("coherent-build",
                  ["coherent", "build", "--lambda", str(lam[6]), "--alpha-re",
                   str(alpha), "--out", "coherent.json"],
                  _json_check(self._coherent), out_file="coherent.json"),
            CliOp("coherent-cutoff-error",
                  ["coherent", "build", "--alpha-re", "3", "--cutoff", "4"],
                  self._cutoff_error, expected_code=2),
            CliOp("thermo-table",
                  ["thermo", "table", "--lambda", str(lam[7]), "--t-min", "0.5",
                   "--t-max", "8", "--points", "4"],
                  _csv_check(lambda rows, l=lam[7]: self._thermo(rows, l), 4)),
            CliOp("thermo-blueshift",
                  ["thermo", "blueshift", "--lambda", str(lam[8]), "--n",
                   str(n_photons)],
                  _json_check(lambda p, l=lam[8]: self._blueshift(p, l, n_photons))),
        ]

    @staticmethod
    def _deform(rows, lam):
        problems = []
        for row in rows:
            n = row["n"]
            problems += _close(f"big_f({n:g})", row["big_f"],
                               math.sinh(n * lam) / math.sinh(lam), 1e-13)
        return problems

    @staticmethod
    def _operators(rows):
        values = {row["metric"]: row["value"] for row in rows}
        return [p for key in ("commutator", "reordering", "heisenberg",
                              "linearoid", "spectrum")
                for p in _at_most(key, values.get(key), 1e-10)]

    @staticmethod
    def _classical(rows, lam, q0):
        omega = lam / math.sinh(lam) * math.cosh(0.5 * lam * q0 * q0)
        problems = []
        for row in rows:
            exact = q0 * math.cos(omega * row["t"])
            if abs(row["q_exact"] - exact) > 1e-12 or abs(row["q"] - exact) > 1e-7:
                problems.append(f"classical q({row['t']:g}) = {row['q']!r}, "
                                f"q_exact = {row['q_exact']!r}, closed form {exact!r}")
        return problems

    @staticmethod
    def _momentum(payload, lam, q, qdot):
        p = payload["p"]
        lhs = p * math.cosh(0.5 * lam * (q * q + p * p))
        return _close("momentum relation", lhs, math.sinh(lam) / lam * qdot, 1e-12)

    @staticmethod
    def _wave(payload, lam, amp, mode):
        mu = 0.5 * mode * amp * amp  # traveling wave: mu = 2 sum |k|/2 |phi_k|^2
        speed = lam / math.sinh(lam) * math.cosh(lam * mu)
        return (_close("wave mu", payload["mu"], mu, 1e-12)
                + _close("wave speed", payload["speed"], speed, 1e-12)
                + _at_most("wave shape_error", payload["shape_error"], 1e-8))

    @staticmethod
    def _level(rows, lam, re):
        omega = lam / math.sinh(lam) * math.cosh(lam * re * re)
        problems = []
        for row in rows:
            if (abs(row["abs_psi_sq"] - re * re) > 1e-10
                    or abs(cmath.exp(1j * row["phase"])
                           - cmath.exp(-1j * omega * row["t"])) > 1e-8):
                problems.append(f"level psi({row['t']:g}) off the exact rotation")
        return problems

    @staticmethod
    def _coherent(payload):
        return (_close("coherent norm", payload["norm"], 1.0, 1e-12)
                + _at_most("coherent residual", payload["residual"], 1e-9))

    @staticmethod
    def _cutoff_error(code, out, err, out_text):
        try:
            payload = json.loads(err)
        except ValueError:
            return [f"stderr is not one JSON line: {err[:80]!r}"]
        if payload.get("error") != "CutoffError" or out:
            return [f"expected a CutoffError and no stdout, got {payload!r}"]
        return []

    @staticmethod
    def _thermo(rows, lam):
        problems = []
        for row in rows:
            problems += check_thermo_row("thermo table", row["T"], lam, "sym",
                                         row["Z"], row["mean_n"], row["C"])
        return problems

    @staticmethod
    def _blueshift(payload, lam, n):
        return (_close("blueshift exact", payload["exact"],
                       2.0 * math.sinh(0.5 * lam * n) ** 2, 1e-13)
                + _close("blueshift approx", payload["approx"],
                         0.5 * (lam * n) ** 2, 1e-13))


# ------------------------------------------------------------ acceptance-suite

class AcceptanceSuite:
    """experiments.run_suite on the bundled acceptance suite, pass after pass."""

    name = "acceptance-suite"

    def __init__(self, seed: int):
        from qlab import experiments
        self.bounds = suite_bounds()
        self.entries = experiments.load_suite(SUITE)
        self.ops = [Op("run_suite", lambda scratch: experiments.run_suite(SUITE),
                       self._check, weight=len(self.entries),
                       failures=lambda value: sum(1 for r in value[0]["experiments"]
                                                  if "error" in r))]
        self.cli = CliOp("suite", ["suite", SUITE, "--out", "report.json"],
                         _json_check(lambda report: check_suite_report(report,
                                                                       self.bounds)),
                         out_file="report.json")

    def _check(self, value):
        report, code = value
        expected = 0 if report["failed"] == 0 else 1
        return check_suite_report(report, self.bounds, errors_are_problems=False) + (
            [] if code == expected else [f"run_suite exit code {code}"])


# ----------------------------------------------------------------- thermo-scan

class ThermoScan:
    """thermo_table and specific_heat over a fixed (lambda, convention, T) grid.

    Regimes: the lambda = 0 closed forms; short sums (lambda >= 0.3, low T,
    and lambda = 0.1/0.3 at T = 1e6 where C_law is checked); long sums at
    lambda = 1e-3, T = 1e5 and 1e6 (about 1e4 terms each).  The probe
    specific_heat(1e5, 2e-6) needs about 4e6 terms.  The seed is not used.
    """

    name = "thermo-scan"
    CLOSED_T = (0.25, 1.0, 4.0, 1e3, 1e6)
    SHORT_T = tuple(float(t) for t in np.geomspace(0.25, 64.0, 9))
    LOW_T = (0.25, 1.0, 4.0)
    LONG_T = (1e5, 1e6)
    LAW = ((1e6, 0.1), (1e6, 0.3))
    PROBE = (1e5, 2e-6, "sym")

    def __init__(self, seed: int):
        from qlab import thermo
        ops = []
        tables = [(0.0, self.CLOSED_T), (0.3, self.SHORT_T), (1.0, self.SHORT_T),
                  (1e-3, self.LOW_T), (1e-3, self.LONG_T)]
        for lam, temps in tables:
            for conv in ("sym", "num"):
                ops.append(Op(f"thermo_table(lam={lam:g}, {conv}, T={temps[0]:g}..{temps[-1]:g})",
                              lambda s, lam=lam, temps=temps, conv=conv:
                              thermo.thermo_table(temps, lam, conv),
                              lambda v, lam=lam, conv=conv: self._table(v, lam, conv)))
        for t, lam in self.LAW:
            for conv in ("sym", "num"):
                ops.append(Op(f"specific_heat({t:g}, {lam:g}, {conv})",
                              lambda s, t=t, lam=lam, conv=conv:
                              thermo.specific_heat(t, lam, conv),
                              lambda v, t=t, lam=lam, conv=conv: self._heat(v, t, lam, conv)))
        t, lam, conv = self.PROBE
        ops.append(Op(f"specific_heat({t:g}, {lam:g}, {conv})",
                      lambda s: thermo.specific_heat(t, lam, conv),
                      lambda v: self._heat(v, t, lam, conv), probe=True))
        self.ops = ops
        self.cli = CliOp("thermo-table", ["thermo", "table", "--lambda", "0.001",
                                          "--t-min", "1e5", "--t-max", "1e6",
                                          "--points", "2"],
                         _csv_check(lambda rows: ColdVerbs._thermo(rows, 1e-3), 2))

    @staticmethod
    def _table(table, lam, conv):
        problems = []
        for i, t in enumerate(table.temperatures):
            problems += check_thermo_row(f"thermo_table(lam={lam:g}, {conv})", t, lam,
                                         conv, table.z[i], table.mean_n[i],
                                         table.c[i], table.planck_approx[i])
        return problems

    @staticmethod
    def _heat(c, t, lam, conv):
        problems = _close(f"C({t:g}, {lam:g}, {conv})", c,
                          thermo_reference(t, lam, conv)["c"], 1e-4)
        if t >= 1e6 and lam >= 0.1:
            problems += _close(f"C_law({t:g}, {lam:g}, {conv})", c,
                               heat_law(t, lam, conv), 1e-4)
        return problems


# ------------------------------------------------------------------- operators

class Operators:
    """Fock identity checks at dim 256 and 512, a deform-table round trip,
    per-element F^-1, coherent builds at |alpha| up to 20 and wave solves at
    n = 512.

    The seed draws the q-deformation lambda in [0.05, 0.5], the custom table
    slope in [0.005, 0.05], the F^-1 lambda in [0.05, 0.2] and its 2000
    arguments log-uniform in [1, 1e12], the coherent amplitudes (|alpha| in
    [19, 20] for the identity deformation, [10, 20] for q with lambda in
    [0.005, 0.05], explicit cutoff 1024 so the work does not depend on the
    draw), and the wave lambda in [0.1, 1], mode in 1..8 and amplitude in
    [0.2, 1].
    """

    name = "operators"
    DIMS = (256, 512)
    CUTOFF = 1024
    PROBE = (1e50, 1e-9)

    def __init__(self, seed: int):
        from qlab import coherent, deformation as dfm, experiments, fock, wave
        rng = np.random.default_rng(seed)
        lam_f = float(rng.uniform(0.05, 0.5))
        slope = float(rng.uniform(0.005, 0.05))
        lam_d = float(rng.uniform(0.05, 0.2))
        xs = [float(x) for x in np.exp(rng.uniform(0.0, math.log(1e12), 2000))]
        r_id, th_id = float(rng.uniform(19, 20)), float(rng.uniform(0, 2 * math.pi))
        delta = complex(*rng.uniform(-0.7, 0.7, 2))
        r_q, th_q = float(rng.uniform(10, 20)), float(rng.uniform(0, 2 * math.pi))
        lam_c = float(rng.uniform(0.005, 0.05))
        lam_w, mode = float(rng.uniform(0.1, 1.0)), int(rng.integers(1, 9))
        amp = float(rng.uniform(0.2, 1.0))
        table = [math.sqrt(1.0 + slope * n) for n in range(max(self.DIMS) + 1)]
        specs = {"q": dfm.q_deform(lam_f), "identity": dfm.identity(),
                 "custom": dfm.custom(table)}
        self.big_f_of = {"q": lambda n: math.sinh(n * lam_f) / math.sinh(lam_f),
                         "identity": float,
                         "custom": lambda n: n * (1.0 + slope * n)}

        ops = []
        for dim in self.DIMS:
            for kind, spec in specs.items():
                for fn_name in ("check_commutator", "heisenberg_residual",
                                "linearoid_roundtrip", "spectrum_check"):
                    # looked up per call, so that the tracer's wrapper is seen
                    ops.append(Op(f"fock.{fn_name}({dim}, {kind})",
                                  lambda s, fn_name=fn_name, dim=dim, spec=spec:
                                  getattr(fock, fn_name)(dim, spec),
                                  lambda v, n=f"{fn_name}({dim}, {kind})":
                                  _at_most(n, v, 1e-10)))
            for kind, lam in (("q", lam_f), ("identity", 0.0)):
                ops.append(Op(f"fock.check_reordering({dim}, {kind})",
                              lambda s, dim=dim, lam=lam: fock.check_reordering(dim, lam),
                              lambda v, n=f"check_reordering({dim}, {kind})":
                              _at_most(n, v, 1e-10)))
        for kind, spec in specs.items():
            ops.append(Op(f"fock.deformed_annihilation(512, {kind})",
                          lambda s, spec=spec: fock.deformed_annihilation(512, spec),
                          lambda v, kind=kind: self._ladder(v, kind)))

        spec_d = dfm.q_deform(lam_d)
        ops.append(Op("experiments.deform_table",
                      lambda s: experiments.run_experiment(
                          "deform table", {"lambda": lam_d, "n_max": 40}),
                      lambda v: self._deform_table(v, lam_d)))
        ops.append(Op("deformation.big_f_inverse x2000",
                      lambda s: [dfm.big_f_inverse(x, spec_d) for x in xs],
                      lambda ys: self._inverse(ys, xs, lam_d, spec_d)))
        x_p, lam_p = self.PROBE
        ops.append(Op(f"deformation.big_f_inverse({x_p:g}, q({lam_p:g}))",
                      lambda s: dfm.big_f_inverse(x_p, dfm.q_deform(lam_p)),
                      lambda y: _close("big_f_inverse probe", y,
                                       f_inverse_closed(x_p, lam_p), 1e-12),
                      probe=True))

        alpha_id = cmath.rect(r_id, th_id)
        amplitudes = {"id-a": (alpha_id, specs["identity"]),
                      "id-b": (alpha_id + delta, specs["identity"]),
                      "q-a": (cmath.rect(r_q, th_q), dfm.q_deform(lam_c)),
                      "q-b": (cmath.rect(r_q, th_q) + delta, dfm.q_deform(lam_c))}
        for key, (alpha, spec) in amplitudes.items():
            ops.append(Op(f"coherent.build_f_coherent({key})",
                          lambda s, key=key, alpha=alpha, spec=spec:
                          s.setdefault(key, coherent.build_f_coherent(
                              alpha, spec, self.CUTOFF)),
                          self._coherent_state))
        for key in amplitudes:
            ops.append(Op(f"coherent.eigenvalue_residual({key})",
                          lambda s, key=key: coherent.eigenvalue_residual(s[key]),
                          lambda v, key=key: _at_most(f"eigenvalue residual {key}",
                                                      v, 1e-9)))
        for a, b in (("id-a", "id-b"), ("q-a", "q-b")):
            ops.append(Op(f"coherent.scalar_product({a}, {b})",
                          lambda s, a=a, b=b: (coherent.scalar_product(s[a], s[b]),
                                               s[a].coeffs, s[b].coeffs),
                          lambda v, a=a, b=b: self._overlap(
                              v, amplitudes[a][0], amplitudes[b][0], a.startswith("id"))))

        n = 512
        theta = 2 * math.pi * np.arange(n) / n
        profile = amp * np.cos(mode * theta)
        ops.append(Op("wave.soliton_check(512)",
                      lambda s: wave.soliton_check(profile, 1, lam_w, 20.0),
                      lambda v: _at_most("soliton shape error", v, 1e-8)))
        pi0 = amp * np.sin(mode * theta)
        ops.append(Op("wave.make_field(512)",
                      lambda s: s.setdefault("field", wave.make_field(profile, pi0, lam_w)),
                      lambda f: self._field(f, lam_w)))

        def leapfrog(s):
            field0 = s["field"]
            dt = 0.9 * (2 * math.pi / n) / (math.pi * field0.speed)
            return wave.evolve(field0, 2.0, dt, "leapfrog")

        ops.append(Op("wave.evolve(512, leapfrog)", leapfrog,
                      lambda f: self._field(f, lam_w)))
        self.ops = ops
        self.cli = CliOp("operators-check", ["operators", "check", "--lambda",
                                             repr(lam_f), "--dim", "256"],
                         _csv_check(ColdVerbs._operators))

    def _ladder(self, matrix, kind):
        big_f = self.big_f_of[kind]
        diag = np.diagonal(matrix.entries, 1)
        reference = np.sqrt([big_f(n + 1) for n in range(matrix.dim - 1)])
        err = float(np.max(np.abs(diag / reference - 1.0)))
        off = np.count_nonzero(matrix.entries) - np.count_nonzero(diag)
        problems = [] if err <= 1e-13 else [
            f"A({kind}) superdiagonal off sqrt(F(n+1)) by {err:.3g}"]
        return problems + ([f"A({kind}) has {off} entries off the superdiagonal"]
                           if off else [])

    @staticmethod
    def _deform_table(result, lam):
        problems = []
        for row in result.rows:
            n = row["n"]
            problems += _close(f"deform table big_f({n})", row["big_f"],
                               math.sinh(n * lam) / math.sinh(lam), 1e-13)
            problems += _at_most(f"deform table roundtrip({n})", row["roundtrip_err"],
                                 1e-12 * max(1, n))
        return problems

    @staticmethod
    def _inverse(ys, xs, lam, spec):
        from qlab import deformation as dfm
        worst_closed = max(rel_err(y, f_inverse_closed(x, lam)) for x, y in zip(xs, ys))
        worst_back = max(rel_err(dfm.big_f(y, spec), x) for x, y in zip(xs, ys))
        return (_at_most("F^-1 vs asinh closed form", worst_closed, 1e-12)
                + _at_most("F(F^-1(x)) - x", worst_back, 1e-12))

    @staticmethod
    def _coherent_state(state):
        norm = float(np.sum(np.abs(state.coeffs) ** 2))
        return _close("coherent norm", norm, 1.0, 1e-12)

    @staticmethod
    def _overlap(value, a, b, identity):
        overlap, ca, cb = value
        if identity:
            reference = cmath.exp(a.conjugate() * b - 0.5 * (abs(a) ** 2 + abs(b) ** 2))
        else:
            reference = complex(np.vdot(ca, cb))  # the coefficient route
        err = abs(overlap - reference)
        return [] if err <= 1e-10 else [
            f"overlap {overlap!r} vs {reference!r} (|diff| {err:.3g})"]

    @staticmethod
    def _field(field, lam):
        err = mu_fixed_point(field.phi, field.pi, lam, field.mu)
        return [] if err <= 1e-12 else [f"wave mu fixed point off by {err:.3g}"]


WORKLOADS = {cls.name: cls for cls in (ColdVerbs, AcceptanceSuite, ThermoScan,
                                       Operators)}
