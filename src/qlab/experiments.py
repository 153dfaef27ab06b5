"""Experiment runners shared by the command-line front end and the suite harness.

Each subcommand is a pure function from a validated parameter dict to an
ExperimentResult carrying the lists and arrays it computed as named columns
(CSV) and one summary dict (JSON), whose every number suite files can bound
with check.<key>.max / check.<key>.min lines.

Each runner imports the modules it uses, so a cold verb loads only its own
module (and numpy only if that module's arrays need it), not the whole
package.
"""

from __future__ import annotations

import cmath
import math
import os
from typing import Callable, NamedTuple

from . import deformation
from .errors import (_POINT_COST, _T_MAX, _T_MIN, WORK_BUDGET, ParameterError, QlabError,
                     SaturationError, SolverError)

_REQUIRED = object()


class Param(NamedTuple):
    """One parameter and its domain, the values in ``choices`` or the closed
    range ``bounds`` = (lo, hi), which _coerce alone checks."""
    name: str
    kind: type
    default: object = _REQUIRED
    help: str = ""
    choices: tuple = ()
    bounds: tuple = ()

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    @property
    def domain(self) -> str:
        """The domain in words, e.g. "q, identity, or custom", ">= 1 and <= 10"."""
        if self.choices:
            *head, last = map(str, self.choices)
            return f"{', '.join(head)}{',' * (len(head) > 1)} or {last}"
        lo, hi = self.bounds
        return f">= {lo}" + (f" and <= {hi}" if hi < math.inf else "")


class ExperimentResult(NamedTuple):
    """``columns`` maps each CSV column name, in order, to a list or float64
    array, all of one length and each of one cell type (float, int, str or
    None); ``summary`` is the JSON document, whose numbers suites bound and
    whose whole is a suite report's ``metrics`` record."""
    columns: dict
    summary: dict

    @property
    def rows(self) -> list[dict]:
        """The columns zipped into one dict per row.  The benchmark's
        ``deform table`` check (perfbench/workloads.py) reads ``row["n"]``
        and ``row["big_f"]`` here, and the benchmark changes only on its own;
        this view can go once ROADMAP item 2 moves that check to ``columns``."""
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())]


class Command(NamedTuple):
    runner: Callable[[dict], ExperimentResult]
    params: tuple
    default_format: str = "csv"
    help: str = ""


def _coerce(par: Param, value):
    if isinstance(value, str) and par.kind is not str:
        try:
            value = par.kind(value)
        except ValueError:
            raise ParameterError(f"parameter {par.name!r} expects {par.kind.__name__}, "
                                 f"got {value!r}")
    if par.kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, par.kind):
        raise ParameterError(f"parameter {par.name!r} expects {par.kind.__name__}, "
                             f"got {type(value).__name__}")
    if par.kind is float and not math.isfinite(value):
        raise ParameterError(f"parameter {par.name!r} must be finite, got {value!r}")
    if (par.choices and value not in par.choices
            or par.bounds and not par.bounds[0] <= value <= par.bounds[1]):
        raise ParameterError(f"{par.name} must be {par.domain}, got {value!r}")
    return value


def resolve_params(command: Command, given: dict) -> dict:
    """Validated parameter dict: unknown keys rejected, defaults filled in."""
    known = {p.name: p for p in command.params}
    out = {}
    for key, value in given.items():
        if key not in known:
            raise ParameterError(f"unknown parameter {key!r} "
                                 f"(expected one of {sorted(known)})")
        if value is None:
            continue
        out[key] = _coerce(known[key], value)
    for par in command.params:
        if par.name not in out:
            if par.required:
                raise ParameterError(f"missing required parameter {par.name!r}")
            out[par.name] = par.default
    return out


def _one_row(values: dict) -> dict:
    """The columns of a one-row table."""
    return {name: [value] for name, value in values.items()}


def _strided(n: int, stride: int):
    """Every stride-th of the indices 0..n-1, the first at or past n - 1 clipped to it."""
    import numpy as np

    return np.arange(0, n - 1 + stride, stride).clip(max=n - 1)  # not np.unique: it loads numpy.ma


def _make_spec(params: dict) -> deformation.DeformationSpec:
    if params["kind"] == "q":
        return deformation.q_deform(params["lambda"])
    if params["kind"] == "identity":
        return deformation.identity()
    if not params["f_table"]:
        raise ParameterError("kind=custom requires f_table=<csv path>")
    return deformation.load_f_table(params["f_table"])


# ---------------------------------------------------------------- deformation

def _run_deform_table(p: dict) -> ExperimentResult:
    spec = _make_spec(p)
    lam = p["lambda"]
    q = spec.kind == "q"
    table = []  # one tuple per n, so the first failing n raises first
    factorial = 1.0  # f(1) ... f(n), multiplied in that order
    for n in range(p["n_max"] + 1):
        big = deformation.big_f(n, spec)
        roundtrip = abs(deformation.big_f_inverse(big, spec) - n)
        q_number = deformation.q_number(n, lam) if q else None
        f = deformation.f_of_n(n, spec)
        phi = deformation.phi_of_z(n, spec)  # for q also the commutator function
        factorial *= f if n else 1.0
        for name, value in (("phi = F(n + 1) - F(n)", phi), ("deformed factorial", factorial)):
            if not value < math.inf:
                raise SaturationError(f"{name} overflows at n = {n}", largest_safe_n=n - 1)
        table.append((n, q_number, f, big, phi, phi, factorial, roundtrip))
    names = ("n", "q_number", "f", "big_f", "phi", "commutator", "f_factorial",
             "roundtrip_err")
    columns = dict(zip(names, map(list, zip(*table))))
    if not q:
        del columns["q_number"], columns["commutator"]
    max_roundtrip = max(columns["roundtrip_err"])
    summary = {"kind": spec.kind, "n_max": p["n_max"], "max_roundtrip_err": max_roundtrip}
    return ExperimentResult(columns, summary)


# ---------------------------------------------------------------- fock checks

def _run_operators_check(p: dict) -> ExperimentResult:
    from . import fock

    spec = _make_spec(p)
    dim = p["dim"]
    summary = {
        "commutator": fock.check_commutator(dim, spec),
        "linearoid": fock.linearoid_roundtrip(dim, spec),
        "heisenberg": fock.heisenberg_residual(dim, spec),
        "spectrum": fock.spectrum_check(dim, spec),
        "evolution": fock.evolution_residual(dim, spec, 1.0),
    }
    if spec.kind != "custom":  # identity() has lam = 0
        summary["reordering"] = fock.check_reordering(dim, spec.lam)
    quad = fock.quadrature_uncertainty(fock.FockState.basis(dim, 1), spec)
    summary["uncertainty_product"] = quad.product
    columns = {"metric": list(summary), "value": list(summary.values())}
    return ExperimentResult(columns, summary)


# ------------------------------------------------------------------ classical

def _run_classical_simulate(p: dict) -> ExperimentResult:
    from . import classical

    lam = p["lambda"]
    state0 = classical.ClassicalState(p["q0"], p["p0"], lam)
    traj = classical.integrate_eom(state0, p["t_end"], p["dt"])
    n = traj.t.shape[0]
    idx = _strided(n, p["stride"])
    t, q, mom = traj.t[idx], traj.q[idx], traj.p[idx]
    alpha_t = classical.exact_alpha(state0.alpha, lam, t)
    intensity = 0.5 * (q * q + mom * mom)
    # q_number per cell: its array form differs in the last bits
    columns = {"t": t, "q": q, "p": mom, "q_exact": math.sqrt(2.0) * alpha_t.real,
               "|alpha|^2": intensity,
               "H_q": [deformation.q_number(i, lam) for i in intensity.tolist()]}
    summary = {"max_exact_dev": traj.max_exact_dev, "alpha_sq_drift": traj.alpha_sq_drift,
               "hq_drift": traj.hq_drift, "steps": n - 1}
    return ExperimentResult(columns, summary)


def _run_classical_bracket(p: dict) -> ExperimentResult:
    from . import classical

    alpha = complex(p["alpha_re"], p["alpha_im"])
    lam = p["lambda"]
    residual = classical.poisson_bracket_check(alpha, lam, p["h"])
    alpha_q = classical.deform_amplitude(alpha, lam)
    summary = {"alpha_q_re": alpha_q.real, "alpha_q_im": alpha_q.imag,
               "residual": residual}
    columns = _one_row({"alpha_re": alpha.real, "alpha_im": alpha.imag, "lambda": lam,
                        "residual": residual})
    return ExperimentResult(columns, summary)


def _run_classical_bracket_grid(p: dict) -> ExperimentResult:
    import numpy as np

    from . import classical

    for lo, hi in (("alpha_min", "alpha_max"), ("lam_min", "lam_max")):
        if not abs(p[hi] - p[lo]) < math.inf:
            raise ParameterError(f"{lo} to {hi} is wider than the double range")
    points = p["points"]
    mags = np.repeat(np.linspace(p["alpha_min"], p["alpha_max"], points), points)
    lams = np.tile(np.linspace(p["lam_min"], p["lam_max"], points), points)
    residuals = [classical.poisson_bracket_check(complex(mag, 0.0), lam, p["h"])
                 for mag, lam in zip(mags.tolist(), lams.tolist())]
    worst = max(residuals)
    summary = {"points": len(residuals), "max_residual": worst}
    columns = {"alpha": mags, "lambda": lams, "residual": residuals}
    return ExperimentResult(columns, summary)


def _run_classical_momentum(p: dict) -> ExperimentResult:
    from . import classical

    lam = p["lambda"]
    exact = classical.momentum_from_velocity(p["q"], p["qdot"], lam)
    approx = classical.approx_momentum(p["q"], p["qdot"], lam)
    diff = abs(exact - approx)
    summary = {"p": exact, "p_approx": approx, "difference": diff}
    return ExperimentResult(_one_row(summary), summary)


def _run_classical_momentum_scaling(p: dict) -> ExperimentResult:
    from . import classical

    lam_coarse, lam_fine = p["lam_coarse"], p["lam_fine"]
    if not (0 < lam_fine < lam_coarse):
        raise ParameterError("need 0 < lam_fine < lam_coarse")
    pts = p["points"]
    thetas = [(2 * i + 1) * math.pi / (2 * pts) for i in range(pts)]
    circle = [(math.cos(t), math.sin(t)) for t in thetas]
    errs = [[abs(classical.momentum_from_velocity(q, qdot, lam)
                 - classical.approx_momentum(q, qdot, lam))
             for lam in (lam_coarse, lam_fine)] for q, qdot in circle]
    coarse, fine = map(list, zip(*errs))
    ratios = [c / f if f else math.inf for c, f in zip(coarse, fine)]  # run_experiment rejects inf
    columns = {"theta": thetas, "err_coarse": coarse, "err_fine": fine, "ratio": ratios}
    return ExperimentResult(columns, {"ratio_min": min(ratios), "ratio_max": max(ratios)})


def _run_classical_alpha(p: dict) -> ExperimentResult:
    from . import classical

    lam = p["lambda"]
    state = classical.ClassicalState(p["q0"], p["p0"], lam)
    alpha_t = classical.exact_alpha(state.alpha, lam, p["t"])
    alpha_q0 = classical.deform_amplitude(state.alpha, lam)
    alpha_q_t = classical.exact_alpha_deformed(alpha_q0, lam, p["t"])
    # transforming the evolved amplitude must equal evolving the
    # transformed one: the two exact propagators share one frequency
    consistency = abs(classical.deform_amplitude(alpha_t, lam) - alpha_q_t)
    summary = {"alpha_re": alpha_t.real, "alpha_im": alpha_t.imag,
               "alpha_q_re": alpha_q_t.real, "alpha_q_im": alpha_q_t.imag,
               "consistency": consistency}
    return ExperimentResult(_one_row(summary), summary)


# ----------------------------------------------------------------------- wave

def _read_ic_file(path: str):
    import numpy as np

    rows = deformation._read_csv_rows(path, "initial-condition")
    for line_no, r in rows:
        if len(r) != 3:
            raise ParameterError(f"initial-condition line {line_no}: "
                                 "expected 3 columns (x, phi, pi)")
    if len(rows) < 4:
        raise ParameterError("initial-condition file needs >= 4 rows")
    x, phi, pi = np.array([r for _, r in rows]).T
    dx = np.diff(x)
    if dx.min() <= 0 or dx.max() - dx.min() > 1e-9 * dx.mean():
        raise ParameterError("initial-condition x column must be uniform")
    length = float(x[-1] - x[0] + dx.mean())
    return phi, pi, length


def _run_wave_simulate(p: dict) -> ExperimentResult:
    import numpy as np

    from . import wave

    lam, t_end, direction = p["lambda"], p["t_end"], p["soliton"]
    if p["ic"]:
        phi, pi, length = _read_ic_file(p["ic"])
    else:
        n, length = p["n"], p["length"]
        theta = wave.TWO_PI * np.arange(n) / n
        phi = p["amplitude"] * np.cos(p["mode"] * theta)
        pi = np.zeros_like(phi)

    shape_error = None
    if direction:
        field0 = wave.traveling_field(phi, direction, lam, length)
        shape_error = wave.soliton_check(phi, direction, lam, t_end, length)
    else:
        field0 = wave.make_field(phi, pi, lam, length)

    dt = p["dt"] if p["dt"] > 0 else None
    half = wave.evolve(field0, 0.5 * t_end, dt, p["method"])
    final = wave.evolve(field0, t_end, dt, p["method"])

    fields = (field0, half, final)
    columns = {"t": np.repeat([fld.time for fld in fields], len(field0.phi)),
               "x": np.concatenate([fld.x for fld in fields]),
               "phi": np.concatenate([fld.phi for fld in fields]),
               "pi": np.concatenate([fld.pi for fld in fields])}
    summary = {"mu": field0.mu, "speed": field0.speed, "mu_drift": abs(final.mu - field0.mu),
               "energy_drift": abs(wave.energy(final) - wave.energy(field0)),
               "shape_error": shape_error}
    return ExperimentResult(columns, summary)


# ---------------------------------------------------------------------- level

def _run_level_simulate(p: dict) -> ExperimentResult:
    import numpy as np

    from . import level

    evo = level.evolve_one_level(complex(p["re"], p["im"]), p["lambda"],
                                 p["t_end"], p["dt"])
    idx = _strided(evo.t.shape[0], p["stride"])
    psi = evo.psi_rk4[idx]
    # |psi|^2 per cell: numpy's array abs and square differ in the last bits
    columns = {"t": evo.t[idx], "re_psi": psi.real, "im_psi": psi.imag,
               "abs_psi_sq": [float(abs(z) ** 2) for z in psi],
               "phase": np.angle(psi)}
    summary = {"max_deviation": evo.max_deviation, "norm_drift": evo.norm_drift,
               "frequency": evo.frequency}
    return ExperimentResult(columns, summary)


def _run_level_map(p: dict) -> ExperimentResult:
    from . import level

    psi = complex(p["re"], p["im"])
    q, mom = level.psi_to_phase_space(psi, p["omega"])
    roundtrip = abs(level.phase_space_to_psi(q, mom, p["omega"]) - psi)
    summary = {"q": q, "p": mom, "roundtrip_err": roundtrip}
    return ExperimentResult(_one_row(summary), summary)


# ------------------------------------------------------------------- coherent

def _run_coherent_build(p: dict) -> ExperimentResult:
    import numpy as np

    from . import coherent

    spec = _make_spec(p)
    alpha = complex(p["alpha_re"], p["alpha_im"])
    state = coherent.build_f_coherent(alpha, spec, p["cutoff"] or None)
    residual = coherent.eigenvalue_residual(state)
    coeffs = state.coeffs
    norm = float(np.sum(np.abs(coeffs) ** 2))
    # |c|^2 per cell: numpy's array abs and square differ in the last bits
    columns = {"n": list(range(len(coeffs))), "re_c": coeffs.real, "im_c": coeffs.imag,
               "abs_c_sq": [float(abs(c) ** 2) for c in coeffs]}
    summary = {"norm": norm, "norm_err": abs(norm - 1.0), "residual": residual,
               "cutoff": state.cutoff}
    return ExperimentResult(columns, summary)


def _run_coherent_overlap(p: dict) -> ExperimentResult:
    from . import coherent

    spec = _make_spec(p)
    a, b = complex(p["a_re"], p["a_im"]), complex(p["b_re"], p["b_im"])
    overlap = coherent.scalar_product(coherent.build_f_coherent(a, spec, None),
                                      coherent.build_f_coherent(b, spec, None))
    summary = {"re": overlap.real, "im": overlap.imag, "abs": abs(overlap)}
    if spec.kind == "identity":
        from fractions import Fraction

        # exp(conj(a) b - (|a|^2 + |b|^2)/2) with no |a|^2 left to cancel, and
        # Im(conj(a) b) rounded once from exact products, whose difference cancels
        im = float(Fraction(a.real) * Fraction(b.imag) - Fraction(a.imag) * Fraction(b.real))
        reference = cmath.exp(complex(-0.5 * abs(a - b) ** 2, im))
        summary["closed_form_err"] = abs(overlap - reference)
    return ExperimentResult(_one_row(summary), summary)


def _run_coherent_recover(p: dict) -> ExperimentResult:
    import numpy as np

    from . import coherent

    if p["coeffs"]:
        csv_rows = deformation._read_csv_rows(p["coeffs"], "coefficient")
        values = [r[-1] for _, r in csv_rows]  # the last column holds C_n
        recovered = coherent.f_from_coefficients(values)
        columns = {"n": list(range(1, len(recovered) + 1)), "f": recovered}
        return ExperimentResult(columns, {"count": len(recovered)})
    count = p["count"]
    rng = np.random.default_rng(p["seed"])
    f_true = rng.uniform(0.5, 1.5, count)
    c_values = [1.0]
    for n in range(1, count + 1):
        c_values.append(c_values[-1] / (math.sqrt(n) * f_true[n - 1]))
    recovered = coherent.f_from_coefficients(c_values)
    errs = np.abs(recovered - f_true)
    columns = {"n": list(range(1, count + 1)), "f_true": f_true,
               "f_recovered": recovered, "err": errs}
    max_err = float(errs.max())
    return ExperimentResult(columns, {"count": count, "seed": p["seed"], "max_err": max_err})


# --------------------------------------------------------------------- thermo

def _run_thermo_table(p: dict) -> ExperimentResult:
    import numpy as np

    from . import thermo

    if not p["t_min"] < p["t_max"]:
        raise ParameterError("need t_min < t_max")
    temps = np.geomspace(p["t_min"], p["t_max"], p["points"])
    table = thermo.thermo_table(temps, p["lambda"], p["convention"])
    columns = {"T": table.temperatures, "Z": table.z, "mean_n": table.mean_n,
               "C": table.c, "planck_approx": [format(v, ".15g") if v > -math.inf else ""
                                               for v in table.planck_approx]}  # "" at -inf
    c = table.c
    summary = {"lambda": p["lambda"], "convention": p["convention"],
               "cutoff_used": table.cutoff_used, "terms": table.terms, "tail": table.tail,
               "c_first": c[0], "c_last": c[-1]}
    if c[-1]:  # a C(t_max) of 0, every excited level frozen out, has no fall
        summary["fall"] = c[0] / c[-1]
    if p["t_min"] > 1.0:
        products = [ci * math.log(ti) for ci, ti in zip(c, table.temperatures)]
        summary["product_variation"] = (max(products) - min(products)) / max(products)
        if p["lambda"] != 0.0:
            try:
                c_law = thermo.specific_heat_law(p["t_max"], p["lambda"],
                                                 p["convention"])
            except ParameterError:
                pass  # t_max below the range of the 1/ln T law: nothing to compare
            else:
                summary["law_dev"] = abs(c[-1] / c_law - 1.0)
    return ExperimentResult(columns, summary)


def _run_thermo_levels(p: dict) -> ExperimentResult:
    from . import thermo

    energies = thermo.energy_levels(p["n_max"], p["lambda"], p["convention"])
    columns = {"n": list(range(len(energies))), "energy": energies}
    return ExperimentResult(columns, {"n_max": p["n_max"], "convention": p["convention"]})


def _run_thermo_planck_check(p: dict) -> ExperimentResult:
    from . import thermo

    try:
        grid = [float(s) for s in p["lambdas"].split(",")]
    except ValueError:
        raise ParameterError(f"lambdas must be comma-separated reals, "
                             f"got {p['lambdas']!r}")
    report = thermo.planck_coefficient_check(grid, p["x"], p["convention"])
    raw, ratios = report.raw_coefficients, report.residual_ratios
    summary = {key: getattr(report, key) for key in (
        "x", "convention", "limit", "printed_coefficient", "ratio_to_printed",
        "matched_convention", "matched_scale", "extrapolated", "residual_ratios")}
    summary.update(resid_ratio_min=min(ratios), resid_ratio_max=max(ratios))
    if len(raw) >= 3:
        summary["contraction"] = abs(raw[-1] - raw[-2]) / abs(raw[-2] - raw[-3])
    summary["converged"] = report.converged()
    columns = {"lambda": report.lam_grid, "raw_coefficient": raw}
    return ExperimentResult(columns, summary)


def _run_thermo_blueshift(p: dict) -> ExperimentResult:
    from . import thermo

    exact, approx = thermo.blue_shift(p["n"], p["lambda"])
    summary = {"exact": exact, "approx": approx,
               "ratio": exact / approx if approx else None}
    return ExperimentResult(_one_row(summary), summary)


# ------------------------------------------------------------- command table

_SPEC = (
    Param("lambda", float, 0.0, "deformation strength"),
    Param("kind", str, "q", "deformation family", ("q", "identity", "custom")),
    Param("f_table", str, "", "CSV file with custom f(n) values"),
)
_CONVENTION = Param("convention", str, "sym", "spectrum convention", ("sym", "num"))
# approx_momentum's lambda^2 overflows past about 1.34e154
_EXPANSION_LAMBDA = (-1e154, 1e154)

COMMANDS: dict[str, Command] = {
    "deform table": Command(_run_deform_table, (
        *_SPEC,
        Param("n_max", int, 10, "largest level in the table",
              bounds=(1, WORK_BUDGET // 10)),  # a row: ~10 budget units of ~2 us
    ), "csv", "tabulate the deformation profile f, F, phi, factorials"),
    "operators check": Command(_run_operators_check, (
        *_SPEC,
        Param("dim", int, 32, "Fock-space truncation", bounds=(2, WORK_BUDGET)),
    ), "csv", "operator-identity residual table"),
    "classical simulate": Command(_run_classical_simulate, (
        Param("lambda", float, _REQUIRED, "deformation strength"),
        Param("q0", float, _REQUIRED, "initial position"),
        Param("p0", float, _REQUIRED, "initial momentum"),
        Param("t_end", float, _REQUIRED, "integration time"),
        Param("dt", float, 1e-3, "RK4 step"),
        Param("stride", int, 100, "output row thinning", bounds=(1, WORK_BUDGET)),
    ), "csv", "RK4 trajectory vs the closed-form solution"),
    "classical bracket": Command(_run_classical_bracket, (
        Param("lambda", float, _REQUIRED),
        Param("alpha_re", float, _REQUIRED),
        Param("alpha_im", float, 0.0),
        Param("h", float, 1e-4, "finite-difference step"),
    ), "json", "deformed Poisson-bracket residual at one point"),
    "classical bracket-grid": Command(_run_classical_bracket_grid, (
        Param("alpha_min", float, 0.2),
        Param("alpha_max", float, 1.0),
        Param("lam_min", float, 0.1),
        Param("lam_max", float, 0.9),
        Param("points", int, 5, "grid points per axis, points^2 cells",
              bounds=(1, math.isqrt(WORK_BUDGET // 3))),  # ~6 us a cell: 3 budget units
        Param("h", float, 1e-4, "finite-difference step"),
    ), "csv", "bracket residual over an (|alpha|, lambda) grid"),
    "classical momentum": Command(_run_classical_momentum, (
        Param("lambda", float, _REQUIRED, bounds=_EXPANSION_LAMBDA),
        Param("q", float, _REQUIRED),
        Param("qdot", float, _REQUIRED),
    ), "json", "implicit momentum vs its small-lambda expansion"),
    "classical momentum-scaling": Command(_run_classical_momentum_scaling, (
        Param("lam_coarse", float, 0.2, bounds=_EXPANSION_LAMBDA),
        Param("lam_fine", float, 0.1, bounds=_EXPANSION_LAMBDA),
        Param("points", int, 10, "grid points on the unit circle",
              bounds=(2, WORK_BUDGET // 8)),  # 10-14 us a point to lam 1e154: 8 units
    ), "csv", "expansion-error scaling between two lambda values"),
    "classical alpha": Command(_run_classical_alpha, (
        Param("lambda", float, _REQUIRED),
        Param("q0", float, _REQUIRED),
        Param("p0", float, _REQUIRED),
        Param("t", float, 1.0, "evaluation time"),
    ), "json", "exact evolution of plain and deformed amplitudes"),
    "wave simulate": Command(_run_wave_simulate, (
        Param("lambda", float, _REQUIRED),
        Param("t_end", float, _REQUIRED),
        Param("n", int, 256, "grid points (power of two)", bounds=(4, WORK_BUDGET)),
        Param("length", float, 2.0 * math.pi, "domain length"),
        Param("ic", str, "", "CSV initial-condition file (x, phi, pi)"),
        Param("mode", int, 1, "mode index of the built-in cos profile"),
        Param("amplitude", float, 1.0, "amplitude of the built-in cos profile"),
        Param("soliton", int, 0, "traveling-wave direction (0 = off)", (-1, 0, 1)),
        Param("method", str, "spectral", "evolution method", ("spectral", "leapfrog")),
        Param("dt", float, 0.0, "time step: leapfrog needs one > 0, "
              "spectral ignores it"),
    ), "json", "deformed wave evolution with invariant tracking"),
    "level simulate": Command(_run_level_simulate, (
        Param("lambda", float, _REQUIRED),
        Param("re", float, _REQUIRED, "Re psi(0)"),
        Param("im", float, 0.0, "Im psi(0)"),
        Param("t_end", float, _REQUIRED),
        Param("dt", float, 1e-3, "RK4 step"),
        Param("stride", int, 100, "output row thinning", bounds=(1, WORK_BUDGET)),
    ), "csv", "one-level nonlinear evolution vs the exact phase"),
    "level map": Command(_run_level_map, (
        Param("re", float, _REQUIRED, "Re psi"),
        Param("im", float, 0.0, "Im psi"),
        Param("omega", float, 1.0, "reference frequency"),
    ), "json", "wavefunction to phase-space coordinates"),
    "coherent build": Command(_run_coherent_build, (
        *_SPEC,
        Param("alpha_re", float, _REQUIRED),
        Param("alpha_im", float, 0.0),
        Param("cutoff", int, 0, "expansion cutoff (0 = automatic)", bounds=(0, WORK_BUDGET)),
    ), "json", "deformed coherent state with eigenvalue residual"),
    "coherent overlap": Command(_run_coherent_overlap, (
        *_SPEC,
        Param("a_re", float, _REQUIRED),
        Param("a_im", float, 0.0),
        Param("b_re", float, _REQUIRED),
        Param("b_im", float, 0.0),
    ), "json", "scalar product of two deformed coherent states"),
    "coherent recover": Command(_run_coherent_recover, (
        Param("coeffs", str, "", "CSV file of expansion coefficients"),
        Param("count", int, 12, "levels in the seeded round-trip; past 262 its C_n, "
              "down to 1/(sqrt(n!) 1.5^n), can fall below the normal doubles",
              bounds=(2, 262)),
        Param("seed", int, 0, "RNG seed for the round-trip", bounds=(0, math.inf)),
    ), "csv", "deformation profile back from expansion coefficients"),
    "thermo table": Command(_run_thermo_table, (
        Param("lambda", float, _REQUIRED),
        _CONVENTION,
        Param("t_min", float, _REQUIRED, bounds=(_T_MIN, _T_MAX)),
        Param("t_max", float, _REQUIRED, bounds=(_T_MIN, _T_MAX)),
        Param("points", int, 13, "geometric temperature grid size",
              bounds=(2, WORK_BUDGET // _POINT_COST)),
    ), "csv", "Z, mean occupation, specific heat over a T grid"),
    "thermo levels": Command(_run_thermo_levels, (
        Param("lambda", float, _REQUIRED),
        _CONVENTION,
        Param("n_max", int, 10, "largest level", bounds=(1, WORK_BUDGET)),
    ), "csv", "deformed oscillator spectrum"),
    "thermo planck-check": Command(_run_thermo_planck_check, (
        Param("x", float, _REQUIRED, "hbar*omega / k_B T"),
        _CONVENTION,
        Param("lambdas", str, "0.04,0.02,0.01", "lambda grid, comma-separated"),
    ), "json", "small-lambda occupation coefficient vs the printed formula"),
    "thermo blueshift": Command(_run_thermo_blueshift, (
        Param("lambda", float, _REQUIRED),
        Param("n", float, _REQUIRED, "photon number"),
    ), "json", "exact vs quadratic frequency shift"),
}


def run_experiment(command_key: str, given: dict) -> ExperimentResult:
    """The command's result; a nan or inf summary value is a SolverError."""
    if command_key not in COMMANDS:
        raise ParameterError(f"unknown subcommand {command_key!r}")
    command = COMMANDS[command_key]
    result = command.runner(resolve_params(command, given))
    for key, value in result.summary.items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise SolverError(f"{command_key}: {key} = {value!r} is not finite")
    return result


# ---------------------------------------------------------------- suite files

class SuiteEntry(NamedTuple):
    name: str
    command_key: str
    params: dict
    checks: list  # (metric, kind, bound)


def load_suite(path: str) -> list[SuiteEntry]:
    """Parse and fully validate a flat INI suite file before any run."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read suite file: {exc}")
    except configparser.Error as exc:
        raise ParameterError(f"suite file is not valid INI: {exc}")
    entries = []
    for section in parser.sections():
        raw = dict(parser.items(section))
        if "run" not in raw:
            raise ParameterError(f"suite section [{section}] is missing run =")
        command_key = " ".join(raw.pop("run").split())
        if command_key not in COMMANDS:
            raise ParameterError(f"suite section [{section}]: "
                                 f"unknown subcommand {command_key!r}")
        command = COMMANDS[command_key]
        params, checks = {}, []
        for key, value in raw.items():
            if key.startswith("check."):
                parts = key.split(".")
                if len(parts) != 3 or parts[2] not in ("max", "min"):
                    raise ParameterError(f"suite section [{section}]: malformed "
                                         f"check key {key!r} "
                                         "(use check.<metric>.max|min)")
                try:
                    bound = float(value)
                except ValueError:
                    raise ParameterError(f"suite section [{section}]: check "
                                         f"bound {value!r} is not a number")
                checks.append((parts[1], parts[2], bound))
            else:
                params[key] = value
        resolve_params(command, params)  # fail fast on bad keys/values
        entries.append(SuiteEntry(section, command_key, params, checks))
    return entries


def _evaluate_entry(entry: SuiteEntry) -> dict:
    record = {"name": entry.name, "run": entry.command_key}
    try:
        result = run_experiment(entry.command_key, entry.params)
    except QlabError as exc:
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        record["checks"] = []
        record["passed"] = False
        return record
    record["metrics"] = result.summary  # the key perfbench/workloads.py reads
    checks_out = []
    ok = True
    for metric, kind, bound in entry.checks:
        value = result.summary.get(metric)
        if not isinstance(value, (int, float)):  # missing, None, a string or a list; bool counts
            passed = False
        elif kind == "max":
            passed = value <= bound
        else:
            passed = value >= bound
        ok = ok and passed
        checks_out.append({"metric": metric, "kind": kind, "bound": bound,
                           "value": value, "passed": passed})
    record["checks"] = checks_out
    record["passed"] = ok
    return record


def run_suite(path: str) -> tuple[dict, int]:
    """(report, exit_code): 0 all passed, 1 any failure; config errors raise."""
    records = [_evaluate_entry(entry) for entry in load_suite(path)]
    n_passed = sum(1 for r in records if r["passed"])
    n_failed = len(records) - n_passed
    report = {"suite": os.path.basename(path), "experiments": records,
              "passed": n_passed, "failed": n_failed}
    return report, (0 if n_failed == 0 else 1)
