"""Self-test of the benchmark: one short pass of every workload, then proof
that each checker rejects a perturbed value.

    python3 perfbench/selftest.py

Run from the root of a qlab checkout.  Exits 0 when every expectation holds.
It takes about ten seconds, so it is named to stay out of pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (after the path is set)
import workloads  # noqa: E402
from worker import InProcessVerbs, Tally, run_pass  # noqa: E402

FAILURES = []


def expect(condition, label):
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def one_pass(work):
    tally = Tally(work.ops)
    tally.add(run_pass(work.ops))
    tally.check()
    return tally


def values(work, tally):
    return {op.name: value for op, (ok, value) in zip(work.ops, tally.last) if ok}


def op_named(work, prefix):
    return next(op for op in work.ops if op.name.startswith(prefix))


def rejects(check, value, label):
    expect(bool(check(value)), f"rejects {label}")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as out_dir:
        checks(out_dir)
    print(f"{len(FAILURES)} expectation(s) failed")
    return 1 if FAILURES else 0


def checks(out_dir):

    # ------------------------------------------------------------ thermo-scan
    thermo = workloads.ThermoScan(0)
    tally = one_pass(thermo)
    expect(not tally.problems, f"thermo-scan pass is correct {tally.problems}")
    expect(tally.failed == 1 and list(tally.failures) == ["specific_heat(100000, 2e-06, sym)"],
           f"thermo-scan fails only its probe {tally.failures}")
    got = values(thermo, tally)
    table_op = op_named(thermo, "thermo_table(lam=0.3, sym")
    table = got[table_op.name]
    expect(not table_op.check(table), "thermo_table(lam=0.3) passes unperturbed")
    rejects(table_op.check, dataclasses.replace(table, c=[c * (1 + 2e-4) for c in table.c]),
            "C off by 2e-4")
    rejects(table_op.check, dataclasses.replace(table, z=[z * (1 + 1e-11) for z in table.z]),
            "Z off by 1e-11")
    rejects(table_op.check,
            dataclasses.replace(table, mean_n=[n * (1 + 1e-11) for n in table.mean_n]),
            "<n> off by 1e-11")
    closed_op = op_named(thermo, "thermo_table(lam=0, num")
    closed = got[closed_op.name]
    rejects(closed_op.check, dataclasses.replace(closed, c=[c * (1 + 1e-10) for c in closed.c]),
            "lambda = 0 C off by 1e-10")
    law_op = op_named(thermo, "specific_heat(1e+06, 0.1, sym)")
    c_law = workloads.heat_law(1e6, 0.1, "sym")
    expect(not law_op.check(got[law_op.name]), "C(1e6, 0.1) passes unperturbed")
    rejects(law_op.check, got[law_op.name] * (1 + 2e-4), "C(1e6, 0.1) off by 2e-4")
    expect(abs(got[law_op.name] / c_law - 1) < 1e-4, "C(1e6, 0.1) within 1e-4 of C_law")

    # ------------------------------------------------------- acceptance-suite
    suite = workloads.AcceptanceSuite(0)
    tally = one_pass(suite)
    expect(not tally.problems and tally.attempted == 27 and tally.failed == 0,
           f"acceptance-suite pass is correct, 27 sections {tally.problems}")
    report, code = tally.last[0][1]
    bad = json.loads(json.dumps(report))
    section = next(r for r in bad["experiments"] if r["name"] == "classical-exact-lam1")
    section["metrics"]["max_exact_dev"] = 2e-7
    rejects(suite.ops[0].check, (bad, code), "a section over its suite bound")
    bad = json.loads(json.dumps(report))
    level = next(r for r in bad["experiments"] if r["name"] == "level-exact-phase")
    level["metrics"]["frequency"] *= 1 + 1e-12
    rejects(suite.ops[0].check, (bad, code), "level frequency off by 1e-12")
    drift = Tally(suite.ops)
    drift.add([(True, (report, code))])
    drift.add([(True, (bad, code))])
    expect(bool(drift.problems), "rejects a report that changes between passes")

    # -------------------------------------------------------------- operators
    ops = workloads.Operators(0)
    tally = one_pass(ops)
    expect(not tally.problems, f"operators pass is correct {tally.problems}")
    expect(list(tally.failures) == ["deformation.big_f_inverse(1e+50, q(1e-09))"]
           and tally.failed == 1, f"operators fails only its probe {tally.failures}")
    got = values(ops, tally)
    op = op_named(ops, "fock.check_commutator(512, q)")
    rejects(op.check, 2e-10, "a Fock residual of 2e-10")
    op = op_named(ops, "fock.deformed_annihilation(512, q)")
    matrix = got[op.name]
    entries = matrix.entries.copy()
    entries[3, 4] *= 1 + 1e-12
    rejects(op.check, dataclasses.replace(matrix, entries=entries), "A off by 1e-12")
    op = op_named(ops, "deformation.big_f_inverse x2000")
    ys = list(got[op.name])
    ys[7] *= 1 + 1e-11
    rejects(op.check, ys, "one F^-1 off by 1e-11")
    op = op_named(ops, "deformation.big_f_inverse(1e+50")
    expect(not op.check(workloads.f_inverse_closed(1e50, 1e-9)),
           "the F^-1 probe accepts the closed-form value")
    op = op_named(ops, "coherent.build_f_coherent(id-a)")
    state = got[op.name]
    rejects(op.check, dataclasses.replace(state, coeffs=state.coeffs * (1 + 1e-11)),
            "coherent norm off by 2e-11")
    op = op_named(ops, "coherent.eigenvalue_residual(q-a)")
    rejects(op.check, 2e-9, "an eigenvalue residual of 2e-9")
    op = op_named(ops, "coherent.scalar_product(id-a")
    overlap, ca, cb = got[op.name]
    rejects(op.check, (overlap + 1e-9, ca, cb), "an identity overlap off by 1e-9")
    op = op_named(ops, "coherent.scalar_product(q-a")
    overlap, ca, cb = got[op.name]
    rejects(op.check, (overlap * (1 + 1e-9), ca, cb), "a q overlap off by 1e-9")
    op = op_named(ops, "wave.soliton_check")
    rejects(op.check, 2e-8, "a soliton shape error of 2e-8")
    op = op_named(ops, "wave.evolve(512, leapfrog)")
    field = got[op.name]
    rejects(op.check, dataclasses.replace(field, mu=field.mu * (1 + 1e-10)),
            "a leapfrog mu off by 1e-10")

    # ------------------------------------------------------------- cold-verbs
    verbs = workloads.ColdVerbs(0)
    in_process = InProcessVerbs(verbs, out_dir)
    tally = one_pass(in_process)
    expect(not tally.problems and tally.failed == 0,
           f"cold-verbs in-process pass is correct {tally.problems}")
    outputs = dict(zip((v.name for v in verbs.ops), (value for _, value in tally.last)))
    by_name = {v.name: v for v in verbs.ops}
    code, out, err, text = outputs["thermo-blueshift"]
    payload = json.loads(out)
    payload["exact"] *= 1 + 3e-7
    check = by_name["thermo-blueshift"].check
    rejects(lambda o: check(0, o, "", None), json.dumps(payload),
            "a blue shift off in the 7th digit")
    code, out, err, text = outputs["deform-table"]
    check = by_name["deform-table"].check
    lines = out.splitlines(keepends=True)
    column = lines[0].split(",").index("big_f")
    fields = lines[6].split(",")
    fields[column] = repr(float(fields[column]) * (1 + 1e-10))
    rejects(lambda o: check(0, o, "", None), "".join(lines[:6] + [",".join(fields)] + lines[7:]),
            "a deform table big_f off by 1e-10")
    rejects(lambda o: check(0, o, "", None), "".join(lines[:-1]), "a truncated deform table")
    code, out, err, text = outputs["coherent-build"]
    check = by_name["coherent-build"].check
    rejects(lambda t: check(0, "", "", t), text[: len(text) // 2], "a half-written --out file")
    cutoff = by_name["coherent-cutoff-error"]
    rejects(run.cli_check(cutoff), (0, "", "", None), "the cutoff error path exiting 0")
    rejects(run.cli_check(cutoff), (2, "", '{"error": "ParameterError"}', None),
            "the cutoff error path naming another error")
    wall, cpu, rss, result = run.run_cli(by_name["thermo-blueshift"], out_dir)
    expect(not run.check_cli(by_name["thermo-blueshift"], result) and wall > 0 and rss > 0,
           "one cold CLI child runs and checks")


if __name__ == "__main__":
    sys.exit(main())
