"""The benchmark's checkers (``perfbench/workloads.py``) must reject a
perturbed qlab record, not only a perturbed number.  These are the
perturbations of the benchmark's self-test that change one field of a
record; qlab's records are NamedTuples, so each is made with ``_replace``.
"""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads() -> types.ModuleType:
    """Execute the workloads source without importing it (no bytecode is written)."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # @dataclass looks its module up
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def run_op(work, prefix, scratch):
    """Run the workload's operation named by ``prefix``; its value must pass."""
    op = next(op for op in work.ops if op.name.startswith(prefix))
    value = op.run(scratch)
    assert not op.check(value), op.name
    return op, value


def test_thermo_checker_rejects_perturbed_tables(workloads):
    thermo = workloads.ThermoScan(0)
    op, table = run_op(thermo, "thermo_table(lam=0.3, sym", {})
    for name, rel in (("c", 2e-4), ("z", 1e-11), ("mean_n", 1e-11)):
        bad = table._replace(**{name: [v * (1 + rel) for v in getattr(table, name)]})
        assert op.check(bad), name
    op, closed = run_op(thermo, "thermo_table(lam=0, num", {})
    assert op.check(closed._replace(c=[c * (1 + 1e-10) for c in closed.c]))


def test_operator_checkers_reject_perturbed_records(workloads):
    ops = workloads.Operators(0)
    scratch = {}
    op, matrix = run_op(ops, "fock.deformed_annihilation(512, q)", scratch)
    entries = matrix.entries.copy()
    entries[3, 4] *= 1 + 1e-12
    assert op.check(matrix._replace(entries=entries))
    op, state = run_op(ops, "coherent.build_f_coherent(id-a)", scratch)
    assert op.check(state._replace(coeffs=state.coeffs * (1 + 1e-11)))
    run_op(ops, "wave.make_field(512)", scratch)
    op, field = run_op(ops, "wave.evolve(512, leapfrog)", scratch)
    assert op.check(field._replace(mu=field.mu * (1 + 1e-10)))
