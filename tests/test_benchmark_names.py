"""The benchmark's tracer finds its work counters by function name
(``perfbench/tracer.py``: ``COUNTED``, plus ``thermo.log_partition`` read by
the worker).  A rename or a refactor that hides one of these names would
silently zero a per-layer metric, so this checks that every such name is
still a public qlab function the tracer can wrap, and that the RK4 results
still carry the time grid their step counts are read from.
"""

import importlib
import inspect
import types
from pathlib import Path

from qlab import classical, level

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """Execute the tracer source without importing it (no bytecode is written)."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_counted_names_are_public_qlab_functions():
    tracer = load_tracer()
    for name in sorted(tracer.COUNTED | {"thermo.log_partition"}):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        fn = getattr(importlib.import_module(f"qlab.{layer}"), attr, None)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"qlab.{layer}" and not attr.startswith("_"), name


def test_rk4_step_counts_read_off_results():
    tracer = load_tracer()
    traj = classical.integrate_eom(classical.ClassicalState(1.0, 0.0, 0.5), 0.1, 1e-2)
    evo = level.evolve_one_level(1.0 + 0j, 0.5, 0.1, 1e-2)
    assert tracer._counts("classical.integrate_eom", (), traj, 0.0) == (
        ("classical.rk4_steps", 10),)
    assert tracer._counts("level.evolve_one_level", (), evo, 0.0) == (
        ("level.rk4_steps", 10),)
