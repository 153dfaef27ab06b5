"""The package namespace: `qlab.<name>` resolves on first use to the object
its defining submodule holds, and the public list is the one it always was."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qlab

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    'ClassicalState', 'CutoffError', 'DeformationSpec', 'FCoherentState', 'FockMatrix',
    'FockState', 'LevelEvolution', 'ParameterError', 'PlanckCheckReport', 'QlabError',
    'QuadratureResult', 'SaturationError', 'SolverError', 'ThermoTable', 'Trajectory',
    'WaveField', 'approx_momentum', 'big_f', 'big_f_inverse', 'blue_shift',
    'bose_einstein', 'build_f_coherent', 'check_commutator', 'check_reordering',
    'classical', 'coherent', 'custom', 'deform_amplitude', 'deformation',
    'deformed_annihilation', 'deformed_planck_approx', 'eigenvalue_residual', 'energy',
    'energy_levels', 'errors', 'evolution_residual', 'evolve', 'evolve_one_level',
    'exact_alpha', 'exact_alpha_deformed', 'f_from_coefficients', 'f_of_n', 'fock',
    'fourier_modes', 'heisenberg_residual', 'identity', 'integrate_eom',
    'lambda_over_sinh', 'level', 'linearoid_roundtrip', 'load_f_table', 'make_field',
    'mean_occupation', 'momentum_from_velocity', 'omega_q', 'partition_function',
    'phase_space_to_psi', 'phi_of_z', 'planck_coefficient_check',
    'poisson_bracket_check', 'psi_to_phase_space', 'q_deform', 'q_number',
    'quadrature_uncertainty', 'scalar_product', 'soliton_check', 'solve_mu',
    'specific_heat', 'spectral_shift', 'spectrum_check', 'thermo', 'thermo_table',
    'traveling_field', 'wave',
]
SUBMODULES = ("classical", "coherent", "deformation", "errors", "fock", "level",
              "thermo", "wave")


def test_public_list_is_unchanged():
    assert qlab.__all__ == PUBLIC


def test_every_public_name_is_its_submodules_object():
    for name in PUBLIC:
        obj = getattr(qlab, name)
        if name in SUBMODULES:
            assert obj is importlib.import_module(f"qlab.{name}"), name
        else:
            home = importlib.import_module(obj.__module__)
            assert home.__name__ in {f"qlab.{m}" for m in SUBMODULES}, name
            assert getattr(home, name) is obj, name


def test_star_import_and_dir():
    namespace = {}
    exec("from qlab import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    assert set(PUBLIC) <= set(dir(qlab))
    assert "__version__" in dir(qlab)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qlab.no_such_name  # noqa: B018
    assert not hasattr(qlab, "_EXPORTS_typo")
    with pytest.raises(ImportError):
        exec("from qlab import no_such_name", {})


def test_submodule_attribute_resolves_after_a_bare_import():
    """`qlab.fock.check_commutator` works with only `import qlab` done, and
    reading one name loads only the module that defines it."""
    code = ("import sys, qlab\n"
            "assert 'qlab.fock' not in sys.modules\n"
            "from qlab import deformation\n"
            "residual = qlab.fock.check_commutator(8, deformation.q_deform(0.3))\n"
            "assert residual < 1e-12, residual\n"
            "assert isinstance(qlab.fock, type(sys))\n"
            "qlab.blue_shift\n"
            "print(sorted(m for m in sys.modules if m.startswith('qlab.')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ("['qlab.deformation', 'qlab.errors', 'qlab.fock', "
                           "'qlab.thermo']")


def test_names_follow_a_rebound_submodule_attribute(monkeypatch):
    """The package holds no copies: a function rebound on its submodule (as
    a profiler wrapping qlab's functions does) is what `qlab.<name>` gives."""
    from qlab import thermo

    def wrapped(n, lam):
        return (0.0, 0.0)

    monkeypatch.setattr(thermo, "blue_shift", wrapped)
    assert qlab.blue_shift is wrapped
    monkeypatch.undo()
    assert qlab.blue_shift is thermo.blue_shift
    assert isinstance(qlab.thermo, types.ModuleType)


def test_no_submodule_loads_dataclasses():
    """Every record is a NamedTuple: importing every qlab module, the CLI
    and the experiment runners included, loads no `dataclasses`."""
    code = ("import sys\n"
            f"for name in {[*SUBMODULES, 'experiments', 'cli']!r}:\n"
            "    __import__('qlab.' + name)\n"
            "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
