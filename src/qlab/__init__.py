"""Numerical laboratory for f-deformed oscillators.

Truncated Fock-space operator algebra, exact classical nonlinear dynamics,
a deformed wave equation, a one-level nonlinear Schrödinger equation,
deformed coherent states, and single-oscillator thermodynamics — with a
CLI harness (``qlab``) wrapping every operation.

The public names resolve on first use (PEP 562), so ``import qlab`` loads
no submodule and no third-party package; ``qlab.q_number`` imports
``qlab.deformation`` when it is first read, ``qlab.thermo`` the thermo
module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classical": ("ClassicalState", "Trajectory", "approx_momentum",
                  "deform_amplitude", "exact_alpha", "exact_alpha_deformed",
                  "integrate_eom", "momentum_from_velocity", "omega_q",
                  "poisson_bracket_check"),
    "coherent": ("FCoherentState", "build_f_coherent", "eigenvalue_residual",
                 "f_from_coefficients", "scalar_product"),
    "deformation": ("DeformationSpec", "big_f", "big_f_inverse", "custom", "f_of_n",
                    "identity", "lambda_over_sinh", "load_f_table", "phi_of_z",
                    "q_deform", "q_number"),
    "errors": ("CutoffError", "ParameterError", "QlabError", "SaturationError",
               "SolverError"),
    "fock": ("FockMatrix", "FockState", "QuadratureResult", "check_commutator",
             "check_reordering", "deformed_annihilation", "evolution_residual",
             "heisenberg_residual", "linearoid_roundtrip", "quadrature_uncertainty",
             "spectrum_check"),
    "level": ("LevelEvolution", "evolve_one_level",
              "phase_space_to_psi", "psi_to_phase_space"),
    "thermo": ("PlanckCheckReport", "ThermoTable", "blue_shift", "bose_einstein",
               "deformed_planck_approx", "energy_levels", "mean_occupation",
               "partition_function", "planck_coefficient_check", "specific_heat",
               "thermo_table"),
    "wave": ("WaveField", "energy", "evolve", "fourier_modes", "make_field",
             "soliton_check", "solve_mu", "spectral_shift", "traveling_field"),
}

# public name -> the submodule that defines it; a submodule names itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f".{module}", __name__)
    return found if name == module else getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__})
