"""Numerical laboratory for f-deformed oscillators.

Truncated Fock-space operator algebra, exact classical nonlinear dynamics,
a deformed wave equation, a one-level nonlinear Schrödinger equation,
deformed coherent states, and single-oscillator thermodynamics — with a
CLI harness (``qlab``) wrapping every operation.
"""

from .classical import (
    ClassicalState,
    Trajectory,
    approx_momentum,
    deform_amplitude,
    exact_alpha,
    exact_alpha_deformed,
    exact_q,
    hamiltonian_q,
    integrate_eom,
    momentum_from_velocity,
    omega_q,
    poisson_bracket_check,
)
from .coherent import (
    FCoherentState,
    as_fock_state,
    build_f_coherent,
    eigenvalue_residual,
    f_from_coefficients,
    scalar_product,
)
from .deformation import (
    DeformationSpec,
    big_f,
    big_f_inverse,
    commutator_function,
    custom,
    f_factorial,
    f_of_n,
    identity,
    lambda_over_sinh,
    load_f_table,
    phi_of_z,
    q_deform,
    q_number,
)
from .errors import (
    CutoffError,
    ParameterError,
    QlabError,
    SaturationError,
    SolverError,
)
from .fock import (
    FockMatrix,
    FockState,
    QuadratureResult,
    annihilation,
    check_commutator,
    check_reordering,
    dagger,
    deformed_annihilation,
    evolution_residual,
    hamiltonian,
    heisenberg_residual,
    linearoid_roundtrip,
    quadrature_uncertainty,
    spectrum_check,
)
from .level import (
    LevelEvolution,
    LevelState,
    evolve_one_level,
    phase_space_to_psi,
    psi_to_phase_space,
)
from .thermo import (
    PlanckCheckReport,
    ThermoTable,
    blue_shift,
    bose_einstein,
    deformed_planck_approx,
    energy_levels,
    mean_occupation,
    partition_function,
    planck_coefficient_check,
    specific_heat,
    thermo_table,
)
from .wave import (
    WaveField,
    energy,
    evolve,
    fourier_modes,
    make_field,
    solve_mu,
    soliton_check,
    spectral_shift,
    traveling_field,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
