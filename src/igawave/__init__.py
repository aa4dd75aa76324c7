"""Spline Galerkin discretization of the linear wave equation.

Open-uniform B-spline bases on [0, 1]^d with homogeneous Dirichlet
conditions, optional boundary penalization that removes the spurious
high-frequency outliers of the standard discretization, an explicit
predictor/corrector integrator with controllable high-frequency
dissipation, and the study drivers behind the `igawave` command.
"""

from .assembly_1d import (
    BandedSymMatrix,
    Coefficient,
    alpha_of,
    assemble_load,
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    kappa_variant,
    penalized_forms,
)
from .eigen import (
    NumericalFailure,
    PowerResult,
    SpectrumResult,
    full_spectrum,
    max_eigenvalue,
    top_eigenvalue,
)
from .experiments import (
    BlowupDetected,
    Discretization1D,
    build_1d,
    convergence_space,
    convergence_time,
    free_run,
    solve_mms,
    spectrum_table,
    stability_region,
    write_csv,
)
from .integrator import (
    AlphaParams,
    DynamicState,
    IntegrationResult,
    amplification_matrix,
    critical_omega,
    initial_state,
    integrate,
    params_from_rho,
    spectral_radius,
    step,
)
from .mms_errors import (
    ManufacturedCase,
    h1_seminorm_error,
    h1_seminorm_error_2d,
    initial_coefficients,
    l2_error,
    l2_error_2d,
    manufactured_case,
    observed_rates,
)
from .quadrature import QuadratureRule, gauss_legendre, map_to_element, rule_for_degree
from .spline_basis import (
    KnotVector,
    boundary_derivative_vectors,
    eval_basis_many,
    greville_points,
    open_uniform_knots,
)
from .tensor_ops import KroneckerOperator, acceleration_map, build_tensor_operators, kron_mass_factor

__version__ = "0.1.0"
