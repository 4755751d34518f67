"""Pseudospectral gradient-flow solver and verification toolkit for
Hamiltonian PDEs on the 2-torus.

Submodules
----------
structures    structure matrices, compatible triples, holomorphy checks
spectral      grids, derivatives, the first-order operator
hamiltonians  Hamiltonians with cut-off, residuals, Legendre transform
floer         the action, the gradient flow, switching profiles, energy diagnostics
symbol        per-frequency symbol of the linearized flow operator
runner        multistart experiments and solution counting
fields_io     file formats for fields, matrices, trajectories
cli           command-line interface
"""

__version__ = "0.1.0"

from .spectral import (
    TorusField,
    constant_field,
    derivative,
    dirac,
    field_from_modes,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
    sobolev_norm,
)
from .structures import (
    StructureTriple,
    check_regularized_pair,
    compatible_triple,
    current_check,
    holomorphic_form,
    polysymplectic_pair,
    random_regularized_pair,
    standard_structures,
)
from .hamiltonians import (
    HamiltonianSpec,
    LagrangianSpec,
    ddw_kernel_witness,
    ddw_residual,
    euler_lagrange_residual,
    grad_H,
    hamiltonian_from_config,
    hamiltonian_residual,
    hofer_norm,
    legendre_transform,
    quadratic_lagrangian,
)
from .floer import (
    BetaProfile,
    action,
    energy,
    energy_identity_check,
    flow_to_solution,
    max_principle_check,
    run_homotopy,
)
from .symbol import (
    MIN_MODE_SQ_THRESHOLD,
    minimal_N_search,
    symbol_matrix,
    symbol_report,
)
from .runner import ExperimentConfig, dedup, multistart_solve, quotient_l2_distance, verify_count

__all__ = [name for name in dir() if not name.startswith("_")]
