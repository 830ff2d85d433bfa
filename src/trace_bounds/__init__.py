"""Trace-inequality constants for Sobolev and integrable-strain fields,
computed on concrete domains via harmonic extensions of boundary data."""

__version__ = "0.1.0"

from .geometry import (
    CheckError,
    Domain,
    DomainSpec,
    GeometryError,
    build_domain,
    integrate_boundary,
    integrate_volume,
)
from .fields import ScalarField, SymTensorField, VectorField
from .laplace import (
    SolverError,
    divergence,
    gradient,
    laplacian,
    solve_dirichlet,
    sup_norm,
)
from .matnorm import (
    NORM_KINDS,
    NormEquivalenceError,
    eigenvalues,
    norm,
    verify_equivalence_constants,
)
from .optimal_bc import (
    OptimalBC,
    TractionProblem,
    brute_force_optimal,
    ek_boundary_tensor,
    optimal_stress,
    optimal_stress_ek,
    worst_case_D,
)
from .sobolev_trace import (
    NormalField,
    TraceReport,
    harmonic_normal_field,
    isoperimetric_lower_bound,
    sobolev_B,
    verify_trace_inequality,
)
from .ld_trace import (
    LDBoundReport,
    RigidField,
    harmonic_ek_tensor,
    ld_bounds,
    ld_norm,
    rigid_projection,
    strain,
    verify_ld_trace_inequality,
    virtual_work_residual,
)
from .config import RunConfig, load_config, parse_config
from .cli import export_plot_data, main, run_config

__all__ = [
    "Domain",
    "DomainSpec",
    "GeometryError",
    "CheckError",
    "build_domain",
    "integrate_boundary",
    "integrate_volume",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "SolverError",
    "solve_dirichlet",
    "gradient",
    "divergence",
    "laplacian",
    "sup_norm",
    "NORM_KINDS",
    "NormEquivalenceError",
    "eigenvalues",
    "norm",
    "verify_equivalence_constants",
    "TractionProblem",
    "OptimalBC",
    "optimal_stress",
    "optimal_stress_ek",
    "brute_force_optimal",
    "worst_case_D",
    "ek_boundary_tensor",
    "NormalField",
    "TraceReport",
    "harmonic_normal_field",
    "sobolev_B",
    "isoperimetric_lower_bound",
    "verify_trace_inequality",
    "RigidField",
    "LDBoundReport",
    "strain",
    "rigid_projection",
    "ld_norm",
    "harmonic_ek_tensor",
    "ld_bounds",
    "verify_ld_trace_inequality",
    "virtual_work_residual",
    "RunConfig",
    "parse_config",
    "load_config",
    "run_config",
    "export_plot_data",
    "main",
]
