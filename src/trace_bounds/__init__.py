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
from .fields import Field
from .laplace import (
    SolverError,
    divergence,
    gradient,
    solve_dirichlet,
)
from .matnorm import (
    NORM_KINDS,
    NormEquivalenceError,
    verify_equivalence_constants,
)
from .optimal_bc import (
    OptimalBC,
    TractionProblem,
    brute_force_optimal,
    ek_boundary_tensor,
    optimal_stress,
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
    harmonic_ek_tensor,
    ld_bounds,
    verify_ld_trace_inequality,
)
from .config import RunConfig, load_config, parse_config
from .cli import main, run_config

__all__ = [
    "Domain",
    "DomainSpec",
    "GeometryError",
    "CheckError",
    "build_domain",
    "integrate_boundary",
    "integrate_volume",
    "Field",
    "SolverError",
    "solve_dirichlet",
    "gradient",
    "divergence",
    "NORM_KINDS",
    "NormEquivalenceError",
    "verify_equivalence_constants",
    "TractionProblem",
    "OptimalBC",
    "optimal_stress",
    "brute_force_optimal",
    "worst_case_D",
    "ek_boundary_tensor",
    "NormalField",
    "TraceReport",
    "harmonic_normal_field",
    "sobolev_B",
    "isoperimetric_lower_bound",
    "verify_trace_inequality",
    "LDBoundReport",
    "harmonic_ek_tensor",
    "ld_bounds",
    "verify_ld_trace_inequality",
    "RunConfig",
    "parse_config",
    "load_config",
    "run_config",
    "main",
]
