"""Trace-inequality constants for Sobolev and integrable-strain fields,
computed on concrete domains via harmonic extensions of boundary data."""

__version__ = "0.1.0"

from .geometry import (
    CheckError,
    Domain,
    DomainSpec,
    Field,
    GeometryError,
    build_domain,
    integrate_boundary,
    integrate_volume,
)
from .laplace import (
    SolverError,
    divergence,
    gradient,
    solve_dirichlet,
)
from .matnorm import (
    NormEquivalenceError,
    verify_equivalence_constants,
)
from .optimal_bc import (
    brute_force_optimal,
    optimal_stress,
    worst_case_D,
)
from .sobolev_trace import (
    NormalField,
    TraceReport,
    harmonic_normal_field,
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
    "NormEquivalenceError",
    "verify_equivalence_constants",
    "optimal_stress",
    "brute_force_optimal",
    "worst_case_D",
    "NormalField",
    "TraceReport",
    "harmonic_normal_field",
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
