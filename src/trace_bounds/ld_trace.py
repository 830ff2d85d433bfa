"""Integrable-strain machinery and the vector trace bounds.

For a vector field w, the stretching eps(w) is the symmetric part of its
gradient; rigid fields a + b x x span its kernel. The boundary trace obeys

    sum_i int_bnd |w_i|  <=  A * ||eps(w)||_1  +  B * ||w||_1,

with A = dim * D_par (the worst-case optimal boundary stress value) and
B = sum_k sup_bnd |div sigma^k|, where sigma^k is the harmonic extension of
the optimal e_k boundary tensor. Vector sup-norms of divergences are taken
componentwise (max_i sup |(div sigma)_i|), matching the estimate they enter.

Harmonic extension H is linear and sigma^k = -nu_k nu (x) nu + nu (x) e_k +
e_k (x) nu, so each component combines the normal-monomial extensions that
the laplace module memoizes once per domain:
H[sigma^k_ij] = -H[nu_i nu_j nu_k] + delta_jk H[nu_i] + delta_ik H[nu_j].

Vectors and tensors are fields.Field values shaped (dim,) and (dim, dim); a
symmetric tensor (sigma^k, eps(w)) is stored as its full matrix. eps(w)
(``_strain``) is the laplace module's stencil derivatives of all components
at once, symmetrized at the interior nodes; the trace inequality
(sobolev_trace's ``trace_slack``) integrates only those, so nothing
extrapolates eps(w) to the boundary.

Tensor-field L1 norms use the all-ordered-pairs convention (off-diagonal
components count twice), consistent with the Frobenius identification.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import laplace, optimal_bc
from .fields import Field
from .geometry import CheckError, Domain, integrate_volume
from .sobolev_trace import TraceReport, ordered_sum, trace_slack

__all__ = [
    "EkTensorDiagnostics",
    "LDBoundReport",
    "harmonic_ek_tensor",
    "ld_bounds",
    "verify_ld_trace_inequality",
]


def _strain(w: Field) -> np.ndarray:
    """eps(w)_ij = (d_j w_i + d_i w_j) / 2 at the interior nodes, (N, dim, dim),
    via the stencil derivatives."""
    eps = laplace._derivatives(w)
    eps += eps.swapaxes(1, 2)   # NumPy reads overlapping operands as copies
    eps *= 0.5
    return eps


def _l1_tensor(domain: Domain, interior: np.ndarray) -> float:
    """L1 norm of (N, dim, dim) symmetric interior values: the (i, j), i <= j
    entries in that order, off-diagonal ones doubled."""
    i, j = np.triu_indices(domain.dim)
    integrals = integrate_volume(domain, np.abs(interior))[i, j]
    return ordered_sum(np.where(i == j, 1.0, 2.0) * integrals)


# ---------------------------------------------------------------------------
# harmonic e_k tensors and the bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EkTensorDiagnostics:
    """Attainment data for one harmonic e_k tensor field."""

    k: int
    compat_error: float              # max |sigma(nu) - e_k| over boundary nodes
    sup_entry_boundary: float        # std-basis entrywise sup of the data
    sup_entry_closure: float         # std-basis entrywise sup of the solution
    sup_vec2_boundary: float         # Frobenius sup of the data (= sqrt(2-nu_k^2) max)
    sup_vec2_closure: float
    sup_frame_inf_boundary: float    # frame-relative entrywise sup (= D_inf witness)
    div_sup_boundary: float          # max_i sup_bnd |(div sigma)_i|
    div_sup_closure: float
    max_principle_gap: float         # max over components of closure sup - boundary sup


def _ek_entries(dim: int, k: int):
    """Each upper-triangle entry (i, j) of sigma^k with the normal monomials it
    combines, -H[nu_i nu_j nu_k] + delta_jk H[nu_i] + delta_ik H[nu_j], in the
    order they are added."""
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        yield i, j, [(i, j, k)] + [(i,)] * (j == k) + [(j,)] * (i == k)


def monomial_order(dim: int) -> list[tuple[int, ...]]:
    """The normal monomials ``ld_bounds`` reads, in the order it reads them:
    every one of the ``dim``-dimensional basis."""
    return [axes for k in range(dim) for *_, monomials in _ek_entries(dim, k)
            for axes in monomials]


def harmonic_ek_tensor(domain: Domain, k: int) -> tuple[Field, EkTensorDiagnostics]:
    """Harmonic extension of the optimal e_k boundary tensor, assembled from the
    memoized normal-monomial extensions with the exact tensor as boundary values.

    Checks the attainment structure, raising CheckError (SolverError for the
    maximum principle): boundary compatibility, the componentwise maximum
    principle (so no interior entry exceeds its boundary data), the
    Frobenius chain sup|sigma|_2 = sup|T|_2, and the divergence maximum
    principle; an attainment failure names the interior node where the sup
    is reached. The frame-relative entrywise sup of the data witnesses
    D_inf; the std-basis entrywise sup is larger in general (up to ~1.0887
    on a sphere) and is reported as a diagnostic.
    """
    tensors = optimal_bc.ek_boundary_tensor(domain, k)
    e = np.eye(domain.dim)[k]
    compat = np.abs(np.einsum("mij,mj->mi", tensors, domain.boundary_normal)
                    - e[None, :]).max()
    if compat > 1e-12:
        raise CheckError(f"boundary tensor compatibility violated: {compat:.3e}")

    interior = np.empty((domain.n_interior, domain.dim, domain.dim))
    gap = 0.0
    for i, j, (cubic, *linear) in _ek_entries(domain.dim, k):
        entry = -laplace._normal_monomial(domain, cubic).interior
        for axes in linear:
            entry = entry + laplace._normal_monomial(domain, axes).interior
        interior[:, i, j] = interior[:, j, i] = entry
        sup_b = np.abs(tensors[:, i, j]).max()
        gap = max(gap, max(sup_b, np.abs(entry).max()) - sup_b)
    sigma = Field(domain, interior, tensors)
    laplace._check_max_principle(sigma)

    sup_entry_b = float(np.abs(tensors).max())
    sup_entry_c = max(sup_entry_b, float(np.abs(interior).max()))
    frame_inf_b = float(optimal_bc.ek_frame_inf_values(domain, k).max())

    # max over the entries of each node, taken across the columns: NumPy's max
    # along a short last axis runs ~10x slower
    div = laplace.tensor_divergence(sigma)
    div_b, div_c = laplace.check_sup_on_boundary(
        "divergence", domain, functools.reduce(np.maximum, np.abs(div.interior).T),
        functools.reduce(np.maximum, np.abs(div.boundary).T))
    vec2_b, vec2_c = laplace.check_sup_on_boundary(
        "Frobenius", domain, np.sqrt((interior ** 2).sum(axis=(1, 2))),
        np.sqrt((tensors ** 2).sum(axis=(1, 2))))

    diag = EkTensorDiagnostics(
        k=k, compat_error=float(compat),
        sup_entry_boundary=sup_entry_b, sup_entry_closure=sup_entry_c,
        sup_vec2_boundary=vec2_b, sup_vec2_closure=vec2_c,
        sup_frame_inf_boundary=frame_inf_b,
        div_sup_boundary=float(div_b), div_sup_closure=float(div_c),
        max_principle_gap=float(gap),
    )
    return sigma, diag


@dataclass(frozen=True)
class LDBoundReport:
    """Computed constants for the vector trace inequality, plus diagnostics."""

    norm: str
    dim: int
    h: float
    A: float
    B: float
    per_k: tuple[EkTensorDiagnostics, ...]

    @property
    def trace_norm_bound(self) -> float:
        return max(self.A, self.B)

    def as_dict(self) -> dict:
        return {**asdict(self), "trace_norm_bound": self.trace_norm_bound}


LD_CSV_HEADER = ("kind", "dim", "h", "norm", "A", "B", "trace_norm_bound",
                 "div_sup_k0", "div_sup_k1", "div_sup_k2")


def ld_report_csv_row(level: dict, kind: str) -> list:
    """Flat write_csv row of a report's ``as_dict()``, for batch sweeps over
    domains."""
    sups = [d["div_sup_boundary"] for d in level["per_k"]]
    return ([kind, str(level["dim"])] + [level[key] for key in LD_CSV_HEADER[2:7]]
            + sups + [""] * (3 - len(sups)))


def ld_bounds(domain: Domain, norm: str = "vec2") -> LDBoundReport:
    """A = dim * D_par and B = sum_k sup_bnd |div sigma^k| on this domain.

    The optimal boundary tensors coincide for the norms with a worst case D
    (all free frame components vanish), so B is norm-independent; A carries
    the norm through D_par, and optimal_bc.worst_case_D rejects any other norm.
    """
    A = domain.dim * optimal_bc.worst_case_D(norm)
    diags = tuple(harmonic_ek_tensor(domain, k)[1] for k in range(domain.dim))
    B = ordered_sum([d.div_sup_boundary for d in diags])
    return LDBoundReport(norm=norm, dim=domain.dim, h=domain.h,
                         A=float(A), B=B, per_k=diags)


def verify_ld_trace_inequality(domain: Domain, w: Field,
                               report: LDBoundReport) -> TraceReport:
    """Slack of sum_i int_bnd |w_i| <= A ||eps(w)||_1 + B ||w||_1, with eps(w)
    at the interior nodes only."""
    return trace_slack(domain, w, report.A * _l1_tensor(domain, _strain(w)), report.B)

