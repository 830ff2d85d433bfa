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

Tensor-field L1 norms use the all-ordered-pairs convention (off-diagonal
components count twice), consistent with the Frobenius identification.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import laplace, optimal_bc
from .fields import ScalarField, SymTensorField, VectorField, sym_index_pairs
from .geometry import CheckError, Domain, integrate_boundary, integrate_volume
from .sobolev_trace import TraceReport, discretization_estimate

__all__ = [
    "RigidField",
    "EkTensorDiagnostics",
    "LDBoundReport",
    "strain",
    "rigid_projection",
    "ld_norm",
    "harmonic_ek_tensor",
    "ld_bounds",
    "verify_ld_trace_inequality",
    "virtual_work_terms",
    "virtual_work_residual",
]


@dataclass(frozen=True)
class RigidField:
    """w(x) = a + b x x; b is a scalar in 2D (rotation rate) and a 3-vector in 3D."""

    a: np.ndarray
    b: np.ndarray | float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.shape == (2,):
            object.__setattr__(self, "b", float(np.asarray(self.b).reshape(())))
        elif a.shape == (3,):
            b = np.asarray(self.b, dtype=float)
            if b.shape != (3,):
                raise ValueError("3D rigid field needs a 3-vector b")
            object.__setattr__(self, "b", b)
        else:
            raise ValueError("a must be a 2- or 3-vector")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.dim == 2:
            rot = np.stack([-points[:, 1], points[:, 0]], axis=1)
            return self.a[None, :] + self.b * rot
        return self.a[None, :] + np.cross(np.broadcast_to(self.b, points.shape), points)

    def as_vector_field(self, domain: Domain) -> VectorField:
        return VectorField.from_function(domain, self.evaluate)


def strain(w: VectorField) -> SymTensorField:
    """eps(w)_ij = (d_j w_i + d_i w_j) / 2 via the stencil derivatives."""
    domain = w.domain
    derivs = {}
    for i in range(domain.dim):
        for ax in range(domain.dim):
            derivs[(i, ax)] = laplace._derivative_interior(w.components[i], ax)
    return SymTensorField(tuple(
        laplace._with_boundary(domain, 0.5 * (derivs[(i, j)] + derivs[(j, i)]))
        for (i, j) in sym_index_pairs(domain.dim)), domain.dim)


def rigid_projection(domain: Domain, w: VectorField, region: str = "interior") -> RigidField:
    """Project onto rigid fields: b = I^{-1} int (x - c) cross w, a = mean(w) - b x c.

    U is the interior (volume quadrature) or the boundary (surface
    quadrature). Moments are taken about the quadrature centroid c of U, so
    the projection is exact on rigid inputs wherever the domain sits; the
    returned field is expressed about the origin.
    """
    dim = domain.dim
    if region == "interior":
        pos = domain.interior_coords
        vals = w.interior_matrix()
        quad = lambda f: integrate_volume(domain, f)
    elif region == "boundary":
        pos = domain.boundary_pos
        vals = w.boundary_matrix()
        quad = lambda f: integrate_boundary(domain, f)
    else:
        raise ValueError(f"unknown region {region!r}")

    measure = quad(np.ones(pos.shape[0]))
    mean = np.array([quad(vals[:, i]) for i in range(dim)]) / measure
    centroid = np.array([quad(pos[:, i]) for i in range(dim)]) / measure
    pos = pos - centroid
    if dim == 2:
        inertia = quad(np.sum(pos * pos, axis=1))
        if inertia <= 1e-300:
            raise ValueError("degenerate region: singular moment of inertia")
        b = quad(pos[:, 0] * vals[:, 1] - pos[:, 1] * vals[:, 0]) / inertia
    else:
        inertia = np.zeros((3, 3))
        for i in range(3):
            for m in range(3):
                integrand = -pos[:, i] * pos[:, m]
                if i == m:
                    integrand = integrand + np.sum(pos * pos, axis=1)
                inertia[i, m] = quad(integrand)
        cross = np.cross(pos, vals)
        moments = np.array([quad(cross[:, i]) for i in range(3)])
        try:
            b = np.linalg.solve(inertia, moments)
        except np.linalg.LinAlgError as exc:
            raise ValueError("degenerate region: singular moment of inertia") from exc
    # w = mean + b x (x - c) about the centroid c, so about the origin a = mean - b x c
    a = mean - RigidField(a=np.zeros(dim), b=b).evaluate(centroid[None, :])[0]
    return RigidField(a=a, b=b)


def ld_norm(w: VectorField) -> float:
    """||w||_1 + ||eps(w)||_1 with the all-ordered-pairs tensor convention."""
    return _l1_vector(w) + _l1_tensor(strain(w))


def _l1_vector(w: VectorField) -> float:
    domain = w.domain
    return float(sum(integrate_volume(domain, np.abs(c.interior))
                     for c in w.components))


def _l1_tensor(t: SymTensorField) -> float:
    domain = t.domain
    total = 0.0
    for sf, (i, j) in zip(t.components, sym_index_pairs(t.dim)):
        weight = 1.0 if i == j else 2.0
        total += weight * integrate_volume(domain, np.abs(sf.interior))
    return float(total)


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


def harmonic_ek_tensor(domain: Domain, k: int) -> tuple[SymTensorField, EkTensorDiagnostics]:
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
    e = np.zeros(domain.dim)
    e[k] = 1.0
    compat = np.abs(np.einsum("mij,mj->mi", tensors, domain.boundary_normal)
                    - e[None, :]).max()
    if compat > 1e-12:
        raise CheckError(f"boundary tensor compatibility violated: {compat:.3e}")

    comps = []
    gap = 0.0
    for (i, j) in sym_index_pairs(domain.dim):
        interior = -laplace._normal_monomial(domain, (i, j, k)).interior
        if j == k:
            interior = interior + laplace._normal_monomial(domain, (i,)).interior
        if i == k:
            interior = interior + laplace._normal_monomial(domain, (j,)).interior
        comps.append(ScalarField(domain, interior, tensors[:, i, j]))
        laplace._check_max_principle(comps[-1])
        sup_b = np.abs(comps[-1].boundary).max()
        sup_c = max(sup_b, np.abs(comps[-1].interior).max())
        gap = max(gap, sup_c - sup_b)
    sigma = SymTensorField(tuple(comps), domain.dim)

    interior = sigma.interior_matrices()
    boundary = sigma.boundary_matrices()
    sup_entry_b = float(np.abs(boundary).max())
    sup_entry_c = max(sup_entry_b, float(np.abs(interior).max()))
    vec2_b = float(np.sqrt((boundary ** 2).sum(axis=(1, 2))).max())
    vec2_interior = np.sqrt((interior ** 2).sum(axis=(1, 2)))
    vec2_c = max(vec2_b, float(vec2_interior.max()))
    frame_inf_b = float(optimal_bc.ek_frame_inf_values(domain, k).max())

    div = laplace.tensor_divergence(sigma)
    div_b = max(laplace.sup_norm(c, "boundary") for c in div.components)
    div_c = max(laplace.sup_norm(c, "closure") for c in div.components)
    tol = 10.0 * domain.h * max(div_c, 1e-300)
    # a closure sup above the boundary sup is attained at an interior node
    if div_c - div_b > tol:
        div_interior = np.max([np.abs(c.interior) for c in div.components], axis=0)
        where = domain.interior_coords[int(div_interior.argmax())]
        raise CheckError(
            f"divergence sup {div_c:.6f} not attained on the boundary "
            f"(boundary {div_b:.6f}, tol {tol:.2e}) at {where.tolist()}")
    vec2_tol = 10.0 * domain.h * max(vec2_c, 1e-300)
    if vec2_c - vec2_b > vec2_tol:
        where = domain.interior_coords[int(vec2_interior.argmax())]
        raise CheckError(
            f"Frobenius sup {vec2_c:.6f} not attained on the boundary "
            f"(boundary {vec2_b:.6f}, tol {vec2_tol:.2e}) at {where.tolist()}")

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
        return {
            "norm": self.norm,
            "dim": self.dim,
            "h": self.h,
            "A": self.A,
            "B": self.B,
            "trace_norm_bound": self.trace_norm_bound,
            "per_k": [asdict(d) for d in self.per_k],
        }


LD_CSV_HEADER = ("kind", "dim", "h", "norm", "A", "B", "trace_norm_bound",
                 "div_sup_k0", "div_sup_k1", "div_sup_k2")


def ld_report_csv_row(report: LDBoundReport, kind: str = "") -> list:
    """Flat write_csv row of a report, for batch sweeps over domains."""
    per_k = list(report.per_k) + [None] * (3 - len(report.per_k))
    return [kind, str(report.dim), report.h, report.norm, report.A, report.B,
            report.trace_norm_bound] + ["" if d is None else d.div_sup_boundary
                                        for d in per_k]


def ld_bounds(domain: Domain, norm: str = "vec2") -> LDBoundReport:
    """A = dim * D_par and B = sum_k sup_bnd |div sigma^k| on this domain.

    The optimal boundary tensors coincide for the supported norms (all free
    frame components vanish), so B is norm-independent; A carries the norm
    through D_par.
    """
    if norm not in ("vec2", "vecInf"):
        raise ValueError(f"ld_bounds supports vec2 and vecInf, not {norm!r}")
    A = domain.dim * optimal_bc.worst_case_D(norm)
    diags = []
    B = 0.0
    for k in range(domain.dim):
        _, diag = harmonic_ek_tensor(domain, k)
        diags.append(diag)
        B += diag.div_sup_boundary
    return LDBoundReport(norm=norm, dim=domain.dim, h=domain.h,
                         A=float(A), B=float(B), per_k=tuple(diags))


def verify_ld_trace_inequality(domain: Domain, w: VectorField,
                               report: LDBoundReport) -> TraceReport:
    """Slack of sum_i int_bnd |w_i| <= A ||eps(w)||_1 + B ||w||_1."""
    lhs = float(sum(integrate_boundary(domain, np.abs(c.boundary))
                    for c in w.components))
    strain_term = report.A * _l1_tensor(strain(w))
    mass_term = report.B * _l1_vector(w)
    eps = discretization_estimate(domain.h, lhs, strain_term, mass_term)
    return TraceReport(lhs=lhs, grad_term=strain_term, mass_term=mass_term,
                       B_used=report.B, slack=strain_term + mass_term - lhs,
                       eps_disc=eps, h=domain.h)


def _virtual_work_integrands(domain: Domain, sigma: SymTensorField,
                             w: VectorField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrands of the three terms: weighted sigma_ij eps_ij (one interior row
    per component pair), boundary flux sigma_ij w_i nu_j, interior (div sigma) . w."""
    eps = strain(w)
    contraction = np.stack([
        (1.0 if i == j else 2.0) * sigma.component(i, j).interior
        * eps.component(i, j).interior
        for (i, j) in sym_index_pairs(domain.dim)])
    flux = np.einsum("mij,mi,mj->m", sigma.boundary_matrices(), w.boundary_matrix(),
                     domain.boundary_normal)
    div = laplace.tensor_divergence(sigma)
    work = np.sum(div.interior_matrix() * w.interior_matrix(), axis=1)
    return contraction, flux, work


def virtual_work_terms(domain: Domain, sigma: SymTensorField,
                       w: VectorField) -> tuple[float, float, float]:
    """(int sigma:eps(w), int_bnd sigma_ij w_i nu_j, int (div sigma) . w)."""
    contraction, flux, work = _virtual_work_integrands(domain, sigma, w)
    return (integrate_volume(domain, contraction.sum(axis=0)),
            integrate_boundary(domain, flux), integrate_volume(domain, work))


def virtual_work_residual(domain: Domain, sigma: SymTensorField,
                          w: VectorField) -> float:
    """|int sigma:eps(w) - (int_bnd sigma w . nu - int (div sigma) . w)|."""
    lhs, boundary_term, div_term = virtual_work_terms(domain, sigma, w)
    return abs(lhs - (boundary_term - div_term))


def virtual_work_scale(domain: Domain, sigma: SymTensorField,
                       w: VectorField) -> float:
    """Absolute-integrand mass of the three terms; the right yardstick for
    relative residuals when the signed integrals cancel by symmetry."""
    contraction, flux, work = _virtual_work_integrands(domain, sigma, w)
    return float(integrate_volume(domain, np.abs(contraction).sum(axis=0))
                 + integrate_boundary(domain, np.abs(flux))
                 + integrate_volume(domain, np.abs(work)))
