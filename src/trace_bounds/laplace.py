"""Embedded-boundary Laplace solver and difference operators.

Dirichlet problems are discretized with Shortley-Weller stencils: stencil
arms that would leave the domain are clipped at the level-set zero crossing
and read the boundary value there. The resulting system is an M-matrix, so
the discrete maximum principle holds; every solve verifies it, along with
the algebraic residual, and records both in its domain's solve record.

The matrix depends only on the geometry and is assembled once per domain,
in the format its backend uses. 2D systems are solved by a sparse direct
factorization, computed on the first solve and reused by every later one.
The matrix is structurally symmetric and an M-matrix, so it is factored in
symmetric mode: a minimum-degree ordering of A^T + A applied to rows and
columns alike, with diagonal pivots only, which is stable for M-matrices
(Fiedler & Ptak 1962) and has about half the fill of a COLAMD ordering
with partial pivoting. 3D systems are solved by BiCGSTAB (van der Vorst
1992) with a Jacobi (inverse-diagonal) preconditioner: LU fill grows much
faster in 3D, and measured over the resolutions the tool runs, the Krylov
solve wins at every 3D size and the factorization at every 2D size.
Residuals are verified against the 1e-10 relative tolerance after every
solve, whichever backend produced it; Krylov iterations are counted in the
solve record too.

Every harmonic object the trace bounds need is a linear combination of
harmonic extensions of monomials in the outward normal: H[nu_a] (the normal
field) and H[nu_a nu_b nu_c] (the optimal e_k stresses). Each such extension
is solved once per domain and memoized on the operator, as are the per-axis
sparse difference stencils that every gradient, divergence and boundary
extrapolation is a product with.

One ``_Operator`` per domain, the only entry of ``Domain._cache``, holds
everything this module derives for that domain: the matrix, the lazy
factorization or preconditioner, the extensions, the stencils and the solve
record (solves, Krylov iterations, worst residual, worst maximum-principle
margin). ``solver_stats(*domains)`` merges the records of the given domains,
so a run reports exactly the solves on its own domains.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import ScalarField, SymTensorField, VectorField
from .geometry import Domain, GeometryError

__all__ = [
    "SolverError",
    "solve_dirichlet",
    "gradient",
    "divergence",
    "tensor_divergence",
    "laplacian",
    "sup_norm",
    "extrapolate_to_boundary",
    "solver_stats",
]

SOLVER_TOL = 1e-10
# slack for the discrete maximum principle check (algebraic, not O(h))
_MAX_PRINCIPLE_TOL = 1e-8

# BiCGSTAB stopping tolerance, relative to |rhs|. At 1e-13 the assembled
# sigma^k on an ellipsoid differ from direct solves by 1.2e-11, more than the
# 1e-12 round-off bound the LD tests hold them to; at 1e-15 they agree, and
# the true residuals stay near 3e-15, far inside SOLVER_TOL.
KRYLOV_RTOL = 1e-15


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class _Operator:
    """Shortley-Weller discretization bound to one domain, with everything
    derived from it and the record of the solves made with it."""

    def __init__(self, domain: Domain):
        self.domain = domain
        n = domain.n_interior
        dim = domain.dim
        rows, cols, vals = [], [], []
        brows, bcols, bvals = [], [], []
        diag = np.zeros(n)
        idx = np.arange(n)
        for ax in range(dim):
            hp = domain.arm_length[2 * ax]
            hm = domain.arm_length[2 * ax + 1]
            cp = 2.0 / (hp * (hp + hm))
            cm = 2.0 / (hm * (hp + hm))
            diag += 2.0 / (hp * hm)
            for d, coeff in ((2 * ax, cp), (2 * ax + 1, cm)):
                nb_int = domain.arm_interior[d]
                nb_bnd = domain.arm_boundary[d]
                m = nb_int >= 0
                rows.append(idx[m])
                cols.append(nb_int[m])
                vals.append(-coeff[m])
                m = nb_bnd >= 0
                brows.append(idx[m])
                bcols.append(nb_bnd[m])
                bvals.append(coeff[m])
        rows.append(idx)
        cols.append(idx)
        vals.append(diag)
        # CSC feeds splu; CSR is the faster layout for the Krylov matvecs
        krylov = dim == 3
        matrix = sp.csr_matrix if krylov else sp.csc_matrix
        self.neg_laplacian = matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))
        self.boundary_coupling = sp.csc_matrix(
            (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
            shape=(n, domain.n_boundary))
        self._jacobi = sp.diags(1.0 / diag) if krylov else None
        self._lu = None
        self._stencils = None
        self.monomials: dict[tuple[int, ...], ScalarField] = {}
        self.record = {"solves": 0, "iterations": 0, "max_residual": 0.0,
                       "max_principle_violation": 0.0}

    @property
    def lu(self):
        # Each interior arm pairs with its reverse arm, so the pattern is
        # symmetric, and an M-matrix factors stably with diagonal pivots in
        # any symmetric order (Fiedler & Ptak 1962): minimum degree on
        # A^T + A for rows and columns alike, no row pivoting. That halves
        # the fill of the default COLAMD ordering with partial pivoting.
        if self._lu is None:
            try:
                self._lu = spla.splu(self.neg_laplacian, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        return self._lu

    def _residual(self, u: np.ndarray, rhs: np.ndarray) -> float:
        scale = max(np.abs(rhs).max(), np.abs(u).max(), 1e-300)
        return np.abs(self.neg_laplacian @ u - rhs).max() / scale

    def _bicgstab(self, rhs: np.ndarray) -> np.ndarray:
        # SciPy's breakdown tests are absolute (eps^2), so solve for data
        # scaled to unit norm; a power of two keeps the rescaling exact
        exponent = np.frexp(np.linalg.norm(rhs))[1]
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        u, info = spla.bicgstab(self.neg_laplacian, np.ldexp(rhs, -exponent),
                                rtol=KRYLOV_RTOL, atol=0.0, M=self._jacobi,
                                callback=count)
        u = np.ldexp(u, exponent)
        if info != 0:
            residual = self._residual(u, rhs)
            reason = (f"did not converge in {info} iterations" if info > 0 else
                      f"broke down (info {info}) after {iterations} iterations")
            raise SolverError(f"BiCGSTAB {reason}, residual {residual:.3e}",
                              residual=residual)
        self.record["iterations"] += iterations
        return u

    def apply_laplacian(self, field: ScalarField) -> np.ndarray:
        """Discrete Laplacian at interior nodes, using the field's boundary values."""
        return (self.boundary_coupling @ field.boundary
                - self.neg_laplacian @ field.interior)

    def solve(self, boundary_values: np.ndarray) -> ScalarField:
        domain = self.domain
        g = np.asarray(boundary_values, dtype=float)
        if g.shape != (domain.n_boundary,):
            raise GeometryError(
                f"expected {domain.n_boundary} boundary values, got {g.shape}")
        if not np.isfinite(g).all():
            raise GeometryError("boundary data contains non-finite values")
        rhs = self.boundary_coupling @ g
        u = self.lu.solve(rhs) if self._jacobi is None else self._bicgstab(rhs)
        residual = self._residual(u, rhs)
        if not np.isfinite(u).all() or residual > SOLVER_TOL:
            raise SolverError(
                f"linear solve residual {residual:.3e} exceeds {SOLVER_TOL:.0e}",
                residual=residual)
        self.record["solves"] += 1
        self.record["max_residual"] = max(self.record["max_residual"], residual)
        field = ScalarField(domain, u, g)
        _check_max_principle(field)
        return field


def _check_max_principle(field: ScalarField) -> float:
    """Relative amount by which interior values leave the data range at the axis
    crossings (the Dirichlet constraint points); recorded in the field's domain
    record, and fatal above tolerance."""
    u = field.interior
    constrained = field.boundary[field.domain.boundary_is_axis]
    gscale = max(np.abs(constrained).max(), 1e-300) if constrained.size else 1e-300
    violation = 0.0
    if u.size and constrained.size:
        violation = max(u.max() - constrained.max(), constrained.min() - u.min())
        violation = max(0.0, violation / gscale)
    record = _operator(field.domain).record
    record["max_principle_violation"] = max(record["max_principle_violation"],
                                            violation)
    if violation > _MAX_PRINCIPLE_TOL:
        raise SolverError(
            f"discrete maximum principle violated by {violation:.3e}")
    return violation


def _operator(domain: Domain) -> _Operator:
    op = domain._cache.get("laplace_operator")
    if op is None:
        op = _Operator(domain)
        domain._cache["laplace_operator"] = op
    return op


def solver_stats(*domains: Domain) -> dict:
    """The solve records of the given domains merged: solve and iteration counts
    summed, worst residual and maximum-principle margin maxed. A domain never
    solved on contributes nothing; with no domains every entry is zero."""
    records = [d._cache["laplace_operator"].record for d in domains
               if "laplace_operator" in d._cache]
    return {"solves": sum(r["solves"] for r in records),
            "iterations": sum(r["iterations"] for r in records),
            "max_residual": max((r["max_residual"] for r in records), default=0.0),
            "max_principle_violation": max(
                (r["max_principle_violation"] for r in records), default=0.0)}


def solve_dirichlet(domain: Domain, boundary_values) -> ScalarField:
    """Solve lap(u)=0 with u = boundary_values on the boundary nodes."""
    return _operator(domain).solve(np.asarray(boundary_values, dtype=float))


def _normal_monomial(domain: Domain, axes: tuple[int, ...]) -> ScalarField:
    """Harmonic extension H[nu_a nu_b ...] of a product of normal components,
    memoized per domain under the sorted axis tuple: one solve per monomial."""
    key = tuple(sorted(axes))
    memo = _operator(domain).monomials
    if key not in memo:
        values = np.prod(domain.boundary_normal[:, list(key)], axis=1)
        memo[key] = solve_dirichlet(domain, values)
    return memo[key]


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def _stencils(domain: Domain) -> list[tuple]:
    """Every stencil arm resolved once per domain, on the first difference
    operator call. Per axis, a tuple of: the derivative as an (N, N+M) CSR
    matrix over the interior then the boundary values; its denominators
    hp*hm*(hp+hm); the interior-only gradient at each boundary node's nearest
    interior node as an (M, N) CSR matrix; its divisors (2h central, h
    one-sided); and the offsets from those nodes to the boundary. Each row
    lists its terms in the order the difference formulas add them, so the
    products are bit-identical to evaluating the formulas term by term."""
    op = _operator(domain)
    if op._stencils is None:
        n, h, near = domain.n_interior, domain.h, domain.boundary_nearest
        offset = domain.boundary_pos - domain.interior_coords[near]
        stencils = []
        for ax in range(domain.dim):
            hp, hm = domain.arm_length[2 * ax], domain.arm_length[2 * ax + 1]
            ip, im = domain.arm_interior[2 * ax], domain.arm_interior[2 * ax + 1]
            bp, bm = domain.arm_boundary[2 * ax], domain.arm_boundary[2 * ax + 1]
            # an arm ends at an interior node, or at boundary node b in column n + b
            cols = np.stack([np.where(ip >= 0, ip, n + bp), np.where(im >= 0, im, n + bm),
                             np.arange(n)], axis=1)
            derivative = sp.csr_matrix(
                (np.stack([hm ** 2, -hp ** 2, hp ** 2 - hm ** 2], axis=1).ravel(),
                 cols.ravel(), np.arange(0, 3 * n + 1, 3)),
                shape=(n, n + domain.n_boundary))
            # +1/-1 rows give vp - vm, vp - v or v - vm; empty without a neighbour
            has_p, has_m = ip[near] >= 0, im[near] >= 0
            cols = np.stack([np.where(has_p, ip[near], near),
                             np.where(has_m, im[near], near)], axis=1)
            rows = has_p | has_m
            grad = sp.csr_matrix(
                (np.tile([1.0, -1.0], int(rows.sum())), cols[rows].ravel(),
                 np.concatenate([[0], np.cumsum(2 * rows)])),
                shape=(domain.n_boundary, n))
            stencils.append((derivative, hp * hm * (hp + hm), grad,
                             np.where(has_p & has_m, 2 * h, h), offset[:, ax]))
        op._stencils = stencils
    return op._stencils


def _derivative_interior(field: ScalarField, axis: int) -> np.ndarray:
    """Second-order non-uniform 3-point first derivative along one axis."""
    derivative, denominator, *_ = _stencils(field.domain)[axis]
    return derivative @ np.concatenate([field.interior, field.boundary]) / denominator


def extrapolate_to_boundary(domain: Domain, interior_values: np.ndarray) -> np.ndarray:
    """Linear extrapolation of an interior nodal field onto the boundary nodes.

    Each boundary node takes the value at its nearest interior node plus a
    first-order correction from that node's interior-only gradient: the
    outward continuation used to evaluate derived quantities (divergences)
    on the boundary itself.
    """
    interior_values = np.asarray(interior_values, dtype=float)
    correction = np.column_stack([grad @ interior_values / divisor * offset
                                  for _, _, grad, divisor, offset in _stencils(domain)])
    return interior_values[domain.boundary_nearest] + np.sum(correction, axis=1)


def _with_boundary(domain: Domain, interior_values: np.ndarray) -> ScalarField:
    """Interior values plus their extrapolation onto the boundary nodes."""
    return ScalarField(domain, interior_values,
                       extrapolate_to_boundary(domain, interior_values))


def gradient(field: ScalarField) -> VectorField:
    """Componentwise first derivatives; boundary values linearly extrapolated."""
    return VectorField(tuple(_with_boundary(field.domain, _derivative_interior(field, ax))
                             for ax in range(field.domain.dim)))


def divergence(field: VectorField) -> ScalarField:
    """Sum of the componentwise derivatives d(component_i)/dx_i."""
    return _with_boundary(field.domain, sum(
        _derivative_interior(c, ax) for ax, c in enumerate(field.components)))


def tensor_divergence(field: SymTensorField) -> VectorField:
    """Row divergence (div sigma)_i = d sigma_ij / dx_j of a symmetric tensor."""
    return VectorField(tuple(
        _with_boundary(field.domain, sum(_derivative_interior(field.component(i, j), j)
                                         for j in range(field.dim)))
        for i in range(field.dim)))


def laplacian(field: ScalarField) -> np.ndarray:
    """Discrete Shortley-Weller Laplacian at the interior nodes."""
    return _operator(field.domain).apply_laplacian(field)


def sup_norm(field: ScalarField, region: str = "closure") -> float:
    """Max of |values| over the requested node set."""
    if region == "interior":
        values = field.interior
    elif region == "boundary":
        values = field.boundary
    elif region == "closure":
        values = np.concatenate([field.interior, field.boundary])
    else:
        raise ValueError(f"unknown region {region!r}")
    if values.size == 0:
        raise ValueError(f"region {region!r} is empty")
    return float(np.abs(values).max())
