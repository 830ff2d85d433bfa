"""Harmonic normal fields and the scalar trace inequality.

The outward unit normal extends into the domain componentwise: component j
of the unique harmonic normal field n0 is the memoized normal-monomial
extension H[nu_j] of the laplace module, solved once per domain and shared
with the e_k stresses of ld_trace. The trace constant is the boundary sup of
the divergence of n0:

    int_bnd |phi|  <=  int |grad phi|  +  B * int |phi|,
    B = sup_bnd |div n0|.

The divergence of n0 is itself harmonic, so its closure sup is attained on
the boundary; both sups are computed and compared. The continuum quotient
|bnd| / |Omega| bounds B from below, tight on balls but not in general
(a narrow neck forces |div n0| ~ 1/width across the neck). The discrete
quotient is no bound for the discrete B: on spheres it exceeds B by about
0.7 (h/r)^2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import laplace
from .fields import ScalarField, VectorField
from .geometry import CheckError, Domain, integrate_boundary, integrate_volume

__all__ = [
    "NormalField",
    "NormalFieldError",
    "TraceReport",
    "harmonic_normal_field",
    "sobolev_B",
    "isoperimetric_lower_bound",
    "verify_trace_inequality",
    "divergence_identity_check",
    "discretization_estimate",
]

# first-order quadrature error model eps = C * h * (sum of integral magnitudes);
# C calibrated once on the unit-disk oracle battery and frozen
EPS_DISC_COEFF = 1.0


class NormalFieldError(CheckError):
    pass


@dataclass(frozen=True)
class NormalField:
    """Harmonic extension of the outward normal with its divergence data."""

    field: VectorField
    divergence: ScalarField
    sup_div_boundary: float
    sup_div_closure: float

    @property
    def domain(self) -> Domain:
        return self.field.domain


def harmonic_normal_field(domain: Domain) -> NormalField:
    """Assemble n0 from the harmonic extensions H[nu_j] and validate Def.-style
    normal-field conditions: boundary values equal nu, |n0| <= 1 (+5h) on the
    closure, and the divergence attains its closure sup on the boundary."""
    comps = tuple(laplace._normal_monomial(domain, (j,)) for j in range(domain.dim))
    n0 = VectorField(comps)

    bnd_err = np.abs(n0.boundary_matrix() - domain.boundary_normal).max()
    if bnd_err > 1e-9:
        raise NormalFieldError(
            f"normal field boundary condition violated by {bnd_err:.3e}")

    magnitude = n0.euclidean_norm_interior()
    limit = 1.0 + 5.0 * domain.h
    if magnitude.size and magnitude.max() > limit:
        where = domain.interior_coords[int(magnitude.argmax())]
        raise NormalFieldError(
            f"|n0| = {magnitude.max():.6f} exceeds {limit:.6f} at {where.tolist()}")

    div = laplace.divergence(n0)
    sup_bnd = laplace.sup_norm(div, "boundary")
    sup_cl = laplace.sup_norm(div, "closure")
    tol = 10.0 * domain.h * max(sup_cl, 1e-300)
    if sup_cl - sup_bnd > tol:
        raise NormalFieldError(
            f"divergence sup {sup_cl:.6f} not attained on boundary "
            f"(boundary sup {sup_bnd:.6f}, tolerance {tol:.2e})")
    return NormalField(field=n0, divergence=div,
                       sup_div_boundary=sup_bnd, sup_div_closure=sup_cl)


def sobolev_B(domain: Domain, normal_field: NormalField | None = None) -> float:
    """Trace constant B = sup over the boundary of |div n0|."""
    nf = normal_field if normal_field is not None else harmonic_normal_field(domain)
    return nf.sup_div_boundary


def isoperimetric_lower_bound(domain: Domain) -> float:
    """Discrete |boundary| / |volume|. The continuum quotient bounds B from
    below; this one exceeds the discrete B by about 0.7 (h/r)^2 on spheres."""
    return domain.area / domain.volume


@dataclass(frozen=True)
class TraceReport:
    """One trace-inequality evaluation: lhs, the two rhs terms, and slack."""

    lhs: float
    grad_term: float
    mass_term: float
    B_used: float
    slack: float
    eps_disc: float
    h: float

    @property
    def rhs(self) -> float:
        return self.grad_term + self.mass_term

    def as_dict(self) -> dict:
        return asdict(self)


def discretization_estimate(h: float, *magnitudes: float) -> float:
    """First-order error budget for boundary quadrature, C*h*(sum of magnitudes)."""
    return EPS_DISC_COEFF * h * sum(abs(m) for m in magnitudes)


def verify_trace_inequality(domain: Domain, phi: ScalarField,
                            B: float | None = None) -> TraceReport:
    """Evaluate the three integrals and the slack for one scalar field."""
    if B is None:
        B = sobolev_B(domain)
    lhs = integrate_boundary(domain, np.abs(phi.boundary))
    grad = laplace.gradient(phi)
    grad_mag = np.linalg.norm(grad.interior_matrix(), axis=1)
    grad_term = integrate_volume(domain, grad_mag)
    mass_term = B * integrate_volume(domain, np.abs(phi.interior))
    eps = discretization_estimate(domain.h, lhs, grad_term, mass_term)
    return TraceReport(lhs=lhs, grad_term=grad_term, mass_term=mass_term,
                       B_used=B, slack=grad_term + mass_term - lhs,
                       eps_disc=eps, h=domain.h)


def divergence_identity_check(domain: Domain, n: VectorField,
                              psi: ScalarField) -> float:
    """|int_bnd psi  -  int n . grad psi  -  int (div n) psi| for a normal field n."""
    bnd_err = np.abs(n.boundary_matrix() - domain.boundary_normal).max()
    if bnd_err > 1e-6:
        raise NormalFieldError(
            f"field is not a normal field on the boundary (err {bnd_err:.3e})")
    lhs = integrate_boundary(domain, psi.boundary)
    grad_psi = laplace.gradient(psi)
    transport = integrate_volume(
        domain,
        np.sum(n.interior_matrix() * grad_psi.interior_matrix(), axis=1))
    compression = integrate_volume(
        domain, laplace.divergence(n).interior * psi.interior)
    return abs(lhs - transport - compression)
