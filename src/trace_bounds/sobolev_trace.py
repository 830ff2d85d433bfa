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

``trace_slack`` evaluates both trace inequalities, this one and ld_trace's,
given a derivative term that each integrates from interior derivatives only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laplace
from .geometry import CheckError, Domain, Field, integrate_boundary, integrate_volume

__all__ = [
    "NormalField",
    "NormalFieldError",
    "TraceReport",
    "harmonic_normal_field",
    "verify_trace_inequality",
    "ordered_sum",
    "trace_slack",
]


class NormalFieldError(CheckError):
    pass


@dataclass(frozen=True)
class NormalField:
    """Harmonic extension of the outward normal with its divergence data."""

    field: Field
    divergence: Field
    sup_div_boundary: float
    sup_div_closure: float


def harmonic_normal_field(domain: Domain) -> NormalField:
    """Assemble n0 from the harmonic extensions H[nu_j] and validate Def.-style
    normal-field conditions: boundary values equal nu, |n0| <= 1 (+5h) on the
    closure, and the divergence attains its closure sup on the boundary."""
    comps = [laplace._normal_monomial(domain, (j,)) for j in range(domain.dim)]
    n0 = Field(domain, np.stack([c.interior for c in comps], axis=1),
               np.stack([c.boundary for c in comps], axis=1))

    bnd_err = np.abs(n0.boundary - domain.boundary_normal).max()
    if bnd_err > 1e-9:
        raise NormalFieldError(
            f"normal field boundary condition violated by {bnd_err:.3e}")

    magnitude = np.sqrt(sum(c * c for c in n0.interior.T))
    limit = 1.0 + 5.0 * domain.h
    if magnitude.size and magnitude.max() > limit:
        where = domain.interior_coords[int(magnitude.argmax())]
        raise NormalFieldError(
            f"|n0| = {magnitude.max():.6f} exceeds {limit:.6f} at {where.tolist()}")

    div = laplace.divergence(n0)
    sup_bnd, sup_cl = laplace.check_sup_on_boundary(
        "divergence", domain, np.abs(div.interior), np.abs(div.boundary),
        NormalFieldError)
    return NormalField(field=n0, divergence=div,
                       sup_div_boundary=sup_bnd, sup_div_closure=sup_cl)


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


def ordered_sum(values) -> float:
    """The values added one by one in order (sum() of floats compensates from 3.12)."""
    return float(np.cumsum(values)[-1])


def trace_slack(domain: Domain, f: Field, derivative_term: float, B: float) -> TraceReport:
    """sum_i int_bnd |f_i| <= derivative_term + B sum_i int |f_i| evaluated over the
    entries f_i of a scalar or vector field."""
    lhs = ordered_sum(integrate_boundary(domain, np.abs(f.boundary)))
    mass_term = B * ordered_sum(integrate_volume(domain, np.abs(f.interior)))
    # first-order quadrature error model h * (sum of the term magnitudes), its
    # coefficient 1 calibrated once on the unit-disk oracle battery and frozen
    eps = domain.h * (abs(lhs) + abs(derivative_term) + abs(mass_term))
    return TraceReport(lhs=lhs, grad_term=derivative_term, mass_term=mass_term,
                       B_used=B, slack=derivative_term + mass_term - lhs,
                       eps_disc=eps, h=domain.h)


def verify_trace_inequality(domain: Domain, phi: Field, B: float) -> TraceReport:
    """Slack of int_bnd |phi| <= int |grad phi| + B int |phi| for one scalar field,
    with the gradient at the interior nodes only."""
    grad = laplace._derivatives(phi)
    grad_term = integrate_volume(domain, np.sqrt(sum(c * c for c in grad.T)))
    return trace_slack(domain, phi, grad_term, B)

