"""Rigid fields, the 2D rigid projection and the virtual-work integrals,
computed from what the pipeline computes with: the volume and boundary
quadratures, and the strain and divergence at the interior nodes."""

import numpy as np

from trace_bounds import laplace as L, ld_trace as LD
from trace_bounds.fields import Field
from trace_bounds.geometry import integrate_boundary, integrate_volume


def rigid_field(domain, a, b):
    """w(x) = a + b x x: b is a rotation rate in 2D and a 3-vector in 3D."""
    a = np.asarray(a, dtype=float)
    if domain.dim == 2:
        return Field.from_function(
            domain, lambda p: a + b * np.stack([-p[:, 1], p[:, 0]], axis=1))
    return Field.from_function(domain, lambda p: a + np.cross(b, p))


def rigid_projection_2d(domain, w):
    """(a, b) of the rigid field a + b (-y, x) nearest to w in L2 over the
    interior nodes: with moments about the quadrature centroid c,
    b = int (x - c) x w / int |x - c|^2 and a = mean(w) - b (-c_y, c_x)."""
    quad = lambda f: integrate_volume(domain, f)
    x = domain.interior_coords
    measure = quad(np.ones(len(x)))
    mean = quad(w.interior) / measure
    c = quad(x) / measure
    x = x - c
    b = (quad(x[:, 0] * w.interior[:, 1] - x[:, 1] * w.interior[:, 0])
         / quad(np.sum(x * x, axis=1)))
    return mean - b * np.array([-c[1], c[0]]), b


def virtual_work(domain, sigma, w):
    """The terms (int sigma:eps(w), int_bnd sigma_ij w_i nu_j, int (div sigma) . w)
    and the absolute mass of their integrands: the yardstick for a relative
    residual when the signed integrals cancel by symmetry."""
    i, j = np.triu_indices(domain.dim)
    eps = LD._strain(w)
    contraction = np.where(i == j, 1.0, 2.0) * sigma.interior[:, i, j] * eps[:, i, j]
    flux = np.einsum("mij,mi,mj->m", sigma.boundary, w.boundary, domain.boundary_normal)
    work = np.sum(L._divergence(sigma) * w.interior, axis=1)
    terms = (integrate_volume(domain, contraction.sum(axis=1)),
             integrate_boundary(domain, flux), integrate_volume(domain, work))
    scale = (integrate_volume(domain, np.abs(contraction).sum(axis=1))
             + integrate_boundary(domain, np.abs(flux)) + integrate_volume(domain, np.abs(work)))
    return terms, scale


def virtual_work_residual(terms):
    """|int sigma:eps(w) - (int_bnd sigma_ij w_i nu_j - int (div sigma) . w)|."""
    lhs, boundary_term, div_term = terms
    return abs(lhs - (boundary_term - div_term))
