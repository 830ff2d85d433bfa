import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from trace_bounds import geometry as G, laplace as L
from trace_bounds.fields import ScalarField, VectorField
from trace_bounds.geometry import GeometryError


def harmonic_oracle_x(dom):
    """u = x is the exact harmonic extension of nu_x on circles and spheres."""
    u = L.solve_dirichlet(dom, dom.boundary_normal[:, 0])
    return np.abs(u.interior - dom.interior_coords[:, 0]).max()


class TestSolve:
    def test_disk_nu_x_is_x(self, disk):
        assert harmonic_oracle_x(disk) <= 5 * disk.h

    def test_ball_nu_x_is_x(self, ball):
        assert harmonic_oracle_x(ball) <= 5 * ball.h

    def test_constant_data_exact(self, disk):
        u = L.solve_dirichlet(disk, np.full(disk.n_boundary, 4.25))
        assert np.abs(u.interior - 4.25).max() < 1e-10

    def test_maximum_principle_ellipse(self, ellipse):
        # oracle: the boundary max of the data bounds the interior
        u = L.solve_dirichlet(ellipse, ellipse.boundary_normal[:, 0])
        assert np.abs(u.interior).max() <= 1.0 + 1e-8

    def test_linearity(self, disk, rng):
        g1 = rng.normal(size=disk.n_boundary)
        g2 = rng.normal(size=disk.n_boundary)
        a, b = 2.5, -1.25
        lhs = L.solve_dirichlet(disk, a * g1 + b * g2)
        rhs_int = (a * L.solve_dirichlet(disk, g1).interior
                   + b * L.solve_dirichlet(disk, g2).interior)
        assert np.abs(lhs.interior - rhs_int).max() < 1e-9

    def test_boundary_values_stored(self, disk):
        g = disk.boundary_normal[:, 1]
        u = L.solve_dirichlet(disk, g)
        np.testing.assert_array_equal(u.boundary, g)

    def test_nonfinite_data_rejected(self, disk):
        g = np.zeros(disk.n_boundary)
        g[0] = np.inf
        with pytest.raises(GeometryError):
            L.solve_dirichlet(disk, g)

    def test_grid_convergence_harmonic_cubic(self):
        # u = x^3 - 3 x y^2 is harmonic; error must drop at >= first order
        errs = []
        for h in (0.08, 0.04, 0.02):
            dom = G.build_domain(G.DomainSpec.disk(1.0, h))
            p = dom.boundary_pos
            u = L.solve_dirichlet(dom, p[:, 0]**3 - 3 * p[:, 0] * p[:, 1]**2)
            q = dom.interior_coords
            exact = q[:, 0]**3 - 3 * q[:, 0] * q[:, 1]**2
            errs.append(np.abs(u.interior - exact).max())
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_u_equals_x_error_small_at_both_levels(self, disk, disk_coarse):
        assert harmonic_oracle_x(disk_coarse) <= 5 * disk_coarse.h
        assert harmonic_oracle_x(disk) <= 5 * disk.h

    def test_solver_stats_track(self, disk):
        L.reset_solver_stats()
        L.solve_dirichlet(disk, disk.boundary_normal[:, 0])
        assert L.solver_stats["solves"] == 1
        assert L.solver_stats["max_residual"] <= L.SOLVER_TOL
        assert L.solver_stats["max_principle_violation"] <= 1e-8
        # 2D systems are factorized, not iterated
        assert L.solver_stats["iterations"] == 0


OFF_CENTRE_ELLIPSOID = "((x-0.13)/1.0)^2 + ((y+0.21)/0.8)^2 + ((z-0.07)/0.6)^2 - 1"


class TestKrylov:
    """3D systems are solved by Jacobi-preconditioned BiCGSTAB."""

    @pytest.mark.parametrize("expression", [None, OFF_CENTRE_ELLIPSOID],
                             ids=["ball", "off_centre_ellipsoid"])
    def test_normal_monomials_match_splu(self, expression, ball):
        dom = ball if expression is None else G.build_domain(
            G.DomainSpec.levelset(expression, 0.1, dim=3))
        op = L._operator(dom)
        oracle = spla.splu(op.neg_laplacian.tocsc())
        monomials = [(a,) for a in range(3)] + list(
            itertools.combinations_with_replacement(range(3), 3))
        L.reset_solver_stats()
        for axes in monomials:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g)
            rhs = op.boundary_coupling @ g
            expect = oracle.solve(rhs)
            assert np.abs(u.interior - expect).max() <= 1e-12 * np.abs(expect).max()
            scale = max(np.abs(rhs).max(), np.abs(u.interior).max())
            residual = np.abs(op.neg_laplacian @ u.interior - rhs).max()
            assert residual <= L.SOLVER_TOL * scale
        assert L.solver_stats["solves"] == 13
        assert L.solver_stats["max_residual"] <= L.SOLVER_TOL
        assert L.solver_stats["max_principle_violation"] <= 1e-8
        assert L.solver_stats["iterations"] >= 13

    def test_scale_invariant(self, ball):
        # SciPy's breakdown tests are absolute; tiny data must still converge
        g = np.prod(ball.boundary_normal, axis=1)
        u = L.solve_dirichlet(ball, g).interior
        for factor in (1e-12, 1e12):
            scaled = L.solve_dirichlet(ball, factor * g).interior / factor
            assert np.abs(scaled - u).max() <= 1e-12 * np.abs(u).max()

    @pytest.mark.parametrize("info, message", [
        (417, "did not converge in 417 iterations"), (-10, "broke down")])
    def test_failure_is_named(self, ball, monkeypatch, info, message):
        monkeypatch.setattr(L.spla, "bicgstab",
                            lambda A, b, **kwargs: (np.zeros_like(b), info))
        solves = L.solver_stats["solves"]
        with pytest.raises(L.SolverError, match=message) as err:
            L.solve_dirichlet(ball, ball.boundary_normal[:, 0])
        assert err.value.residual > L.SOLVER_TOL
        assert L.solver_stats["solves"] == solves


class TestMaxPrinciple:
    def test_violation_beyond_tolerance_reported(self, disk_coarse):
        g = disk_coarse.boundary_normal[:, 0]
        data = g[disk_coarse.boundary_is_axis]
        lo, hi, scale = data.min(), data.max(), np.abs(data).max()
        n = disk_coarse.n_interior
        saved = dict(L.solver_stats)
        try:
            for inside in (0.5 * (lo + hi), lo, hi, hi + 0.5e-8 * scale,
                           lo - 0.5e-8 * scale):
                field = ScalarField(disk_coarse, np.full(n, inside), g)
                assert L._check_max_principle(field) <= 1e-8
            for outside in (hi + 2e-8 * scale, lo - 2e-8 * scale):
                field = ScalarField(disk_coarse, np.full(n, outside), g)
                with pytest.raises(L.SolverError):
                    L._check_max_principle(field)
        finally:
            L.solver_stats.update(saved)


class TestOperators:
    def test_gradient_linear(self, disk):
        f = ScalarField.from_function(disk, lambda p: p[:, 0])
        g = L.gradient(f)
        assert np.abs(g.components[0].interior - 1.0).max() < 1e-10
        assert np.abs(g.components[1].interior).max() < 1e-10

    def test_gradient_quadratic(self, disk):
        f = ScalarField.from_function(disk, lambda p: p[:, 0]**2 + p[:, 1]**2)
        g = L.gradient(f)
        err0 = np.abs(g.components[0].interior - 2 * disk.interior_coords[:, 0]).max()
        err1 = np.abs(g.components[1].interior - 2 * disk.interior_coords[:, 1]).max()
        assert max(err0, err1) <= 5 * disk.h

    def test_gradient_of_harmonic_solution(self, disk):
        u = L.solve_dirichlet(disk, disk.boundary_normal[:, 0])
        g = L.gradient(u)
        assert np.abs(g.components[0].interior - 1.0).max() <= 10 * disk.h
        assert np.abs(g.components[1].interior).max() <= 10 * disk.h

    def test_divergence_identity_field(self, disk):
        w = VectorField.from_function(disk, lambda p: p.copy())
        div = L.divergence(w)
        assert np.abs(div.interior - 2.0).max() <= 5 * disk.h

    def test_divergence_rotation_free(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.stack([p[:, 1], -p[:, 0]], axis=1))
        div = L.divergence(w)
        assert np.abs(div.interior).max() <= 5 * disk.h

    def test_divergence_harmonic_normal_ball(self, ball):
        comps = tuple(L.solve_dirichlet(ball, ball.boundary_normal[:, j])
                      for j in range(3))
        div = L.divergence(VectorField(comps))
        assert np.abs(div.interior - 3.0).max() <= 10 * ball.h
        assert np.abs(div.boundary - 3.0).max() <= 10 * ball.h

    def test_laplacian_quadratic_exact(self, disk):
        f = ScalarField.from_function(disk, lambda p: p[:, 0]**2 + p[:, 1]**2)
        lap = L.laplacian(f)
        assert np.abs(lap - 4.0).max() < 1e-6

    def test_subharmonicity_of_normal_magnitude(self, disk, ellipse):
        # |n0|^2 has nonnegative discrete Laplacian for harmonic n0
        for dom in (disk, ellipse):
            comps = tuple(L.solve_dirichlet(dom, dom.boundary_normal[:, j])
                          for j in range(2))
            n0 = VectorField(comps)
            mag2_i = n0.euclidean_norm_interior() ** 2
            mag2_b = np.sum(n0.boundary_matrix() ** 2, axis=1)
            lap = L.laplacian(ScalarField(dom, mag2_i, mag2_b))
            assert lap.min() >= -1e-6 * max(1.0, np.abs(lap).max())


class TestSupNorm:
    def test_linear_field(self, disk):
        f = ScalarField.from_function(disk, lambda p: p[:, 0])
        assert abs(L.sup_norm(f, "closure") - 1.0) <= disk.h

    def test_constant_exact(self, disk):
        f = ScalarField.constant(disk, -2.5)
        assert L.sup_norm(f, "closure") == 2.5
        assert L.sup_norm(f, "interior") == 2.5
        assert L.sup_norm(f, "boundary") == 2.5

    def test_divergence_sup_attained_on_boundary(self, ellipse):
        comps = tuple(L.solve_dirichlet(ellipse, ellipse.boundary_normal[:, j])
                      for j in range(2))
        div = L.divergence(VectorField(comps))
        sup_cl = L.sup_norm(div, "closure")
        sup_bnd = L.sup_norm(div, "boundary")
        assert sup_cl - sup_bnd <= 10 * ellipse.h * sup_cl

    def test_bad_region(self, disk):
        f = ScalarField.constant(disk, 1.0)
        with pytest.raises(ValueError):
            L.sup_norm(f, "everywhere")
