import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from trace_bounds import geometry as G, laplace as L, ld_trace as LD
from trace_bounds.fields import ScalarField, SymTensorField, VectorField, sym_index_pairs
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

    def test_solver_stats_track(self):
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.02))
        L.solve_dirichlet(dom, dom.boundary_normal[:, 0])
        stats = L.solver_stats(dom)
        assert stats["solves"] == 1
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        # 2D systems are factorized, not iterated
        assert stats["iterations"] == 0


OFF_CENTRE_ELLIPSOID = "((x-0.13)/1.0)^2 + ((y+0.21)/0.8)^2 + ((z-0.07)/0.6)^2 - 1"


class TestKrylov:
    """3D systems are solved by Jacobi-preconditioned BiCGSTAB."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.ball(1.0, 0.1),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSOID, 0.1, dim=3),
    ], ids=["ball", "off_centre_ellipsoid"])
    def test_normal_monomials_match_splu(self, spec):
        dom = G.build_domain(spec)
        op = L._operator(dom)
        oracle = spla.splu(op.neg_laplacian.tocsc())
        monomials = [(a,) for a in range(3)] + list(
            itertools.combinations_with_replacement(range(3), 3))
        for axes in monomials:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g)
            rhs = op.boundary_coupling @ g
            expect = oracle.solve(rhs)
            assert np.abs(u.interior - expect).max() <= 1e-12 * np.abs(expect).max()
            scale = max(np.abs(rhs).max(), np.abs(u.interior).max())
            residual = np.abs(op.neg_laplacian @ u.interior - rhs).max()
            assert residual <= L.SOLVER_TOL * scale
        stats = L.solver_stats(dom)
        assert stats["solves"] == 13
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        assert stats["iterations"] >= 13

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
        before = L.solver_stats(ball)
        with pytest.raises(L.SolverError, match=message) as err:
            L.solve_dirichlet(ball, ball.boundary_normal[:, 0])
        assert err.value.residual > L.SOLVER_TOL
        assert L.solver_stats(ball) == before


OFF_CENTRE_ELLIPSE = "((x-0.13)/1.1)^2 + ((y+0.21)/0.7)^2 - 1"
# the node (0.5, 0) lies 1e-10 = 5e-9*h inside this circle at h = 0.02
TINY_ARM_RADIUS = 0.5000000001


class TestDirect:
    """2D systems are factorized once, with a symmetric ordering and diagonal
    pivots; the solutions must match a default (COLAMD, partial pivoting)
    factorization to round-off."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.disk(1.0, 0.02),
        G.DomainSpec.annulus(0.5, 1.0, 0.02),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSE, 0.02),
        G.DomainSpec.disk(TINY_ARM_RADIUS, 0.02),
    ], ids=["disk", "annulus", "off_centre_ellipse", "tiny_arm_disk"])
    def test_normal_monomials_match_splu(self, spec):
        dom = G.build_domain(spec)
        if spec.radius == TINY_ARM_RADIUS:
            assert min(arm.min() for arm in dom.arm_length) < 1e-8 * dom.h
        op = L._operator(dom)
        pattern = (op.neg_laplacian != 0).astype(int)
        assert (pattern != pattern.T).nnz == 0
        assert np.array_equal(op.lu.perm_r, op.lu.perm_c)
        oracle = spla.splu(op.neg_laplacian)
        # the minimum-degree ordering of A^T + A: 0.56-0.62 of COLAMD's fill
        fill = op.lu.L.nnz + op.lu.U.nnz
        assert fill <= 0.7 * (oracle.L.nnz + oracle.U.nnz)
        monomials = [(a,) for a in range(2)] + list(
            itertools.combinations_with_replacement(range(2), 3))
        for axes in monomials:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g).interior
            expect = oracle.solve(op.boundary_coupling @ g)
            assert np.abs(u - expect).max() <= 1e-12 * np.abs(u).max()
        stats = L.solver_stats(dom)
        assert stats["solves"] == 6
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        assert stats["iterations"] == 0

    def test_failure_is_named(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(L.spla, "splu", singular)
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        with pytest.raises(L.SolverError, match="sparse factorization failed"):
            L.solve_dirichlet(dom, dom.boundary_normal[:, 0])


class TestMaxPrinciple:
    def test_violation_beyond_tolerance_reported(self):
        # a fresh domain: the violations below are recorded in its solve record
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.04))
        g = dom.boundary_normal[:, 0]
        data = g[dom.boundary_is_axis]
        lo, hi, scale = data.min(), data.max(), np.abs(data).max()
        n = dom.n_interior
        for inside in (0.5 * (lo + hi), lo, hi, hi + 0.5e-8 * scale,
                       lo - 0.5e-8 * scale):
            field = ScalarField(dom, np.full(n, inside), g)
            assert L._check_max_principle(field) <= 1e-8
        for outside in (hi + 2e-8 * scale, lo - 2e-8 * scale):
            field = ScalarField(dom, np.full(n, outside), g)
            with pytest.raises(L.SolverError):
                L._check_max_principle(field)
        assert L.solver_stats(dom)["max_principle_violation"] > 1e-8


class TestSolveRecord:
    """Each domain's operator holds the record of the solves on that domain."""

    def test_domains_do_not_share_records(self):
        one = G.build_domain(G.DomainSpec.disk(1.0, 0.04))
        two = G.build_domain(G.DomainSpec.disk(1.0, 0.04))
        L.solve_dirichlet(one, one.boundary_normal[:, 0])
        before = L.solver_stats(one)
        for j in range(2):
            L.solve_dirichlet(two, two.boundary_normal[:, j])
        assert L.solver_stats(one) == before
        assert L.solver_stats(two)["solves"] == 2
        assert L.solver_stats(one, two)["solves"] == 3

    def test_merge(self):
        assert L.solver_stats() == {"solves": 0, "iterations": 0,
                                    "max_residual": 0.0,
                                    "max_principle_violation": 0.0}
        assert [type(v) for v in L.solver_stats().values()] == [int, int, float, float]
        unsolved = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        assert L.solver_stats(unsolved) == L.solver_stats()
        disk = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        ball = G.build_domain(G.DomainSpec.ball(1.0, 0.2))
        for dom in (disk, ball):
            L.solve_dirichlet(dom, dom.boundary_normal[:, 0])
        merged = L.solver_stats(disk, ball, unsolved)
        parts = [L.solver_stats(disk), L.solver_stats(ball)]
        for key in ("solves", "iterations"):
            assert merged[key] == sum(p[key] for p in parts)
        for key in ("max_residual", "max_principle_violation"):
            assert merged[key] == max(p[key] for p in parts)
        assert merged["iterations"] > 0


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


NECK_EXPR = ("min(min((x-1.1)^2+y^2-1,(x+1.1)^2+y^2-1),"
             "max(x^2-1.21,y^2-0.015625))")


@pytest.fixture(scope="module")
def neck():
    return G.build_domain(G.DomainSpec.levelset(NECK_EXPR, 0.025, 2, (-2.3, 2.3)))


@pytest.fixture(scope="module")
def off_centre_disk():
    return G.build_domain(G.DomainSpec.levelset("(x-0.13)^2+(y+0.07)^2-0.81", 0.05))


@pytest.fixture(scope="module")
def off_centre_ellipsoid():
    # has boundary nodes whose nearest interior node lacks an interior
    # neighbour on some axis: their extrapolation rows are empty
    return G.build_domain(G.DomainSpec.levelset(OFF_CENTRE_ELLIPSOID, 0.1, dim=3))


def _arm_values(field, direction):
    """Oracle: field value at the far end of each stencil arm, gathered."""
    dom = field.domain
    nb_int, nb_bnd = dom.arm_interior[direction], dom.arm_boundary[direction]
    out = np.empty(dom.n_interior)
    m = nb_int >= 0
    out[m] = field.interior[nb_int[m]]
    out[~m] = field.boundary[nb_bnd[~m]]
    return out


def _derivative_interior(field, axis):
    """Oracle: the non-uniform 3-point derivative evaluated on gathered arms."""
    hp = field.domain.arm_length[2 * axis]
    hm = field.domain.arm_length[2 * axis + 1]
    vp, vm = _arm_values(field, 2 * axis), _arm_values(field, 2 * axis + 1)
    return (hm ** 2 * vp - hp ** 2 * vm + (hp ** 2 - hm ** 2) * field.interior) \
        / (hp * hm * (hp + hm))


def _interior_only_gradient(dom, values):
    """Oracle: (N, dim) central or one-sided differences over interior neighbours."""
    grad = np.zeros((dom.n_interior, dom.dim))
    for ax in range(dom.dim):
        ip, im = dom.arm_interior[2 * ax], dom.arm_interior[2 * ax + 1]
        has_p, has_m = ip >= 0, im >= 0
        vp = np.where(has_p, values[np.where(has_p, ip, 0)], 0.0)
        vm = np.where(has_m, values[np.where(has_m, im, 0)], 0.0)
        both = has_p & has_m
        grad[both, ax] = (vp[both] - vm[both]) / (2 * dom.h)
        only_p = has_p & ~has_m
        grad[only_p, ax] = (vp[only_p] - values[only_p]) / dom.h
        only_m = has_m & ~has_p
        grad[only_m, ax] = (values[only_m] - vm[only_m]) / dom.h
    return grad


def _extrapolate(dom, values):
    grad = _interior_only_gradient(dom, values)
    near = dom.boundary_nearest
    offset = dom.boundary_pos - dom.interior_coords[near]
    return values[near] + np.sum(grad[near] * offset, axis=1)


def _with_boundary(dom, values):
    return ScalarField(dom, values, _extrapolate(dom, values))


def _sum_derivatives(fields_and_axes, n):
    vals = np.zeros(n)
    for f, ax in fields_and_axes:
        vals += _derivative_interior(f, ax)
    return vals


def _assert_fields_equal(got, expect):
    for g, e in zip(got, expect, strict=True):
        assert np.array_equal(g.interior, e.interior)
        assert np.array_equal(g.boundary, e.boundary)


STENCIL_DOMAINS = ["disk", "ball", "annulus", "neck", "off_centre_ellipsoid"]


class TestStencils:
    """The memoized sparse stencils reproduce the gathered-arm formulas bit for bit."""

    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_match_gather_oracle(self, name, request):
        dom = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        n, dim = dom.n_interior, dom.dim
        rand = lambda: ScalarField(dom, rng.normal(size=n),
                                   rng.normal(size=dom.n_boundary))
        f = rand()
        w = VectorField(tuple(rand() for _ in range(dim)))
        sigma = SymTensorField(tuple(rand() for _ in sym_index_pairs(dim)), dim)
        values = rng.normal(size=n)
        assert np.array_equal(L.extrapolate_to_boundary(dom, values),
                              _extrapolate(dom, values))
        _assert_fields_equal(L.gradient(f).components, [
            _with_boundary(dom, _derivative_interior(f, ax)) for ax in range(dim)])
        _assert_fields_equal([L.divergence(w)], [_with_boundary(dom, _sum_derivatives(
            [(w.components[ax], ax) for ax in range(dim)], n))])
        _assert_fields_equal(L.tensor_divergence(sigma).components, [
            _with_boundary(dom, _sum_derivatives(
                [(sigma.component(i, j), j) for j in range(dim)], n))
            for i in range(dim)])
        _assert_fields_equal(LD.strain(w).components, [
            _with_boundary(dom, 0.5 * (_derivative_interior(w.components[i], j)
                                       + _derivative_interior(w.components[j], i)))
            for i, j in sym_index_pairs(dim)])
        stencils = L._operator(dom)._stencils
        assert stencils is not None
        L.divergence(w)
        assert L._operator(dom)._stencils is stencils

    def test_built_lazily(self):
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        u = L.solve_dirichlet(dom, dom.boundary_normal[:, 0])
        op = L._operator(dom)
        assert op._stencils is None
        L.gradient(u)
        assert op._stencils is not None
        assert list(dom._cache) == ["laplace_operator"]

    @pytest.mark.parametrize("name", ["off_centre_disk", "ball", "off_centre_ellipsoid",
                                      "neck", "annulus"])
    def test_exact_on_linear_data(self, name, request):
        """Linear data are differentiated and extrapolated exactly, boundary included."""
        dom = request.getfixturevalue(name)
        dim = dom.dim
        rng = np.random.default_rng(5)
        c = rng.normal(size=dim)
        A = rng.normal(size=(dim, dim))
        S = rng.normal(size=(dim, dim))
        S = S + S.T
        linear = lambda p: p @ c + 0.3

        def assert_const(field, value):
            for part in (field.interior, field.boundary):
                assert np.abs(part - value).max() <= 1e-10

        grad = L.gradient(ScalarField.from_function(dom, linear))
        for ax, comp in enumerate(grad.components):
            assert_const(comp, c[ax])
        w = VectorField.from_function(dom, lambda p: p @ A.T)
        assert_const(L.divergence(w), np.trace(A))
        for (i, j), comp in zip(sym_index_pairs(dim), LD.strain(w).components):
            assert_const(comp, 0.5 * (A[i, j] + A[j, i]))
        sigma = SymTensorField(tuple(
            ScalarField.from_function(dom, lambda p, i=i, j=j: S[i, j] * linear(p) + i)
            for i, j in sym_index_pairs(dim)), dim)
        for i, comp in enumerate(L.tensor_divergence(sigma).components):
            assert_const(comp, S[i] @ c)


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
