import dataclasses
import itertools
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from trace_bounds import geometry as G, laplace as L, ld_trace as LD
from trace_bounds import sobolev_trace as S
from trace_bounds.geometry import Field, GeometryError


def laplacian(field):
    """The Shortley-Weller Laplacian at the interior nodes with the field's
    boundary values: the operator every solve inverts."""
    op = L._operator(field.domain)
    return op.boundary_coupling @ field.boundary - op.apply(field.interior)


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
    """3D systems are solved by BiCGSTAB preconditioned with an aggregation
    multigrid V-cycle."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.ball(1.0, 0.1),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSOID, 0.1, dim=3),
    ], ids=["ball", "off_centre_ellipsoid"])
    def test_normal_monomials_match_splu(self, spec):
        dom = G.build_domain(spec)
        op = L._operator(dom)
        full = _assemble(dom)[0]
        oracle = spla.splu(full.tocsc())
        monomials = [(a,) for a in range(3)] + list(
            itertools.combinations_with_replacement(range(3), 3))
        for axes in monomials:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g)
            rhs = op.boundary_coupling @ g
            expect = oracle.solve(rhs)
            assert np.abs(u.interior - expect).max() <= 1e-12 * np.abs(expect).max()
            scale = max(np.abs(rhs).max(), np.abs(u.interior).max())
            residual = np.abs(full @ u.interior - rhs).max()
            assert residual <= L.SOLVER_TOL * scale
        stats = L.solver_stats(dom)
        assert stats["solves"] == 13
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        assert stats["iterations"] >= 13

    def test_iterations_bounded_on_coarse_levels(self, ball):
        # N 4139 -> 639 -> 111: two coarse levels. The plain-aggregation cycle
        # takes 15-16 iterations here, counting a final half step; Jacobi took
        # 38, so a hierarchy that stopped reducing the smooth error would show
        op = L._operator(ball)
        assert len(op.backend.levels) >= 2
        for axes in [(0,), (1,), (2,), (0, 1, 2), (2, 2, 2)]:
            before = op.record["iterations"]
            L.solve_dirichlet(ball, np.prod(ball.boundary_normal[:, list(axes)], axis=1))
            assert 1 <= op.record["iterations"] - before <= 16

    def test_cycle_matches_matrix_transfers(self, ball):
        # the cycle restricts and prolongs by a sum and a gather over each
        # unknown's aggregate; the V-cycle written with the piecewise-constant
        # P and R = P^T as matrices must give the same numbers bit for bit
        mg = L._operator(ball).backend

        def reference(r, level=0):
            if level == len(mg.levels):
                return mg.coarsest.solve(r)
            A, smoother, aggregate, size = mg.levels[level]
            n = A.shape[0]
            P = sp.csr_matrix((np.ones(n), (np.arange(n), aggregate)), shape=(n, size))
            x = smoother * r
            x += L._COARSE_SCALE * (P @ reference(P.T.tocsr() @ (r - A @ x), level + 1))
            x += smoother * (r - A @ x)
            return x

        r = np.random.default_rng(11).normal(size=mg.matrix.shape[0])
        assert np.array_equal(mg.cycle(r), reference(r))

    def test_exact_preconditioner_counts_iterations(self, monkeypatch):
        # N <= 500: the hierarchy is the factored matrix itself, and BiCGSTAB
        # returns from its first half step, after one cycle, which counts as
        # an iteration
        dom = G.build_domain(G.DomainSpec.ball(1.0, 0.3))
        assert dom.n_interior <= L._COARSEST
        op = L._operator(dom)
        assert op.backend.levels == []
        cycles = []
        cycle = op.backend.cycle
        monkeypatch.setattr(op.backend, "cycle",
                            lambda r: cycles.append(r) or cycle(r))
        for a in range(3):
            before, applied = op.record["iterations"], len(cycles)
            L.solve_dirichlet(dom, dom.boundary_normal[:, a])
            assert len(cycles) - applied == 1
            assert op.record["iterations"] - before == 1

    def test_hierarchy_built_once(self, monkeypatch):
        built = _count_backend_builds(monkeypatch)
        dom = G.build_domain(G.DomainSpec.ball(1.0, 0.15))
        L._operator(dom)
        assert built == []
        S.harmonic_normal_field(dom)
        LD.harmonic_ek_tensor(dom, 0)
        assert len(built) == 1
        assert L._operator(dom).backend is built[0]
        assert list(dom._cache) == ["laplace_operator"]

    def test_scale_invariant(self, ball):
        # the breakdown tests are absolute; tiny data must still converge
        g = np.prod(ball.boundary_normal, axis=1)
        u = L.solve_dirichlet(ball, g).interior
        for factor in (1e-12, 1e12):
            scaled = L.solve_dirichlet(ball, factor * g).interior / factor
            assert np.abs(scaled - u).max() <= 1e-12 * np.abs(u).max()

    def test_loop_matches_scipy(self, ball):
        # the loop keeps SciPy's recurrences and tests: the same info and
        # iterations (a final half step counting as one), and the solution up
        # to the order in which the inner products add their terms
        mg = L._operator(dataclasses.replace(ball)).backend
        swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for A, cycle, b, expect_info in [
                (mg.matrix, mg.cycle, np.random.default_rng(5).normal(size=mg.matrix.shape[0]), 0),
                # rtilde . A b = 0 in the first step: a breakdown, info -11
                (swap, lambda r: r, np.array([1.0, 0.0]), -11),
                (sp.identity(3, format="csr"), lambda r: r, np.zeros(3), 0)]:
            x, info, iterations = L._bicgstab(A, cycle, b)
            applied = []
            M = spla.LinearOperator(A.shape, lambda r: applied.append(1) or cycle(r),
                                    dtype=float)
            expect, scipy_info = spla.bicgstab(A, b, rtol=L.KRYLOV_RTOL, atol=0.0, M=M)
            assert info == scipy_info == expect_info
            assert iterations == (len(applied) + 1) // 2
            assert np.abs(x - expect).max() <= 1e-13 * max(np.abs(expect).max(), 1.0)

    @pytest.mark.parametrize("info, message", [
        (417, "did not converge in 417 iterations"), (-10, "broke down"),
        (-11, r"broke down \(info -11\) after 3 iterations")])
    def test_failure_is_named(self, ball, monkeypatch, info, message):
        monkeypatch.setattr(L, "_bicgstab",
                            lambda A, M, b: (np.zeros_like(b), info, 3))
        before = L.solver_stats(ball)
        with pytest.raises(L.SolverError, match=message) as err:
            L.solve_dirichlet(ball, ball.boundary_normal[:, 0])
        assert err.value.residual > L.SOLVER_TOL
        assert L.solver_stats(ball) == before


OFF_CENTRE_ELLIPSE = "((x-0.13)/1.1)^2 + ((y+0.21)/0.7)^2 - 1"
# the node (0.5, 0) lies 1e-10 = 5e-9*h inside this circle at h = 0.02
TINY_ARM_RADIUS = 0.5000000001


class TestDirect:
    """2D systems are reduced to the black nodes and the reduced matrix is
    factorized once, in nested-dissection order, with diagonal pivots and a
    narrow panel; the solutions must match a default (COLAMD, partial
    pivoting) factorization of the full matrix and a symmetric-mode one with
    SuperLU's default panel to round-off."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.disk(1.0, 0.02),
        G.DomainSpec.annulus(0.5, 1.0, 0.02),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSE, 0.02),
        G.DomainSpec.disk(TINY_ARM_RADIUS, 0.02),
    ], ids=["disk", "annulus", "off_centre_ellipse", "tiny_arm_disk"])
    def test_normal_monomials_match_splu(self, spec):
        dom = G.build_domain(spec)
        if spec.sizes == (("radius", TINY_ARM_RADIUS),):
            assert min(arm.min() for arm in dom.arm_length) < 1e-8 * dom.h
        op = L._operator(dom)
        schur = op.schur()
        pattern = (schur != 0).astype(int)
        assert (pattern != pattern.T).nnz == 0
        # diagonal pivots: the rows are eliminated in the columns' order
        lu = op.backend.lu
        assert np.array_equal(lu.perm_r, lu.perm_c)
        fill = lu.L.nnz + lu.U.nnz
        colamd = spla.splu(schur.tocsc())
        assert fill <= 0.8 * (colamd.L.nnz + colamd.U.nnz)
        # minimum degree on S^T + S is the reference: nested dissection has
        # 0.80-0.86 of its fill at h 0.01 and 0.005, 0.90-1.00 on these
        # domains, and at most 1.09 times it on the smallest one measured
        # (annulus (0.5, 1) at h 0.05)
        mmd = spla.splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert fill <= 1.1 * (mmd.L.nnz + mmd.U.nnz)
        matrix = _assemble(dom)[0]
        oracle = spla.splu(matrix)
        full = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        # eliminating the red nodes first and dissecting the black ones leaves
        # less fill than ordering all nodes by minimum degree: 0.72-0.77 of it
        assert fill < full.L.nnz + full.U.nnz
        monomials = [(a,) for a in range(2)] + list(
            itertools.combinations_with_replacement(range(2), 3))
        for axes in monomials:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g).interior
            rhs = op.boundary_coupling @ g
            assert np.abs(u - oracle.solve(rhs)).max() <= 1e-12 * np.abs(u).max()
            assert np.abs(u - full.solve(rhs)).max() <= 1e-13 * np.abs(u).max()
        stats = L.solver_stats(dom)
        assert stats["solves"] == 6
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        assert stats["iterations"] == 0

    def test_the_factor_gets_s_in_csc(self, monkeypatch):
        # S in CSC is the only copy alive while SuperLU factors it; the same
        # permuted S handed over in CSR factors and solves bit for bit alike
        factor, received = L._factor, []
        monkeypatch.setattr(L, "_factor", lambda matrix, permc_spec:
                            received.append(type(matrix)) or factor(matrix, permc_spec))
        op = L._operator(G.build_domain(G.DomainSpec.disk(1.0, 0.04)))
        backend = op.backend
        assert received == [sp.csc_matrix]
        order = backend.order
        permuted = op.schur()[order][:, order]
        assert isinstance(permuted, sp.csr_matrix)
        csr = L._DissectedLU(order, permuted)
        for rhs in np.random.default_rng(7).standard_normal((3, op.black.size)):
            assert np.array_equal(backend.solve(rhs)[0], csr.solve(rhs)[0])

    def test_failure_is_named(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(L.spla, "splu", singular)
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        with pytest.raises(L.SolverError, match="sparse factorization failed"):
            L.solve_dirichlet(dom, dom.boundary_normal[:, 0])


# the perfbench torus3d shape at the offset of its seed 1
SEED_1_TORUS = "(sqrt((x+0.018282)^2 + (y-0.017372)^2) - 1)^2 + (z-0.013189)^2 - 0.16"


class TestRedBlack:
    """Interior nodes are coloured by the parity of their lattice coordinate
    sum; the red ones are eliminated exactly and the backend solves the
    reduced system S = D_B - A_BR D_R^-1 A_RB on the black ones."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.disk(1.0, 0.02),
        G.DomainSpec.annulus(0.5, 1.0, 0.02),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSE, 0.02),
        G.DomainSpec.disk(TINY_ARM_RADIUS, 0.02),
        G.DomainSpec.ball(1.0, 0.1),
        G.DomainSpec.levelset(SEED_1_TORUS, 0.08, dim=3, bbox=(-1.6, 1.6)),
    ], ids=["disk", "annulus", "off_centre_ellipse", "tiny_arm_disk", "ball",
            "seed_1_torus"])
    def test_reduced_system_is_an_m_matrix(self, spec):
        dom = G.build_domain(spec)
        op = L._operator(dom)
        assert op.red.size + op.black.size == dom.n_interior
        schur = op.schur()
        assert schur.shape == (op.black.size, op.black.size)
        pattern = (schur != 0).astype(int)
        assert (pattern != pattern.T).nnz == 0
        diag = schur.diagonal()
        assert (diag > 0).all()
        assert (sp.triu(schur, 1).data <= 0).all() and (sp.tril(schur, -1).data <= 0).all()
        assert (np.asarray(schur.sum(axis=1)).ravel() >= -1e-12 * diag).all()
        full = _assemble(dom)[0]
        u = np.random.default_rng(3).normal(size=dom.n_interior)
        assert np.abs(op.apply(u) - full @ u).max() <= 1e-13 * np.abs(full @ u).max()
        oracle = spla.splu(full.tocsc())
        for axes in [(0,), (0, 1, 1), (0, 0, 0)]:
            g = np.prod(dom.boundary_normal[:, list(axes)], axis=1)
            u = L.solve_dirichlet(dom, g).interior
            expect = oracle.solve(op.boundary_coupling @ g)
            assert np.abs(u - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("expression, dim", [
        (OFF_CENTRE_ELLIPSE, 2), (OFF_CENTRE_ELLIPSOID, 3)], ids=["2d", "3d"])
    def test_colours_do_not_depend_on_the_bbox(self, expression, dim):
        h = 0.1 if dim == 3 else 0.05
        doms = [G.build_domain(G.DomainSpec.levelset(expression, h, dim, (-r, r)))
                for r in (1.5, 3.0)]
        assert doms[0].phi.shape != doms[1].phi.shape
        nodes = []
        for dom in doms:
            op = L._operator(dom)
            lattice = L._lattice(dom)
            nodes.append([set(map(tuple, lattice[part])) for part in (op.red, op.black)])
        assert nodes[0] == nodes[1]
        assert all(nodes[0])

    def test_same_parity_arm_is_named(self, disk):
        # point arm 0 of node i, which ends at its neighbour j, at j's own arm-0
        # neighbour instead: two lattice steps away, so of i's own parity
        arms = disk.arm_interior.copy()
        i = int(np.flatnonzero((arms[0] >= 0) & (arms[0][arms[0]] >= 0))[0])
        arms[0, i] = arms[0, arms[0, i]]
        broken = dataclasses.replace(disk, arm_interior=arms)
        position = re.escape(str(disk.interior_coords[i].tolist()))
        with pytest.raises(L.SolverError, match=f"arm 0 of node {i} at {position}"):
            L.solve_dirichlet(broken, broken.boundary_normal[:, 0])
        assert L.solver_stats(broken)["solves"] == 0


class TestNormalMonomialIdentities:
    """Since |nu|^2 = 1, H[nu_a] = sum_b H[nu_a nu_b nu_b]; H[nu_a nu_L^2],
    L = dim - 1, is derived from the others, not solved, whatever order the
    extensions are asked for in."""

    @pytest.mark.parametrize("ld_first", [False, True], ids=["sobolev_ld", "ld_sobolev"])
    @pytest.mark.parametrize("spec, solves", [
        (G.DomainSpec.disk(1.0, 0.04), 4),
        (G.DomainSpec.annulus(0.5, 1.0, 0.04), 4),
        (G.DomainSpec.ball(1.0, 0.1), 10),
        (G.DomainSpec.levelset(OFF_CENTRE_ELLIPSOID, 0.1, dim=3), 10),
    ], ids=["disk", "annulus", "ball", "off_centre_ellipsoid"])
    def test_derived_match_direct_solves(self, spec, solves, ld_first):
        dom = G.build_domain(spec)
        tasks = [lambda: S.harmonic_normal_field(dom),
                 lambda: [LD.harmonic_ek_tensor(dom, k) for k in range(dom.dim)]]
        for task in reversed(tasks) if ld_first else tasks:
            task()
        op = L._operator(dom)
        # every H[nu_a] and H[nu_a nu_b nu_c], dim of them derived
        assert len(op.monomials) == solves + dom.dim
        assert L.solver_stats(dom)["solves"] == solves
        oracle = spla.splu(_assemble(dom)[0].tocsc())
        for key, field in op.monomials.items():
            g = np.prod(dom.boundary_normal[:, list(key)], axis=1)
            assert np.array_equal(field.boundary, g)
            expect = oracle.solve(op.boundary_coupling @ g)
            assert np.abs(field.interior - expect).max() <= 1e-12 * np.abs(expect).max()
        stats = L.solver_stats(dom)
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8

    @pytest.mark.parametrize("spec", [G.DomainSpec.disk(1.0, 0.04),
                                      G.DomainSpec.ball(1.0, 0.15)],
                             ids=["disk", "ball"])
    def test_non_unit_normals_raise(self, spec):
        # |nu|^2 = 1 + 2e-6: the derived H[nu_0 nu_L^2] misses its data by 2e-6
        built = G.build_domain(spec)
        dom = dataclasses.replace(built, boundary_normal=built.boundary_normal * (1 + 1e-6))
        last = dom.dim - 1
        for axes in [(0,)] + [(0, c, c) for c in range(last)]:
            L._normal_monomial(dom, axes)
        solves = L.solver_stats(dom)["solves"]
        with pytest.raises(L.SolverError, match="residual"):
            L._normal_monomial(dom, (0, last, last))
        assert (0, last, last) not in L._operator(dom).monomials
        assert L.solver_stats(dom)["solves"] == solves

    @pytest.mark.parametrize("spec", [G.DomainSpec.disk(1.0, 0.04),
                                      G.DomainSpec.ball(1.0, 0.15)],
                             ids=["disk", "ball"])
    def test_request_order_does_not_matter(self, spec):
        dim = spec.dim
        last = dim - 1
        ld_order = [axes for k in range(dim) for *_, monomials in LD._ek_entries(dim, k)
                    for axes in monomials]
        # the order the pipeline asks in when sobolev runs before ld
        sobolev_ld = [(a,) for a in range(dim)] + ld_order
        basis = sorted(L._basis(dim))
        shuffled = list(basis)
        np.random.default_rng(7).shuffle(shuffled)
        cubed_last = [key for key in basis if key != (0, 0, 0)] + [(0, 0, 0)]
        memos = []
        for order in [sobolev_ld, sobolev_ld[::-1], basis, ld_order, shuffled, cubed_last]:
            dom = G.build_domain(spec)
            op = L._operator(dom)
            derived = []

            class Watched(dict):
                # an insert that adds no solve is a derived extension
                def __setitem__(self, key, value):
                    if op.record["solves"] == len(self) - len(derived):
                        derived.append(key)
                    super().__setitem__(key, value)

            op.monomials = Watched()
            for axes in order:
                L._normal_monomial(dom, axes)
            assert op.monomials.keys() == L._basis(dim)
            assert sorted(derived) == [tuple(sorted((a, last, last))) for a in range(dim)]
            assert op.record["solves"] == (4 if dim == 2 else 10)
            memos.append(op.monomials)
        for memo in memos[1:]:
            for key, field in memos[0].items():
                assert np.array_equal(memo[key].interior, field.interior)
                assert np.array_equal(memo[key].boundary, field.boundary)


class TestReplacedDomain:
    """A ``dataclasses.replace`` copy of a domain is a new domain with its own
    operator, never the original's solver state."""

    def test_rotated_normals_get_their_own_extensions(self):
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.04))
        L._normal_monomial(dom, (0,))
        nu = dom.boundary_normal
        rotated = dataclasses.replace(dom, boundary_normal=np.column_stack([-nu[:, 1], nu[:, 0]]))
        assert L.solver_stats(rotated)["solves"] == 0
        field = L._normal_monomial(rotated, (0,))
        # the original's H[nu_0] would miss these data by up to sqrt(2)
        assert np.array_equal(field.boundary, rotated.boundary_normal[:, 0])
        assert L.solver_stats(rotated)["solves"] == 1
        assert L.solver_stats(dom)["solves"] == 1
        assert L._operator(rotated) is not L._operator(dom)

    def test_cache_is_not_an_argument(self, disk):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(disk, _cache={})


class TestSolveAhead:
    """``hand_off_basis`` hands a 3D domain's backend solves to worker
    threads and ``solve_basis`` takes them; the fields, the solve record and
    the first error are those of solving one extension after another on the
    calling thread."""

    @staticmethod
    def serial(dom):
        for key in sorted(L._basis(dom.dim)):
            L._normal_monomial(dom, key)

    @staticmethod
    def ahead(dom, workers=None):
        """The basis handed off to a pool of ``workers`` threads (one per CPU
        if None), then taken."""
        with ThreadPoolExecutor(workers or os.cpu_count()) as pool:
            L.hand_off_basis(dom, pool)
            L.solve_basis(dom)

    @pytest.mark.parametrize("workers", [None, 8], ids=["every_cpu", "8_workers"])
    def test_equals_serial(self, ball, monkeypatch, workers):
        threads = set()
        loop = L._bicgstab
        monkeypatch.setattr(L, "_bicgstab", lambda *args: threads.add(
            threading.current_thread()) or loop(*args))
        ahead, serial = dataclasses.replace(ball), dataclasses.replace(ball)
        interval = sys.getswitchinterval()
        # 8: more workers than cores, switching threads every microsecond
        sys.setswitchinterval(1e-6 if workers else interval)
        try:
            self.ahead(ahead, workers)
        finally:
            sys.setswitchinterval(interval)
        assert threads - {threading.current_thread()}
        self.serial(serial)
        memo = L._operator(ahead).monomials
        assert memo.keys() == L._basis(3)
        for key, field in L._operator(serial).monomials.items():
            assert np.array_equal(memo[key].interior, field.interior)
            assert np.array_equal(memo[key].boundary, field.boundary)
        assert L.solver_stats(ahead) == L.solver_stats(serial)
        assert L.solver_stats(ahead)["solves"] == 10
        assert not L._operator(ahead).ahead and "backend" not in vars(L._operator(ahead))

    def test_failure_is_the_serial_one(self, ball, monkeypatch):
        # the loop fails on the data of H[nu_0 nu_1 nu_2], the 6th of the 10
        # solves in sorted order, as a solve of that extension hands them over
        failing = (0, 1, 2)
        loop = L._bicgstab
        seen = []
        monkeypatch.setattr(L, "_bicgstab", lambda A, M, b: seen.append(b) or loop(A, M, b))
        L.solve_dirichlet(dataclasses.replace(ball), L._monomial_values(ball, failing))
        monkeypatch.setattr(L, "_bicgstab", lambda A, M, b: (
            (np.zeros_like(b), 417, 417) if np.array_equal(b, seen[0]) else loop(A, M, b)))
        errors, stats = [], []
        for run in (self.ahead, self.serial):
            dom = dataclasses.replace(ball)
            with pytest.raises(L.SolverError, match="417 iterations") as err:
                run(dom)
            errors.append((str(err.value), err.value.residual))
            stats.append(L.solver_stats(dom))
            op = L._operator(dom)
            assert failing not in op.monomials and not op.ahead
        assert errors[0] == errors[1]
        assert stats[0] == stats[1]
        assert stats[0]["solves"] == 5

    def test_disk_solves_on_the_calling_thread(self, disk_coarse, monkeypatch):
        threads = set()
        solve = L._DissectedLU.solve
        monkeypatch.setattr(L._DissectedLU, "solve", lambda self, rhs: threads.add(
            threading.current_thread()) or solve(self, rhs))
        self.ahead(dataclasses.replace(disk_coarse))
        assert threads == {threading.current_thread()}


def _count_backend_builds(monkeypatch) -> list:
    """Patch the operator's backend so that each build appends the backend to
    the returned list."""
    built = []
    build = L._Operator.backend.func

    def counted(op):
        built.append(build(op))
        return built[-1]

    backend = cached_property(counted)
    backend.__set_name__(L._Operator, "backend")
    monkeypatch.setattr(L._Operator, "backend", backend)
    return built


class TestBackendRelease:
    """The insert that completes a domain's 6 (2D) or 13 (3D) normal-monomial
    extensions drops its backend; a later solve builds it again, once, and
    solves as before."""

    SPECS = [G.DomainSpec.disk(1.0, 0.02), G.DomainSpec.ball(1.0, 0.15)]

    @pytest.mark.parametrize("spec", SPECS, ids=["disk", "ball"])
    def test_released_when_the_basis_completes(self, spec, monkeypatch):
        dom = G.build_domain(spec)
        built = _count_backend_builds(monkeypatch)
        op = L._operator(dom)
        held = []

        class Watched(dict):
            # whether the backend is held when each extension is memoized
            def __setitem__(self, key, value):
                held.append("backend" in vars(op))
                super().__setitem__(key, value)

        op.monomials = Watched()
        S.harmonic_normal_field(dom)
        assert "backend" in vars(op)
        LD.ld_bounds(dom, "vec2")
        assert op.monomials.keys() == L._basis(dom.dim)
        assert held == [True] * len(op.monomials)
        assert len(built) == 1
        assert "backend" not in vars(op)
        assert L.solver_stats(dom)["solves"] == (4 if dom.dim == 2 else 10)

    @pytest.mark.parametrize("spec", SPECS, ids=["disk", "ball"])
    def test_a_later_solve_rebuilds_it_once(self, spec, monkeypatch):
        dom = G.build_domain(spec)
        built = _count_backend_builds(monkeypatch)
        S.harmonic_normal_field(dom)
        LD.ld_bounds(dom, "vec2")
        op = L._operator(dom)
        # solved, not derived: only the H[nu_a nu_L^2] are derived
        memo = op.monomials[(0,)]
        for rebuilt in range(2):
            solves = op.record["solves"]
            u = L.solve_dirichlet(dom, memo.boundary)
            assert np.array_equal(u.interior, memo.interior)
            assert op.record["solves"] == solves + 1
            assert len(built) == 2
        assert "backend" in vars(op)


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
            field = Field(dom, np.full(n, inside), g)
            assert L._check_max_principle(field) <= 1e-8
        for outside in (hi + 2e-8 * scale, lo - 2e-8 * scale):
            field = Field(dom, np.full(n, outside), g)
            with pytest.raises(L.SolverError):
                L._check_max_principle(field)
        # a vector field is checked entry by entry, each against its own data
        mid = np.full(n, 0.5 * (lo + hi))
        inside = Field(dom, np.column_stack([mid, 1e3 * mid]), np.column_stack([g, 1e3 * g]))
        assert L._check_max_principle(inside) <= 1e-8
        worst = Field(dom, np.column_stack([np.full(n, hi + 2e-8 * scale), 1e3 * mid]),
                      np.column_stack([g, 1e3 * g]))
        with pytest.raises(L.SolverError):
            L._check_max_principle(worst)
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


def _harmonic_normal(dom):
    """The vector field of the solves H[nu_j], one per axis."""
    comps = [L.solve_dirichlet(dom, dom.boundary_normal[:, j]) for j in range(dom.dim)]
    return Field(dom, np.stack([c.interior for c in comps], axis=1),
                 np.stack([c.boundary for c in comps], axis=1))


class TestOperators:
    def test_gradient_linear(self, disk):
        f = Field.from_function(disk, lambda p: p[:, 0])
        g = L.gradient(f)
        assert np.abs(g.interior[:, 0] - 1.0).max() < 1e-10
        assert np.abs(g.interior[:, 1]).max() < 1e-10

    def test_gradient_quadratic(self, disk):
        f = Field.from_function(disk, lambda p: p[:, 0]**2 + p[:, 1]**2)
        g = L.gradient(f)
        err0 = np.abs(g.interior[:, 0] - 2 * disk.interior_coords[:, 0]).max()
        err1 = np.abs(g.interior[:, 1] - 2 * disk.interior_coords[:, 1]).max()
        assert max(err0, err1) <= 5 * disk.h

    def test_gradient_of_harmonic_solution(self, disk):
        u = L.solve_dirichlet(disk, disk.boundary_normal[:, 0])
        g = L.gradient(u)
        assert np.abs(g.interior[:, 0] - 1.0).max() <= 10 * disk.h
        assert np.abs(g.interior[:, 1]).max() <= 10 * disk.h

    def test_divergence_identity_field(self, disk):
        w = Field.from_function(disk, lambda p: p.copy())
        div = L.divergence(w)
        assert np.abs(div.interior - 2.0).max() <= 5 * disk.h

    def test_divergence_rotation_free(self, disk):
        w = Field.from_function(
            disk, lambda p: np.stack([p[:, 1], -p[:, 0]], axis=1))
        div = L.divergence(w)
        assert np.abs(div.interior).max() <= 5 * disk.h

    def test_divergence_harmonic_normal_ball(self, ball):
        div = L.divergence(_harmonic_normal(ball))
        assert np.abs(div.interior - 3.0).max() <= 10 * ball.h
        assert np.abs(div.boundary - 3.0).max() <= 10 * ball.h

    def test_laplacian_quadratic_exact(self, disk):
        f = Field.from_function(disk, lambda p: p[:, 0]**2 + p[:, 1]**2)
        lap = laplacian(f)
        assert np.abs(lap - 4.0).max() < 1e-6

    def test_subharmonicity_of_normal_magnitude(self, disk, ellipse):
        # |n0|^2 has nonnegative discrete Laplacian for harmonic n0
        for dom in (disk, ellipse):
            n0 = _harmonic_normal(dom)
            mag2_i = np.linalg.norm(n0.interior, axis=1) ** 2
            mag2_b = np.sum(n0.boundary ** 2, axis=1)
            lap = laplacian(Field(dom, mag2_i, mag2_b))
            assert lap.min() >= -1e-6 * max(1.0, np.abs(lap).max())


NECK_EXPR = ("min(min((x-1.1)^2+y^2-1,(x+1.1)^2+y^2-1),"
             "max(x^2-1.21,y^2-0.015625))")


@pytest.fixture(scope="module")
def neck():
    return G.build_domain(G.DomainSpec.levelset(NECK_EXPR, 0.025, 2, (-2.3, 2.3)))


@pytest.fixture(scope="module")
def off_centre_disk():
    return G.build_domain(G.DomainSpec.levelset("(x-0.13)^2+(y+0.07)^2-0.81", 0.05))


class TestDissection:
    """The 2D factor orders the black nodes by nested dissection of their
    rotated lattice, on which S couples only nodes at most one step apart
    along each axis, so every cut line separates its box's two halves."""

    @pytest.mark.parametrize("spec", [
        G.DomainSpec.disk(1.0, 0.02),
        G.DomainSpec.annulus(0.5, 1.0, 0.02),
        G.DomainSpec.levelset(NECK_EXPR, 0.025, 2, (-2.3, 2.3)),
        G.DomainSpec.disk(TINY_ARM_RADIUS, 0.02),
        G.DomainSpec.levelset(OFF_CENTRE_ELLIPSE, 0.02),
    ], ids=["disk", "annulus", "neck", "tiny_arm_disk", "off_centre_ellipse"])
    def test_separators_split_the_reduced_matrix(self, spec):
        op = L._operator(G.build_domain(spec))
        i, j = L._lattice(op.domain)[op.black].T
        keys = L._dissection(np.stack([(i + j - 1) // 2, (i - j - 1) // 2]))
        order = op.backend.order
        assert np.array_equal(np.sort(order), np.arange(op.black.size))
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        # the base-3 digits of each key, most significant first: a node's
        # path down the dissection tree
        digits = keys[:, None] // 3 ** np.arange(39, -1, -1) % 3
        rows, cols = op.schur().nonzero()
        differ = digits[rows] != digits[cols]
        apart = differ.any(axis=1)
        level = differ.argmax(axis=1)[apart]
        below = digits[rows[apart], level]
        above = digits[cols[apart], level]
        # S couples nodes of different leaves only through a separator
        # (digit 2), never across one box's two halves (digits 0 and 1), on
        # every level of the tree: 8 on the tiny-arm disk, 10-11 elsewhere
        assert np.unique(level).size >= 8
        assert (np.maximum(below, above) == 2).all()

    def test_a_leaf_keeps_its_order(self):
        rng = np.random.default_rng(7)
        for n in range(L._DISSECTION_LEAF + 1):
            keys = L._dissection(rng.integers(-3, 4, (2, n)))
            assert np.array_equal(np.argsort(keys, kind="stable"), np.arange(n))
        keys = L._dissection(np.array([[0, 1, 2, 3, 4], [0, 0, 0, 0, 0]]))
        # one more node is split: the midpoint u = 2 comes last
        assert np.array_equal(np.argsort(keys, kind="stable"), [0, 1, 3, 4, 2])
        # domains whose black nodes fit in one leaf, or that have none (only
        # the node at the origin), solve like any other
        for radius, black in ((0.15, L._DISSECTION_LEAF), (0.09, 0)):
            dom = G.build_domain(G.DomainSpec.disk(radius, 0.1))
            op = L._operator(dom)
            assert op.black.size == black
            g = dom.boundary_normal[:, 0]
            u = L.solve_dirichlet(dom, g).interior
            expect = spla.spsolve(_assemble(dom)[0], op.boundary_coupling @ g)
            assert np.abs(u - expect).max() <= 1e-14

    def test_less_fill_than_minimum_degree(self):
        # 1.08 M nonzeros in the factor against 1.31 M for minimum degree
        op = L._operator(G.build_domain(G.DomainSpec.disk(1.0, 0.01)))
        mmd = spla.splu(op.schur().tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert op.backend.lu.L.nnz + op.backend.lu.U.nnz < mmd.L.nnz + mmd.U.nnz


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
    return Field(dom, values, _extrapolate(dom, values))


def _entry(field, *index):
    """Oracle input: one entry of the field's values, as a scalar field."""
    at = (slice(None),) + index
    return Field(field.domain, field.interior[at], field.boundary[at])


def _sum_derivatives(fields_and_axes, n):
    vals = np.zeros(n)
    for f, ax in fields_and_axes:
        vals += _derivative_interior(f, ax)
    return vals


def _assert_entries_equal(got, expect):
    """Every entry of got, interior and boundary, equals its scalar oracle in
    expect, a dict keyed by the entry's index."""
    assert set(expect) == set(np.ndindex(got.shape))
    for index, e in expect.items():
        assert np.array_equal(_entry(got, *index).interior, e.interior)
        assert np.array_equal(_entry(got, *index).boundary, e.boundary)


STENCIL_DOMAINS = ["disk", "ball", "annulus", "neck", "off_centre_ellipsoid"]


def _assemble(dom):
    """Oracle: the Shortley-Weller matrix and boundary coupling, assembled
    axis by axis and arm by arm from COO lists."""
    n = dom.n_interior
    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []
    diag = np.zeros(n)
    idx = np.arange(n)
    for ax in range(dom.dim):
        hp = dom.arm_length[2 * ax]
        hm = dom.arm_length[2 * ax + 1]
        cp = 2.0 / (hp * (hp + hm))
        cm = 2.0 / (hm * (hp + hm))
        diag += 2.0 / (hp * hm)
        for d, coeff in ((2 * ax, cp), (2 * ax + 1, cm)):
            nb_int = dom.arm_interior[d]
            nb_bnd = dom.arm_boundary[d]
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
    matrix = sp.csr_matrix if dom.dim == 3 else sp.csc_matrix
    neg_laplacian = matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    boundary_coupling = sp.csc_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n, dom.n_boundary))
    return neg_laplacian, boundary_coupling


def _assert_same_sparse(got, expect):
    assert got.format == expect.format and got.shape == expect.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(expect, part))


class TestAssembly:
    """The operator read off the arm-end map is the arm-by-arm assembly, bit for bit."""

    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_match_arm_loop_oracle(self, name, request):
        dom = request.getfixturevalue(name)
        _assert_same_sparse(L._Operator(dom).boundary_coupling, _assemble(dom)[1])

    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_colour_blocks_match_arm_loop_oracle(self, name, request):
        # the colour blocks are the blocks of the assembled matrix: its
        # diagonal, its red-black and black-red couplings, and nothing else
        dom = request.getfixturevalue(name)
        op = L._Operator(dom)
        full = _assemble(dom)[0].tocsr()
        _assert_same_sparse(op.red_black, full[op.red][:, op.black])
        _assert_same_sparse(op.black_red, full[op.black][:, op.red])
        diag = full.diagonal()
        assert np.array_equal(op.red_diag, diag[op.red])
        assert np.array_equal(op.black_diag, diag[op.black])
        for part in (op.red, op.black):
            block = full[part][:, part]
            assert sp.triu(block, 1).nnz == sp.tril(block, -1).nnz == 0


class TestStencils:
    """The memoized sparse stencils reproduce the gathered-arm formulas bit for bit."""

    @pytest.mark.parametrize("name", STENCIL_DOMAINS)
    def test_match_gather_oracle(self, name, request):
        dom = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        n, dim = dom.n_interior, dom.dim
        rand = lambda *s: (rng.normal(size=(n, *s)), rng.normal(size=(dom.n_boundary, *s)))
        f, w = Field(dom, *rand()), Field(dom, *rand(dim))
        sigma = Field(dom, *(t + t.swapaxes(1, 2) for t in rand(dim, dim)))
        values = rng.normal(size=n)
        assert np.array_equal(L.extrapolate_to_boundary(dom, values),
                              _extrapolate(dom, values))
        pairs = list(itertools.product(range(dim), repeat=2))
        stacked = L.extrapolate_to_boundary(dom, sigma.interior)
        for i, j in pairs:
            assert np.array_equal(stacked[:, i, j], _extrapolate(dom, sigma.interior[:, i, j]))
        _assert_entries_equal(L.gradient(f), {
            (ax,): _with_boundary(dom, _derivative_interior(f, ax)) for ax in range(dim)})
        _assert_entries_equal(L.divergence(w), {(): _with_boundary(dom, _sum_derivatives(
            [(_entry(w, ax), ax) for ax in range(dim)], n))})
        _assert_entries_equal(L.tensor_divergence(sigma), {
            (i,): _with_boundary(dom, _sum_derivatives(
                [(_entry(sigma, i, j), j) for j in range(dim)], n))
            for i in range(dim)})
        _assert_entries_equal(L._with_boundary(dom, LD._strain(w)), {
            (i, j): _with_boundary(dom, 0.5 * (_derivative_interior(_entry(w, i), j)
                                               + _derivative_interior(_entry(w, j), i)))
            for i, j in pairs})
        stencils = vars(L._operator(dom))["stencils"]
        L.divergence(w)
        assert L._operator(dom).stencils is stencils

    def test_built_lazily(self):
        # each cached part is absent from the operator until first used
        dom = G.build_domain(G.DomainSpec.disk(1.0, 0.1))
        op = L._operator(dom)
        assert not {"backend", "stencils"} & set(vars(op))
        u = L.solve_dirichlet(dom, dom.boundary_normal[:, 0])
        assert "backend" in vars(op) and "stencils" not in vars(op)
        L.gradient(u)
        stencils = vars(op)["stencils"]
        L.divergence(L.gradient(u))
        assert op.stencils is stencils
        assert isinstance(vars(op)["backend"], L._DissectedLU)
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

        assert_const(L.gradient(Field.from_function(dom, linear)), c)
        w = Field.from_function(dom, lambda p: p @ A.T)
        assert_const(L.divergence(w), np.trace(A))
        assert_const(L._with_boundary(dom, LD._strain(w)), 0.5 * (A + A.T))
        sigma = Field.from_function(
            dom, lambda p: S * linear(p)[:, None, None] + np.add.outer(np.arange(dim), np.arange(dim)))
        assert_const(L.tensor_divergence(sigma), S @ c)


class TestSupNorm:
    """Boundary and closure sups through check_sup_on_boundary, the one
    maximum-principle check of nodal magnitudes."""

    def test_linear_field(self, disk):
        f = Field.from_function(disk, lambda p: p[:, 0])
        _, sup_closure = L.check_sup_on_boundary(
            "x", disk, np.abs(f.interior), np.abs(f.boundary))
        assert abs(sup_closure - 1.0) <= disk.h

    def test_constant_exact(self, disk):
        f = Field.constant(disk, -2.5)
        assert L.check_sup_on_boundary(
            "constant", disk, np.abs(f.interior), np.abs(f.boundary)) == (2.5, 2.5)

    def test_divergence_sup_attained_on_boundary(self, ellipse):
        div = L.divergence(_harmonic_normal(ellipse))
        sup_bnd, sup_cl = L.check_sup_on_boundary(
            "divergence", ellipse, np.abs(div.interior), np.abs(div.boundary))
        assert sup_cl - sup_bnd <= 10 * ellipse.h * sup_cl

    def test_bad_region(self, disk):
        # a sup attained in the interior region fails with a CheckError,
        # which names the node
        interior = np.ones(disk.n_interior)
        interior[7] = 2.0
        with pytest.raises(G.CheckError, match="bump sup 2.000000 .* interior node 7$"):
            L.check_sup_on_boundary("bump", disk, interior, np.ones(disk.n_boundary))
