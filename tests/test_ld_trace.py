import math

import numpy as np
import pytest

from trace_bounds import (geometry as G, laplace as L, ld_trace as LD,
                          optimal_bc as O, sobolev_trace as S)
from trace_bounds.fields import ScalarField, SymTensorField, VectorField, sym_index_pairs


@pytest.fixture(scope="module")
def disk_bounds(disk):
    return LD.ld_bounds(disk, "vec2")


@pytest.fixture(scope="module")
def ball_bounds(ball):
    return LD.ld_bounds(ball, "vec2")


@pytest.fixture(scope="module")
def ellipsoid():
    return G.build_domain(G.DomainSpec.ellipsoid(1.0, 0.8, 0.6, 0.1))


def identity_tensor(domain):
    comps = []
    for (i, j) in sym_index_pairs(domain.dim):
        comps.append(ScalarField.constant(domain, 1.0 if i == j else 0.0))
    return SymTensorField(tuple(comps), domain.dim)


class TestStrain:
    def test_rigid_fields_have_zero_strain(self, disk, rng):
        # kernel(eps) contains every rigid field
        for _ in range(100):
            rigid = LD.RigidField(a=rng.normal(size=2), b=float(rng.normal()))
            eps = LD.strain(rigid.as_vector_field(disk))
            assert max(np.abs(c.interior).max() for c in eps.components) < 1e-10

    def test_rigid_3d(self, ball, rng):
        for _ in range(10):
            rigid = LD.RigidField(a=rng.normal(size=3), b=rng.normal(size=3))
            eps = LD.strain(rigid.as_vector_field(ball))
            assert max(np.abs(c.interior).max() for c in eps.components) < 1e-10

    def test_uniaxial(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.stack([p[:, 0], np.zeros(p.shape[0])], axis=1))
        eps = LD.strain(w)
        assert np.abs(eps.component(0, 0).interior - 1.0).max() <= 5 * disk.h
        assert np.abs(eps.component(0, 1).interior).max() <= 5 * disk.h
        assert np.abs(eps.component(1, 1).interior).max() <= 5 * disk.h

    def test_pure_shear(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.stack([p[:, 1], np.zeros(p.shape[0])], axis=1))
        eps = LD.strain(w)
        assert np.abs(eps.component(0, 1).interior - 0.5).max() <= 5 * disk.h


class TestRigidProjection:
    def test_constant_field(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.broadcast_to([1.5, -0.5], p.shape).copy())
        proj = LD.rigid_projection(disk, w)
        np.testing.assert_allclose(proj.a, [1.5, -0.5], atol=1e-10)
        assert abs(proj.b) < 1e-10

    def test_recovers_rigid_input(self, disk, rng):
        rigid = LD.RigidField(a=np.array([0.4, -0.7]), b=1.3)
        proj = LD.rigid_projection(disk, rigid.as_vector_field(disk))
        assert np.abs(proj.a - rigid.a).max() <= 0.01 * max(1, np.abs(rigid.a).max())
        assert abs(proj.b - rigid.b) <= 0.01 * abs(rigid.b)

    def test_recovers_rigid_on_boundary(self, disk):
        rigid = LD.RigidField(a=np.array([-0.2, 0.9]), b=-0.8)
        proj = LD.rigid_projection(disk, rigid.as_vector_field(disk),
                                   region="boundary")
        assert np.abs(proj.a - rigid.a).max() <= 0.01
        assert abs(proj.b - rigid.b) <= 0.01

    def test_recovers_rigid_3d(self, ball):
        rigid = LD.RigidField(a=np.array([0.1, 0.2, -0.3]),
                              b=np.array([1.0, -0.5, 0.25]))
        proj = LD.rigid_projection(ball, rigid.as_vector_field(ball))
        assert np.abs(proj.a - rigid.a).max() <= 0.01
        assert np.abs(proj.b - rigid.b).max() <= 0.01

    def test_radial_field_projects_to_zero(self, disk):
        w = VectorField.from_function(disk, lambda p: p.copy())
        proj = LD.rigid_projection(disk, w)
        assert np.abs(proj.a).max() <= 0.01
        assert abs(proj.b) <= 0.01

    def test_idempotence(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.stack([p[:, 0] ** 2, p[:, 1]], axis=1))
        once = LD.rigid_projection(disk, w)
        twice = LD.rigid_projection(disk, once.as_vector_field(disk))
        assert np.abs(once.a - twice.a).max() <= 0.01 * max(1.0, np.abs(once.a).max())
        assert abs(once.b - twice.b) <= 0.01 * max(1.0, abs(once.b))

    def test_bad_region(self, disk):
        w = VectorField.from_function(disk, lambda p: p.copy())
        with pytest.raises(ValueError):
            LD.rigid_projection(disk, w, region="edge")

    @pytest.mark.parametrize("region", ["interior", "boundary"])
    @pytest.mark.parametrize("spec, rigid", [
        (G.DomainSpec.levelset("(x-0.7)^2+(y+0.4)^2-1", 0.02, 2, (-1.5, 1.9)),
         LD.RigidField(a=np.array([0.3, -0.2]), b=1.0)),
        (G.DomainSpec.levelset("(x-0.4)^2+(y+0.3)^2+(z-0.2)^2-1", 0.1, 3, (-1.5, 1.6)),
         LD.RigidField(a=np.array([0.1, 0.2, -0.3]), b=np.array([1.0, -0.5, 0.25]))),
    ], ids=["disk", "ball"])
    def test_recovers_rigid_off_centre(self, spec, rigid, region):
        dom = G.build_domain(spec)
        proj = LD.rigid_projection(dom, rigid.as_vector_field(dom), region=region)
        assert np.abs(proj.a - rigid.a).max() <= 1e-10
        assert np.abs(proj.b - rigid.b).max() <= 1e-10


class TestLdNorm:
    def test_zero(self, disk):
        w = VectorField.from_function(disk, lambda p: 0.0 * p)
        assert LD.ld_norm(w) == 0.0

    def test_constant(self, disk):
        w = VectorField.from_function(
            disk, lambda p: np.broadcast_to([1.0, 0.0], p.shape).copy())
        assert abs(LD.ld_norm(w) - np.pi) <= 0.01 * np.pi

    def test_linear(self, disk):
        # closed forms: int |x| = 4/3, strain contributes int 1 = pi
        w = VectorField.from_function(
            disk, lambda p: np.stack([p[:, 0], np.zeros(p.shape[0])], axis=1))
        expected = 4.0 / 3.0 + np.pi
        assert abs(LD.ld_norm(w) - expected) <= 0.01 * expected


class TestHarmonicEkTensor:
    def test_ball_boundary_compatibility(self, ball):
        sigma, diag = LD.harmonic_ek_tensor(ball, 0)
        assert diag.compat_error < 1e-12
        resid = np.einsum("mij,mj->mi", sigma.boundary_matrices(),
                          ball.boundary_normal) - np.eye(3)[0]
        assert np.abs(resid).max() < 1e-10

    def test_ball_attainment_structure(self, ball):
        _, diag = LD.harmonic_ek_tensor(ball, 1)
        # frame-relative entrywise sup is exactly D_inf = 1
        assert abs(diag.sup_frame_inf_boundary - 1.0) <= 0.02
        # rotation-invariant chain: sup |sigma|_2 = D_2 = sqrt(2), attained
        # on the boundary and never exceeded inside
        assert abs(diag.sup_vec2_closure - math.sqrt(2)) <= 0.02 * math.sqrt(2)
        assert diag.sup_vec2_closure <= diag.sup_vec2_boundary + 1e-9
        # componentwise maximum principle
        assert diag.max_principle_gap <= 1e-9
        # std-basis entrywise sup is the larger frame-dependent value
        # max_s s(2-s^2) = sqrt(2/3)*4/3 (attained where nu_k = sqrt(2/3))
        assert abs(diag.sup_entry_closure - 1.0886621079) <= 0.02

    def test_disk_component_max_principle(self, disk):
        _, diag = LD.harmonic_ek_tensor(disk, 0)
        assert diag.max_principle_gap <= 1e-8 + 5 * disk.h * 0  # algebraic
        assert diag.div_sup_closure - diag.div_sup_boundary \
            <= 10 * disk.h * diag.div_sup_closure

    def test_disk_divergence_oracle(self, disk):
        # solid-harmonics oracle: sup_bnd max_i |(div sigma^k)_i| = 7/2
        _, diag = LD.harmonic_ek_tensor(disk, 0)
        assert abs(diag.div_sup_boundary - 3.5) <= 0.02 * 3.5

    @pytest.mark.parametrize("fixture", ["ellipse", "ellipsoid"])
    def test_components_match_direct_solves(self, fixture, request):
        # reference: one Dirichlet solve of the exact boundary tensor per component
        dom = request.getfixturevalue(fixture)
        for k in range(dom.dim):
            sigma, _ = LD.harmonic_ek_tensor(dom, k)
            tensors = O.ek_boundary_tensor(dom, k)
            for (i, j) in sym_index_pairs(dom.dim):
                direct = L.solve_dirichlet(dom, tensors[:, i, j])
                np.testing.assert_array_equal(sigma.component(i, j).boundary,
                                              direct.boundary)
                assert np.abs(sigma.component(i, j).interior
                              - direct.interior).max() <= 1e-12

    def test_ball_divergence_oracle(self, ball):
        # solid-harmonics oracle: 22/5 per axis
        _, diag = LD.harmonic_ek_tensor(ball, 2)
        assert abs(diag.div_sup_boundary - 4.4) <= 0.02 * 4.4

    def test_compatibility_failure_is_named(self, disk_coarse, monkeypatch):
        exact = O.ek_boundary_tensor
        monkeypatch.setattr(O, "ek_boundary_tensor",
                            lambda domain, k: 2.0 * exact(domain, k))
        with pytest.raises(G.CheckError, match="boundary tensor compatibility"):
            LD.harmonic_ek_tensor(disk_coarse, 0)


class TestLdBounds:
    def test_ball_A_exact(self, ball_bounds):
        assert ball_bounds.A == 3 * math.sqrt(2)

    def test_disk_vecinf_A_exact(self, disk):
        rep = LD.ld_bounds(disk, "vecInf")
        assert rep.A == 2.0

    def test_ball_B_oracle(self, ball_bounds):
        # 3 * 22/5 = 13.2 from the solid-harmonics closed form
        assert abs(ball_bounds.B - 13.2) <= 0.02 * 13.2

    def test_disk_B_oracle(self, disk_bounds):
        # 2 * 7/2 = 7
        assert abs(disk_bounds.B - 7.0) <= 0.02 * 7.0

    def test_trace_norm_bound_is_max(self, ball_bounds):
        assert ball_bounds.trace_norm_bound == max(ball_bounds.A, ball_bounds.B)

    def test_refinement_2d(self, disk_coarse, disk_bounds):
        rep_coarse = LD.ld_bounds(disk_coarse, "vec2")
        drift = abs(rep_coarse.B - disk_bounds.B) / disk_bounds.B
        assert drift <= 0.10

    def test_radius_scaling(self, ball_bounds):
        half = G.build_domain(G.DomainSpec.ball(0.5, 0.05))
        rep = LD.ld_bounds(half, "vec2")
        ratio = rep.B / ball_bounds.B
        assert abs(ratio - 2.0) <= 0.05 * 2.0

    def test_norm_validation(self, disk):
        with pytest.raises(ValueError):
            LD.ld_bounds(disk, "op1")

    @pytest.mark.parametrize("spec, solves", [
        (G.DomainSpec.disk(1.0, 0.04), 6),    # 2 normals + 4 cubic monomials
        (G.DomainSpec.ball(1.0, 0.1), 13),    # 3 normals + 10 cubic monomials
    ], ids=["disk", "ball"])
    def test_one_solve_per_normal_monomial(self, spec, solves):
        # a fresh domain: the session fixtures share their memo across tests
        dom = G.build_domain(spec)
        S.harmonic_normal_field(dom)
        LD.ld_bounds(dom, "vec2")
        stats = L.solver_stats(dom)
        assert stats["solves"] == solves
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        if dom.dim == 2:
            assert stats["iterations"] == 0
        else:
            assert stats["iterations"] >= solves
        assert list(dom._cache) == ["laplace_operator"]
        LD.ld_bounds(dom, "vec2")
        assert L.solver_stats(dom) == stats


class TestLdTraceInequality:
    def test_rigid_rotation(self, disk, disk_bounds):
        w = LD.RigidField(a=np.zeros(2), b=1.0).as_vector_field(disk)
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        # closed forms: lhs = int(|y| + |x|) over circle = 8, ||w||_1 = 8/3
        assert abs(rep.lhs - 8.0) <= 0.08
        assert rep.slack >= -rep.eps_disc
        # the inequality forces B >= lhs / ||w||_1 = 3 on the disk
        assert disk_bounds.B >= 3.0 * 0.98

    def test_constant_field_consistency(self, disk, disk_bounds):
        w = VectorField.from_function(
            disk, lambda p: np.broadcast_to([1.0, 0.0], p.shape).copy())
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        assert abs(rep.lhs - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert rep.slack >= -rep.eps_disc
        assert disk_bounds.B >= 2.0 * 0.98

    def test_zero_field(self, disk, disk_bounds):
        w = VectorField.from_function(disk, lambda p: 0.0 * p)
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        assert rep.lhs == 0.0 and rep.slack == 0.0

    def test_battery(self, disk, disk_bounds):
        from trace_bounds.cli import ld_battery_fields
        for name, w in ld_battery_fields(disk):
            rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
            assert rep.slack >= -rep.eps_disc, (name, rep.slack, rep.eps_disc)


class TestVirtualWork:
    def test_identity_stress_radial_field(self, disk):
        # divergence-theorem case: lhs = int 2 = 2 pi, boundary term = 2 pi
        sigma = identity_tensor(disk)
        w = VectorField.from_function(disk, lambda p: p.copy())
        lhs, bnd, div = LD.virtual_work_terms(disk, sigma, w)
        assert abs(lhs - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert abs(bnd - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert abs(div) <= 1e-8
        assert LD.virtual_work_residual(disk, sigma, w) <= 0.02 * 2 * np.pi

    def test_harmonic_tensor_with_rigid_field(self, disk):
        sigma, _ = LD.harmonic_ek_tensor(disk, 0)
        w = LD.RigidField(a=np.array([0.3, -0.2]), b=1.0).as_vector_field(disk)
        lhs, bnd, div = LD.virtual_work_terms(disk, sigma, w)
        scale = abs(lhs) + abs(bnd) + abs(div)
        assert LD.virtual_work_residual(disk, sigma, w) <= 0.02 * scale

    def test_zero_field(self, disk):
        sigma = identity_tensor(disk)
        w = VectorField.from_function(disk, lambda p: 0.0 * p)
        assert LD.virtual_work_residual(disk, sigma, w) == 0.0

    def test_battery_residuals(self, disk):
        from trace_bounds.cli import ld_battery_fields
        sigma, _ = LD.harmonic_ek_tensor(disk, 1)
        for name, w in ld_battery_fields(disk):
            scale = LD.virtual_work_scale(disk, sigma, w)
            res = LD.virtual_work_residual(disk, sigma, w)
            assert res <= 0.02 * scale, (name, res, scale)


class TestRigidField:
    def test_validation(self):
        with pytest.raises(ValueError):
            LD.RigidField(a=np.zeros(3), b=1.0)
        with pytest.raises(ValueError):
            LD.RigidField(a=np.zeros(4), b=np.zeros(4))

    def test_evaluate_2d(self):
        rigid = LD.RigidField(a=np.array([1.0, 2.0]), b=3.0)
        out = rigid.evaluate(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 5.0]])

    def test_evaluate_3d(self):
        rigid = LD.RigidField(a=np.zeros(3), b=np.array([0.0, 0.0, 1.0]))
        out = rigid.evaluate(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]])
