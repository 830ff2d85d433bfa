import math

import numpy as np
import pytest

from trace_bounds import (geometry as G, laplace as L, ld_trace as LD,
                          optimal_bc as O, sobolev_trace as S)
from trace_bounds.cli import ld_battery_fields
from trace_bounds.geometry import Field

from ld_oracles import rigid_field, rigid_projection_2d, virtual_work, virtual_work_residual


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
    return Field.constant(domain, np.eye(domain.dim))


def ld_norm(w):
    """||w||_1 + ||eps(w)||_1 with the all-ordered-pairs tensor convention."""
    return (G.integrate_volume(w.domain, np.abs(w.interior)).sum()
            + LD._l1_tensor(w.domain, LD._strain(w)))


class TestStrain:
    def test_rigid_fields_have_zero_strain(self, disk, rng):
        # kernel(eps) contains every rigid field
        for _ in range(100):
            eps = LD._strain(rigid_field(disk, rng.normal(size=2), float(rng.normal())))
            assert np.abs(eps).max() < 1e-10

    def test_rigid_3d(self, ball, rng):
        for _ in range(10):
            eps = LD._strain(rigid_field(ball, rng.normal(size=3), rng.normal(size=3)))
            assert np.abs(eps).max() < 1e-10

    def test_uniaxial(self, disk):
        w = Field.from_function(
            disk, lambda p: np.stack([p[:, 0], np.zeros(p.shape[0])], axis=1))
        eps = LD._strain(w)
        assert np.abs(eps[:, 0, 0] - 1.0).max() <= 5 * disk.h
        assert np.abs(eps[:, 0, 1]).max() <= 5 * disk.h
        assert np.abs(eps[:, 1, 1]).max() <= 5 * disk.h

    def test_pure_shear(self, disk):
        w = Field.from_function(
            disk, lambda p: np.stack([p[:, 1], np.zeros(p.shape[0])], axis=1))
        eps = LD._strain(w)
        assert np.abs(eps[:, 0, 1] - 0.5).max() <= 5 * disk.h


class TestRigidProjection:
    def test_constant_field(self, disk):
        w = Field.from_function(
            disk, lambda p: np.broadcast_to([1.5, -0.5], p.shape).copy())
        a, b = rigid_projection_2d(disk, w)
        np.testing.assert_allclose(a, [1.5, -0.5], atol=1e-10)
        assert abs(b) < 1e-10

    def test_recovers_rigid_input(self, disk):
        rigid_a, rigid_b = np.array([0.4, -0.7]), 1.3
        a, b = rigid_projection_2d(disk, rigid_field(disk, rigid_a, rigid_b))
        assert np.abs(a - rigid_a).max() <= 0.01 * max(1, np.abs(rigid_a).max())
        assert abs(b - rigid_b) <= 0.01 * abs(rigid_b)

    def test_radial_field_projects_to_zero(self, disk):
        w = Field.from_function(disk, lambda p: p.copy())
        a, b = rigid_projection_2d(disk, w)
        assert np.abs(a).max() <= 0.01
        assert abs(b) <= 0.01

    def test_idempotence(self, disk):
        w = Field.from_function(
            disk, lambda p: np.stack([p[:, 0] ** 2, p[:, 1]], axis=1))
        once = rigid_projection_2d(disk, w)
        twice = rigid_projection_2d(disk, rigid_field(disk, *once))
        assert np.abs(once[0] - twice[0]).max() <= 0.01 * max(1.0, np.abs(once[0]).max())
        assert abs(once[1] - twice[1]) <= 0.01 * max(1.0, abs(once[1]))


class TestLdNorm:
    def test_zero(self, disk):
        w = Field.from_function(disk, lambda p: 0.0 * p)
        assert ld_norm(w) == 0.0

    def test_constant(self, disk):
        w = Field.from_function(
            disk, lambda p: np.broadcast_to([1.0, 0.0], p.shape).copy())
        assert abs(ld_norm(w) - np.pi) <= 0.01 * np.pi

    def test_linear(self, disk):
        # closed forms: int |x| = 4/3, strain contributes int 1 = pi
        w = Field.from_function(
            disk, lambda p: np.stack([p[:, 0], np.zeros(p.shape[0])], axis=1))
        expected = 4.0 / 3.0 + np.pi
        assert abs(ld_norm(w) - expected) <= 0.01 * expected


class TestHarmonicEkTensor:
    def test_ball_boundary_compatibility(self, ball):
        sigma, diag = LD.harmonic_ek_tensor(ball, 0)
        assert diag.compat_error < 1e-12
        resid = np.einsum("mij,mj->mi", sigma.boundary,
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
            nu = dom.boundary_normal
            tensors, _ = O.optimal_stress(nu, np.broadcast_to(np.eye(dom.dim)[k], nu.shape),
                                          "vecInf")
            np.testing.assert_array_equal(sigma.boundary, tensors)
            for i, j in zip(*np.triu_indices(dom.dim)):
                direct = L.solve_dirichlet(dom, tensors[:, i, j])
                np.testing.assert_array_equal(sigma.boundary[:, i, j], direct.boundary)
                for entry in (sigma.interior[:, i, j], sigma.interior[:, j, i]):
                    assert np.abs(entry - direct.interior).max() <= 1e-12

    def test_ball_divergence_oracle(self, ball):
        # solid-harmonics oracle: 22/5 per axis
        _, diag = LD.harmonic_ek_tensor(ball, 2)
        assert abs(diag.div_sup_boundary - 4.4) <= 0.02 * 4.4

    def test_compatibility_failure_is_named(self, disk_coarse, monkeypatch):
        exact = O.optimal_stress

        def doubled(nu, t, norm):
            sigma, values = exact(nu, t, norm)
            return 2.0 * sigma, values

        monkeypatch.setattr(O, "optimal_stress", doubled)
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
        # 2 normals + 4 cubic monomials, one per |nu|^2 = 1 identity derived
        (G.DomainSpec.disk(1.0, 0.04), 4),
        # 3 normals + 10 cubic monomials, one per identity derived
        (G.DomainSpec.ball(1.0, 0.1), 10),
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
        w = rigid_field(disk, np.zeros(2), 1.0)
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        # closed forms: lhs = int(|y| + |x|) over circle = 8, ||w||_1 = 8/3
        assert abs(rep.lhs - 8.0) <= 0.08
        assert rep.slack >= -rep.eps_disc
        # the inequality forces B >= lhs / ||w||_1 = 3 on the disk
        assert disk_bounds.B >= 3.0 * 0.98

    def test_constant_field_consistency(self, disk, disk_bounds):
        w = Field.from_function(
            disk, lambda p: np.broadcast_to([1.0, 0.0], p.shape).copy())
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        assert abs(rep.lhs - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert rep.slack >= -rep.eps_disc
        assert disk_bounds.B >= 2.0 * 0.98

    def test_zero_field(self, disk, disk_bounds):
        w = Field.from_function(disk, lambda p: 0.0 * p)
        rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
        assert rep.lhs == 0.0 and rep.slack == 0.0

    def test_battery(self, disk, disk_bounds):
        for name, w in ld_battery_fields(disk):
            rep = LD.verify_ld_trace_inequality(disk, w, disk_bounds)
            assert rep.slack >= -rep.eps_disc, (name, rep.slack, rep.eps_disc)

    def test_integrands_extrapolate_nothing(self, disk_coarse, monkeypatch):
        # both trace inequalities and the LD norm integrate interior derivatives
        # only, so they compute no boundary extrapolation
        from trace_bounds.cli import w11_battery_fields
        B = S.harmonic_normal_field(disk_coarse).sup_div_boundary
        bounds = LD.ld_bounds(disk_coarse, "vec2")
        scalars, vectors = w11_battery_fields(disk_coarse), ld_battery_fields(disk_coarse)

        def evaluate():
            return ([S.verify_trace_inequality(disk_coarse, phi, B=B) for _, phi in scalars]
                    + [LD.verify_ld_trace_inequality(disk_coarse, w, bounds) for _, w in vectors]
                    + [ld_norm(w) for _, w in vectors])

        expected = evaluate()

        def refuse(*args):
            raise AssertionError("boundary extrapolation computed")

        monkeypatch.setattr(L, "extrapolate_to_boundary", refuse)
        assert evaluate() == expected


class TestVirtualWork:
    def test_identity_stress_radial_field(self, disk):
        # divergence-theorem case: lhs = int 2 = 2 pi, boundary term = 2 pi
        sigma = identity_tensor(disk)
        w = Field.from_function(disk, lambda p: p.copy())
        terms, _ = virtual_work(disk, sigma, w)
        lhs, bnd, div = terms
        assert abs(lhs - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert abs(bnd - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert abs(div) <= 1e-8
        assert virtual_work_residual(terms) <= 0.02 * 2 * np.pi

    def test_harmonic_tensor_with_rigid_field(self, disk):
        sigma, _ = LD.harmonic_ek_tensor(disk, 0)
        terms, _ = virtual_work(disk, sigma, rigid_field(disk, [0.3, -0.2], 1.0))
        scale = sum(abs(t) for t in terms)
        assert virtual_work_residual(terms) <= 0.02 * scale

    def test_zero_field(self, disk):
        sigma = identity_tensor(disk)
        w = Field.from_function(disk, lambda p: 0.0 * p)
        assert virtual_work_residual(virtual_work(disk, sigma, w)[0]) == 0.0

    def test_battery_residuals(self, disk):
        sigma, _ = LD.harmonic_ek_tensor(disk, 1)
        for name, w in ld_battery_fields(disk):
            terms, scale = virtual_work(disk, sigma, w)
            res = virtual_work_residual(terms)
            assert res <= 0.02 * scale, (name, res, scale)


class TestRigidField:
    """The LD battery's rigid field a + b x p, against the cross product
    written out."""

    def test_evaluate_2d(self, disk_coarse):
        w = dict(ld_battery_fields(disk_coarse))["rigid"]
        for values, (x, y) in ((w.interior, disk_coarse.interior_coords.T),
                               (w.boundary, disk_coarse.boundary_pos.T)):
            np.testing.assert_allclose(values, np.stack([0.3 - y, -0.2 + x], axis=1),
                                       rtol=0, atol=1e-15)

    def test_evaluate_3d(self, ball):
        # a = (0.3, -0.2, 0.1), b = (0.2, -0.3, 1)
        w = dict(ld_battery_fields(ball))["rigid"]
        for values, (x, y, z) in ((w.interior, ball.interior_coords.T),
                                  (w.boundary, ball.boundary_pos.T)):
            expected = np.stack([0.3 + (-0.3 * z - 1.0 * y), -0.2 + (1.0 * x - 0.2 * z),
                                 0.1 + (0.2 * y + 0.3 * x)], axis=1)
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15)
