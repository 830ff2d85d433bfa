import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trace_bounds import geometry as G, laplace as L, sobolev_trace as S
from trace_bounds.fields import ScalarField, VectorField

NECK_EXPR = ("min(min((x-1.1)^2+y^2-1,(x+1.1)^2+y^2-1),"
             "max(x^2-1.21,y^2-0.015625))")


@pytest.fixture(scope="module")
def disk_nf(disk):
    return S.harmonic_normal_field(disk)


@pytest.fixture(scope="module")
def ball_nf(ball):
    return S.harmonic_normal_field(ball)


@pytest.fixture(scope="module")
def ellipse_nf(ellipse):
    return S.harmonic_normal_field(ellipse)


class TestHarmonicNormalField:
    def test_disk_extends_identity(self, disk, disk_nf):
        # nu on the circle extends to n0(x) = x
        err = np.abs(disk_nf.field.interior_matrix()
                     - disk.interior_coords).max()
        assert err <= 5 * disk.h
        assert np.abs(disk_nf.divergence.interior - 2.0).max() <= 10 * disk.h

    def test_ball_extends_identity(self, ball, ball_nf):
        err = np.abs(ball_nf.field.interior_matrix()
                     - ball.interior_coords).max()
        assert err <= 5 * ball.h
        assert np.abs(ball_nf.divergence.interior - 3.0).max() <= 10 * ball.h

    def test_boundary_values_are_normals(self, disk, disk_nf):
        assert np.abs(disk_nf.field.boundary_matrix()
                      - disk.boundary_normal).max() < 1e-12

    def test_magnitude_bound(self, ellipse, ellipse_nf):
        mags = ellipse_nf.field.euclidean_norm_interior()
        assert mags.max() <= 1.0 + 5 * ellipse.h

    def test_divergence_sup_on_boundary(self, ellipse_nf):
        assert (ellipse_nf.sup_div_closure - ellipse_nf.sup_div_boundary
                <= 10 * 0.02 * ellipse_nf.sup_div_closure)

    def test_ellipse_sup_at_high_curvature_vertices(self, ellipse, ellipse_nf):
        i = int(np.abs(ellipse_nf.divergence.boundary).argmax())
        pos = ellipse.boundary_pos[i]
        assert abs(abs(pos[0]) - 2.0) < 5 * ellipse.h
        assert abs(pos[1]) < 5 * ellipse.h


class TestSobolevB:
    def test_disk_value(self, disk, disk_nf):
        assert abs(S.sobolev_B(disk, disk_nf) - 2.0) <= 0.02 * 2.0

    def test_ball_value(self, ball, ball_nf):
        assert abs(S.sobolev_B(ball, ball_nf) - 3.0) <= 0.05 * 3.0

    def test_ellipse_above_iso_bound(self, ellipse, ellipse_nf):
        B = S.sobolev_B(ellipse, ellipse_nf)
        assert B >= 9.6884 / (2 * np.pi) * 0.99
        # regression anchor recorded at h=0.02 (B -> 3.1074 at h=0.01)
        assert abs(B - 3.1057) < 0.05

    def test_radius_scaling(self):
        # B = n / r for balls: halving the radius doubles B
        small = G.build_domain(G.DomainSpec.disk(0.5, 0.01))
        B_small = S.sobolev_B(small)
        assert abs(B_small - 4.0) <= 0.02 * 4.0

    def test_annulus_oracle(self, annulus):
        # closed form: the harmonic extension of nu on {1/2 < r < 1} is
        # (2r - 1/r) r_hat, whose divergence is identically 4
        B = S.sobolev_B(annulus)
        assert abs(B - 4.0) <= 0.02 * 4.0


class TestIsoperimetricBound:
    def test_disk(self, disk):
        assert abs(S.isoperimetric_lower_bound(disk) - 2.0) < 0.02 * 2.0

    def test_ball(self, ball):
        assert abs(S.isoperimetric_lower_bound(ball) - 3.0) < 0.03 * 3.0

    def test_ellipse(self, ellipse):
        expected = 9.6884 / (2 * np.pi)
        assert abs(S.isoperimetric_lower_bound(ellipse) - expected) < 0.02 * expected

    def test_neck_domain_strict_gap(self):
        dom = G.build_domain(G.DomainSpec.levelset(NECK_EXPR, 0.025, 2,
                                                   (-2.3, 2.3)))
        nf = S.harmonic_normal_field(dom)
        B = S.sobolev_B(dom, nf)
        iso_bound = S.isoperimetric_lower_bound(dom)
        assert B >= 1.25 * iso_bound

    @settings(max_examples=5, deadline=None)
    @given(st.tuples(*[st.floats(0.6, 1.4)] * 3))
    @example((0.6, 0.6, 0.6))
    def test_random_ellipsoid_above_bound(self, axes):
        h = 0.15
        dom = G.build_domain(G.DomainSpec.ellipsoid(*axes, h))
        L.reset_solver_stats()
        B = S.sobolev_B(dom)
        # equality holds on spheres, where the discrete |bnd|/|Omega| exceeds
        # the exact 3/r by about 0.7 (h/r)^2
        assert B >= S.isoperimetric_lower_bound(dom) * (1 - (h / min(axes)) ** 2)
        assert L.solver_stats["solves"] == 3
        assert L.solver_stats["max_residual"] <= L.SOLVER_TOL
        assert L.solver_stats["max_principle_violation"] <= 1e-8
        assert L.solver_stats["iterations"] > 0


class TestTraceInequality:
    def test_constant_field_equality(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, ScalarField.constant(disk, 1.0),
            B=disk_nf.sup_div_boundary)
        assert rep.slack >= -rep.eps_disc
        # exactness witness: equality within 2%
        assert abs(rep.slack) <= 0.02 * rep.lhs
        assert abs(rep.lhs - 2 * np.pi) < 0.02 * 2 * np.pi

    def test_linear_field(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, ScalarField.from_function(disk, lambda p: p[:, 0]),
            B=disk_nf.sup_div_boundary)
        # closed forms: lhs = 4, grad term = pi, mass term = B * 4/3
        assert abs(rep.lhs - 4.0) < 0.04
        assert abs(rep.grad_term - np.pi) < 0.04
        assert abs(rep.mass_term - 2.0 * 4.0 / 3.0) < 0.08
        assert rep.slack > 0

    def test_zero_field(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, ScalarField.constant(disk, 0.0),
            B=disk_nf.sup_div_boundary)
        assert rep.lhs == 0.0
        assert rep.slack == 0.0

    def test_battery(self, disk, disk_nf):
        from trace_bounds.cli import w11_battery_fields
        B = disk_nf.sup_div_boundary
        for name, phi in w11_battery_fields(disk):
            rep = S.verify_trace_inequality(disk, phi, B=B)
            assert rep.slack >= -rep.eps_disc, (name, rep.slack, rep.eps_disc)

    def test_battery_on_ellipse(self, ellipse, ellipse_nf):
        B = ellipse_nf.sup_div_boundary
        for fn in (lambda p: np.ones(p.shape[0]),
                   lambda p: p[:, 0],
                   lambda p: p[:, 0] ** 2 - p[:, 1] ** 2):
            phi = ScalarField.from_function(ellipse, fn)
            rep = S.verify_trace_inequality(ellipse, phi, B=B)
            assert rep.slack >= -rep.eps_disc


class TestDivergenceIdentity:
    def test_constant(self, disk, disk_nf):
        res = S.divergence_identity_check(
            disk, disk_nf.field, ScalarField.constant(disk, 1.0))
        assert res <= 0.02 * 2 * np.pi

    def test_x_squared(self, disk, disk_nf):
        psi = ScalarField.from_function(disk, lambda p: p[:, 0] ** 2)
        res = S.divergence_identity_check(disk, disk_nf.field, psi)
        lhs = G.integrate_boundary(disk, psi.boundary)
        assert res <= 0.02 * lhs

    def test_zero(self, disk, disk_nf):
        res = S.divergence_identity_check(
            disk, disk_nf.field, ScalarField.constant(disk, 0.0))
        assert res == 0.0

    def test_rejects_non_normal_field(self, disk):
        w = VectorField.from_function(disk, lambda p: 2.0 * p)
        with pytest.raises(S.NormalFieldError):
            S.divergence_identity_check(disk, w, ScalarField.constant(disk, 1.0))
