import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trace_bounds import geometry as G, laplace as L, ld_trace as LD, sobolev_trace as S
from trace_bounds.fields import Field

NECK_EXPR = ("min(min((x-1.1)^2+y^2-1,(x+1.1)^2+y^2-1),"
             "max(x^2-1.21,y^2-0.015625))")
SHELL_EXPR = "max(x^2+y^2+z^2-1, 0.25-x^2-y^2-z^2)"
# the perfbench torus3d shape, centred and with the offset of its seed 1
TORUS_EXPR = "(sqrt((x{:+.6f})^2 + (y{:+.6f})^2) - 1)^2 + (z{:+.6f})^2 - 0.16"


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
        err = np.abs(disk_nf.field.interior - disk.interior_coords).max()
        assert err <= 5 * disk.h
        assert np.abs(disk_nf.divergence.interior - 2.0).max() <= 10 * disk.h

    def test_ball_extends_identity(self, ball, ball_nf):
        err = np.abs(ball_nf.field.interior - ball.interior_coords).max()
        assert err <= 5 * ball.h
        assert np.abs(ball_nf.divergence.interior - 3.0).max() <= 10 * ball.h

    def test_boundary_values_are_normals(self, disk, disk_nf):
        assert np.abs(disk_nf.field.boundary - disk.boundary_normal).max() < 1e-12

    def test_magnitude_bound(self, ellipse, ellipse_nf):
        mags = np.linalg.norm(ellipse_nf.field.interior, axis=1)
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

    # Closed forms off the ball, both equal to |bnd|/|Omega|: B = 2/(r_o - r_i)
    # on the annulus r_i < r < r_o and 3(r_o^2 + r_i^2)/(r_o^3 - r_i^3) on the
    # spherical shell, 4 and 30/7 for (1/2, 1). Measured errors: annulus
    # 3.61e-2, 1.03e-2, 2.51e-3; shell 0.811, 0.215. Only round-off (~1e-12)
    # moves them without a change to the discretization, so each is held to
    # 1.2x its measured value: the margin covers the three-digit rounding and
    # a rework of the boundary treatment that costs at most a fifth of the
    # error, while a change that loses accuracy at one level fails. The
    # error must fall at every halving; no order is assumed.
    @pytest.mark.parametrize("spec, exact, errors", [
        (lambda h: G.DomainSpec.annulus(0.5, 1.0, h), 4.0,
         {0.04: 3.61e-2, 0.02: 1.03e-2, 0.01: 2.51e-3}),
        (lambda h: G.DomainSpec.levelset(SHELL_EXPR, h, 3, (-1.3, 1.3)), 30 / 7,
         {0.1: 0.811, 0.05: 0.215}),
    ], ids=["annulus", "shell"])
    def test_refinement_off_the_ball(self, spec, exact, errors):
        error = [abs(S.sobolev_B(G.build_domain(spec(h))) - exact) for h in errors]
        assert all(fine < coarse for coarse, fine in zip(error, error[1:]))
        for got, measured in zip(error, errors.values()):
            assert got <= 1.2 * measured


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

    def test_neck_argument_order(self):
        # a min/max tie takes the mean of both branch gradients, so the normals
        # at the neck's kinks, and B, do not depend on the argument order
        swapped = ("min(max(y^2-0.015625,x^2-1.21),"
                   "min((x+1.1)^2+y^2-1,(x-1.1)^2+y^2-1))")
        a, b = (G.build_domain(G.DomainSpec.levelset(expr, 0.025, 2, (-2.3, 2.3)))
                for expr in (NECK_EXPR, swapped))
        assert np.array_equal(a.boundary_normal, b.boundary_normal)
        assert S.sobolev_B(a) == S.sobolev_B(b)

    @settings(max_examples=5, deadline=None)
    @given(st.tuples(*[st.floats(0.6, 1.4)] * 3))
    @example((0.6, 0.6, 0.6))
    def test_random_ellipsoid_above_bound(self, axes):
        h = 0.15
        dom = G.build_domain(G.DomainSpec.ellipsoid(*axes, h))
        B = S.sobolev_B(dom)
        # equality holds on spheres, where the discrete |bnd|/|Omega| exceeds
        # the exact 3/r by about 0.7 (h/r)^2
        assert B >= S.isoperimetric_lower_bound(dom) * (1 - (h / min(axes)) ** 2)
        stats = L.solver_stats(dom)
        assert stats["solves"] == 3
        assert stats["max_residual"] <= L.SOLVER_TOL
        assert stats["max_principle_violation"] <= 1e-8
        assert stats["iterations"] > 0


class TestScaleCovariance:
    # B and B_LD scale as 1/r: r*B(r Omega), with phi_r(x) = phi(x/r) on a
    # grid of spacing r*h, agrees with B(Omega) up to round-off. A normal
    # rule whose error does not scale with the domain, such as a central
    # difference with an absolute step of 1e-6, spreads these by 3.1e-9 on
    # the ellipse and by 3.1e-8 .. 3.2e-7 on the tori.
    @pytest.mark.parametrize("expr,dim,h,half,tol", [
        ("((x-0.13)/1.0)^2 + ((y+0.21)/0.7)^2 - 1", 2, 0.05, 1.5, 1e-13),
        (TORUS_EXPR.format(0, 0, 0), 3, 0.08, 1.6, 1e-13),
        # at this offset one crossing lies 4.1e-6 h from its grid node, and
        # that arm's stencil weight amplifies round-off: a 1e-10 perturbation
        # of the normals moves B_LD by 6.4e-8 here. Measured spread 1.5e-13.
        (TORUS_EXPR.format(0.018282, -0.017372, -0.013189), 3, 0.08, 1.6, 1e-12),
    ], ids=["ellipse", "torus", "torus-offset"])
    def test_one_over_r(self, expr, dim, h, half, tol):
        values = []
        for r in (1, 2, 3, 100):
            scaled = expr.replace("x", f"(x/{r})").replace("y", f"(y/{r})").replace("z", f"(z/{r})")
            dom = G.build_domain(G.DomainSpec.levelset(scaled, r * h, dim, (-half * r, half * r)))
            values.append([r * S.sobolev_B(dom), r * LD.ld_bounds(dom, "vec2").B])
        values = np.array(values)
        assert np.abs(values / values[0] - 1).max() <= tol


class TestTraceInequality:
    def test_constant_field_equality(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, Field.constant(disk, 1.0),
            B=disk_nf.sup_div_boundary)
        assert rep.slack >= -rep.eps_disc
        # exactness witness: equality within 2%
        assert abs(rep.slack) <= 0.02 * rep.lhs
        assert abs(rep.lhs - 2 * np.pi) < 0.02 * 2 * np.pi

    def test_linear_field(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, Field.from_function(disk, lambda p: p[:, 0]),
            B=disk_nf.sup_div_boundary)
        # closed forms: lhs = 4, grad term = pi, mass term = B * 4/3
        assert abs(rep.lhs - 4.0) < 0.04
        assert abs(rep.grad_term - np.pi) < 0.04
        assert abs(rep.mass_term - 2.0 * 4.0 / 3.0) < 0.08
        assert rep.slack > 0

    def test_zero_field(self, disk, disk_nf):
        rep = S.verify_trace_inequality(
            disk, Field.constant(disk, 0.0),
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
            phi = Field.from_function(ellipse, fn)
            rep = S.verify_trace_inequality(ellipse, phi, B=B)
            assert rep.slack >= -rep.eps_disc


def divergence_identity_residual(domain, n, psi):
    """|int_bnd psi - int n . grad psi - int (div n) psi| from the interior
    derivatives; for a normal field n (n = nu on the boundary) the divergence
    theorem makes it zero up to quadrature error."""
    lhs = G.integrate_boundary(domain, psi.boundary)
    transport = G.integrate_volume(domain, np.sum(n.interior * L._derivatives(psi), axis=1))
    compression = G.integrate_volume(domain, L._divergence(n) * psi.interior)
    return abs(lhs - transport - compression)


class TestDivergenceIdentity:
    def test_constant(self, disk, disk_nf):
        res = divergence_identity_residual(
            disk, disk_nf.field, Field.constant(disk, 1.0))
        assert res <= 0.02 * 2 * np.pi

    def test_x_squared(self, disk, disk_nf):
        psi = Field.from_function(disk, lambda p: p[:, 0] ** 2)
        res = divergence_identity_residual(disk, disk_nf.field, psi)
        lhs = G.integrate_boundary(disk, psi.boundary)
        assert res <= 0.02 * lhs

    def test_zero(self, disk, disk_nf):
        res = divergence_identity_residual(
            disk, disk_nf.field, Field.constant(disk, 0.0))
        assert res == 0.0

    def test_rejects_non_normal_field(self, disk):
        # n = 2x is 2 nu on the unit circle: int div n = 4 pi, not int_bnd 1 = 2 pi
        w = Field.from_function(disk, lambda p: 2.0 * p)
        res = divergence_identity_residual(disk, w, Field.constant(disk, 1.0))
        assert abs(res - 2 * np.pi) <= 0.02 * 2 * np.pi
