import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.spatial import ConvexHull

from trace_bounds import geometry as G


# Expression trees for the parser property test: ("var", name), ("num", value),
# ("neg", a), ("pow", base, k), ("call", name, args) and (op, a, b) for + - * /.
_LEAVES = st.one_of(st.sampled_from([("var", "x"), ("var", "y")]),
                    st.sampled_from([0, 1, 2, 3, 0.5, 1.25]).map(lambda v: ("num", v)))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("call"), st.just("abs"), st.tuples(children)),
        st.tuples(st.just("call"), st.sampled_from(["min", "max"]),
                  st.tuples(children, children)))


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)

# binding strength: + - < * / < unary minus < ^ < atoms
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4}


def render(tree):
    """(text, binding strength) with only the parentheses precedence needs."""
    def operand(sub, need):
        text, prec = render(sub)
        return text if prec >= need else f"({text})"

    kind = tree[0]
    if kind == "var":
        return tree[1], 5
    if kind == "num":
        return repr(tree[1]), 5
    if kind == "call":
        return f"{tree[1]}({', '.join(render(a)[0] for a in tree[2])})", 5
    if kind == "neg":
        return "-" + operand(tree[1], 3), 3
    if kind == "pow":  # right-associative, so a power base needs parentheses
        return f"{operand(tree[1], 5)}^{tree[2]}", 4
    prec = _PREC[kind]  # left-associative binary operator
    return f"{operand(tree[1], prec)} {kind} {operand(tree[2], prec + 1)}", prec


def evaluate(tree, x, y):
    """Direct NumPy evaluation of a tree."""
    kind = tree[0]
    if kind == "var":
        return x if tree[1] == "x" else y
    if kind == "num":
        return np.full_like(x, tree[1])
    if kind == "neg":
        return -evaluate(tree[1], x, y)
    if kind == "pow":
        return evaluate(tree[1], x, y) ** float(tree[2])
    if kind == "call":
        fn = {"abs": np.abs, "min": np.minimum, "max": np.maximum}[tree[1]]
        return fn(*(evaluate(a, x, y) for a in tree[2]))
    a, b = evaluate(tree[1], x, y), evaluate(tree[2], x, y)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[kind](a, b)


def ellipse_perimeter(a, b):
    """Independent oracle: adaptive quadrature of the arclength integral."""
    val, _ = quad(lambda t: np.sqrt(a**2 * np.sin(t)**2 + b**2 * np.cos(t)**2),
                  0.0, 2.0 * np.pi, limit=200)
    return val


class TestDomainSpec:
    def test_constructors_validate(self):
        with pytest.raises(G.GeometryError):
            G.DomainSpec.disk(-1.0, 0.02)
        with pytest.raises(G.GeometryError):
            G.DomainSpec.disk(1.0, 0.0)
        with pytest.raises(G.GeometryError):
            G.DomainSpec.annulus(1.0, 0.5, 0.02)
        with pytest.raises(G.GeometryError):
            G.DomainSpec(kind="banana", h=0.1, dim=2)
        with pytest.raises(G.GeometryError):
            G.DomainSpec(kind="disk", h=0.1, dim=3, radius=1.0)
        with pytest.raises(G.GeometryError):
            G.DomainSpec.levelset("", 0.1)

    def test_levelset_expression_language(self):
        fn = G.parse_levelset_expression("min(x^2+y^2-1, max(x, -y))", 2)
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [-3.0, 1.0]])
        expected = np.minimum(pts[:, 0]**2 + pts[:, 1]**2 - 1,
                              np.maximum(pts[:, 0], -pts[:, 1]))
        np.testing.assert_allclose(fn(pts), expected, rtol=1e-14)
        fn3 = G.parse_levelset_expression("sqrt(x^2+y^2+z^2) - 1.5", 3)
        p3 = np.array([[1.0, 1.0, 1.0]])
        np.testing.assert_allclose(fn3(p3), np.sqrt(3) - 1.5)

    def test_expression_division_and_precedence(self):
        fn = G.parse_levelset_expression("(x/2)^2 + y^2 - 1", 2)
        pts = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(fn(pts), (pts[:, 0] / 2)**2 + pts[:, 1]**2 - 1,
                                   rtol=1e-14)
        fn2 = G.parse_levelset_expression("2 - 3 - 1", 2)  # left assoc
        assert fn2(np.zeros((1, 2)))[0] == -2.0
        fn3 = G.parse_levelset_expression("2^3^2", 2)  # right assoc
        assert fn3(np.zeros((1, 2)))[0] == 512.0
        # ^ binds tighter than unary minus
        at_half = np.array([[0.5, 0.0]])
        for text, value in (("-x^2", -0.25), ("-x^2+1", 0.75), ("-2^2", -4.0),
                            ("2^-1", 0.5)):
            assert G.parse_levelset_expression(text, 2)(at_half)[0] == value

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_parser_matches_tree_evaluation(self, tree):
        x, y = (c.ravel() for c in np.meshgrid(np.linspace(-1.7, 1.9, 7),
                                               np.linspace(-1.3, 2.1, 7)))
        text = render(tree)[0]
        with np.errstate(all="ignore"):
            got = G.parse_levelset_expression(text, 2)(np.stack([x, y], axis=-1))
            want = evaluate(tree, x, y)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite, err_msg=text)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, err_msg=text)

    def test_expression_gradient_rules(self):
        # every rule but min/max (tested on kinks below) against the gradient
        # derived by hand: with s = x^2 + y^2 + 1,
        # phi = x y^3 - 2/(x^2 + 1) + s^0.75 + y
        phi = G._compile_expression("x*y^3 - 2/(x^2+1) + sqrt(x^2+y^2+1)^1.5 - -y", 2)
        p = np.random.default_rng(5).uniform(-2.0, 2.0, (200, 2))
        x, y = p.T
        s = x ** 2 + y ** 2 + 1
        want = np.stack([y ** 3 + 4 * x / (x ** 2 + 1) ** 2 + 1.5 * x * s ** -0.25,
                         3 * x * y ** 2 + 1.5 * y * s ** -0.25 + 1], axis=-1)
        value, grad = phi(p, True)
        np.testing.assert_allclose(value, x * y ** 3 - 2 / (x ** 2 + 1) + s ** 0.75 + y,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(grad, want, rtol=1e-13, atol=1e-13)
        assert phi(p, False)[1] is None

    def test_expression_errors(self):
        for bad in ("x +", "foo(x)", "x ~ y", "min(x)", "(x", "x) y",
                    # only whitelisted syntax, never Python
                    "x**2", '__import__("os")', "x.real", "x[0]", "1j", "True",
                    "lambda: 1", "x < y", "min(x, y=1)",
                    # the exponent of ^ is a constant
                    "x^y", "2^x",
                    # too deep for the parser or the compiler
                    "(" * 300 + "x" + ")" * 300, "+".join(["x"] * 2000)):
            with pytest.raises(G.GeometryError):
                G.parse_levelset_expression(bad, 2)
        with pytest.raises(G.GeometryError):
            G.parse_levelset_expression("z", 2)  # z needs dim 3


class TestBuildDomain:
    def test_disk_measures(self, disk):
        assert abs(disk.volume - np.pi) / np.pi < 0.01
        assert abs(disk.area - 2 * np.pi) / (2 * np.pi) < 0.01

    def test_ball_measures(self, ball):
        assert abs(ball.volume - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.03
        assert abs(ball.area - 4 * np.pi) / (4 * np.pi) < 0.03

    def test_ellipse_measures(self, ellipse):
        perimeter = ellipse_perimeter(2.0, 1.0)
        assert abs(perimeter - 9.6884) < 1e-3  # anchor the oracle itself
        assert abs(ellipse.volume - 2 * np.pi) / (2 * np.pi) < 0.01
        assert abs(ellipse.area - perimeter) / perimeter < 0.01

    def test_ellipsoid_measures(self):
        dom = G.build_domain(G.DomainSpec.ellipsoid(1.5, 1.0, 0.75, 0.1))
        exact_volume = 4 * np.pi / 3 * 1.5 * 1.0 * 0.75
        assert abs(dom.volume - exact_volume) / exact_volume < 0.03
        # Thomsen's approximation is good to ~1% for these axis ratios
        p = 1.6075
        approx_area = 4 * np.pi * (((1.5 * 1.0)**p + (1.5 * 0.75)**p
                                    + (1.0 * 0.75)**p) / 3) ** (1 / p)
        assert abs(dom.area - approx_area) / approx_area < 0.03
        assert np.abs(np.linalg.norm(dom.boundary_normal, axis=1) - 1).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_polyhedron_exact(self, dim, h):
        # diamond / octahedron |x-c|_1 = r centred on a grid node: the level set
        # is linear on every simplex, so the facet surface is the polyhedron
        r, centre = 0.537, np.array([0.1, -0.2, 0.3])[:dim]
        expr = "+".join(f"abs({v}-({c}))" for v, c in zip("xyz", centre)) + f"-{r}"
        dom = G.build_domain(G.DomainSpec.levelset(expr, h, dim, (-1.0, 1.0)))
        area = 4 * np.sqrt(2) * r if dim == 2 else 4 * np.sqrt(3) * r ** 2
        volume = 2 * r ** 2 if dim == 2 else 4 / 3 * r ** 3
        assert abs(dom.area - area) <= 1e-12 * area
        assert abs(dom.boundary_weight.sum() - area) <= 1e-12 * area
        # first moment: centroid rule on flat facets, then symmetry about c
        moment = dom.boundary_weight @ dom.boundary_pos
        assert np.abs(moment - centre * area).max() <= 1e-12 * area
        # the volume fraction jitters ties by 1e-11
        assert abs(dom.volume - volume) <= 1e-8 * volume

    def test_levelset_sphere_3d(self):
        dom = G.build_domain(G.DomainSpec.levelset("x^2+y^2+z^2-1", 0.15, 3,
                                                   (-1.5, 1.5)))
        assert abs(dom.volume - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.05
        exact = dom.boundary_pos / np.linalg.norm(dom.boundary_pos, axis=1,
                                                  keepdims=True)
        # the normals are the exact gradient of phi, normalized
        assert np.abs(dom.boundary_normal - exact).max() <= 1e-15

    def test_domain_is_frozen(self, disk):
        with pytest.raises(dataclasses.FrozenInstanceError):
            disk.h = 0.01

    def test_normals_are_unit(self, disk, ball, ellipse, annulus):
        # to round-off: laplace derives one harmonic extension per identity
        # H[nu_a] = sum_b H[nu_a nu_b^2], which holds because |nu|^2 = 1
        domains = [disk, ball, ellipse, annulus,
                   G.build_domain(G.DomainSpec.ellipsoid(1.2, 0.9, 0.7, 0.15)),
                   G.build_domain(G.DomainSpec.levelset("x^4 + 2*y^2 - 1", 0.05, 2)),
                   G.build_domain(G.DomainSpec.levelset(
                       "((x-0.13)/1.0)^2 + ((y+0.21)/0.8)^2 + ((z-0.07)/0.6)^2 - 1",
                       0.15, dim=3))]
        assert {dom.spec.kind for dom in domains} == set(G.SHAPES)
        for dom in domains:
            squared = np.sum(dom.boundary_normal ** 2, axis=1)
            assert np.abs(squared - 1.0).max() <= 1e-14

    def test_interior_levelset_negative(self, disk):
        assert (disk.phi.ravel()[disk.interior_flat] < 0).all()

    @pytest.mark.parametrize("spec,n", [
        (G.DomainSpec.disk(1.0, 0.02), 2),
        (G.DomainSpec.ball(1.0, 0.1), 3),
    ])
    def test_divergence_theorem(self, spec, n):
        # both sides computed independently: surface flux of w(x)=x vs n|Omega|
        dom = G.build_domain(spec)
        flux = G.integrate_boundary(
            dom, np.sum(dom.boundary_pos * dom.boundary_normal, axis=1))
        assert abs(flux - n * dom.volume) / (n * dom.volume) < 0.02

    def test_refinement_first_order(self):
        errs_v, errs_a = [], []
        for h in (0.08, 0.04, 0.02):
            dom = G.build_domain(G.DomainSpec.disk(1.0, h))
            errs_v.append(abs(dom.volume - np.pi))
            errs_a.append(abs(dom.area - 2 * np.pi))
        # at least first order: error at h/2 no worse than ~0.75 of error at h
        floor = 1e-9
        assert errs_v[1] <= 0.75 * errs_v[0] + floor
        assert errs_v[2] <= 0.75 * errs_v[1] + floor
        assert errs_a[1] <= 0.75 * errs_a[0] + floor
        assert errs_a[2] <= 0.75 * errs_a[1] + floor

    def test_too_coarse_raises(self):
        # a small disk centred between grid nodes contains none of them
        spec = G.DomainSpec.levelset("(x-0.05)^2+(y-0.05)^2-0.0016", 0.1, 2,
                                     (-0.5, 0.5))
        with pytest.raises(G.GeometryError, match="too coarse"):
            G.build_domain(spec)

    def test_unbounded_levelset_raises(self):
        with pytest.raises(G.GeometryError, match="not bounded"):
            G.build_domain(G.DomainSpec.levelset("x", 0.1, 2, (-1.0, 1.0)))

    def test_node_cap(self):
        # default cap is ~128^3 nodes; a 0.01-spaced ball grid exceeds it
        with pytest.raises(G.GeometryError, match="cap"):
            G.build_domain(G.DomainSpec.ball(1.0, 0.01))
        # the cap can be tightened explicitly
        with pytest.raises(G.GeometryError, match="cap"):
            G.build_domain(G.DomainSpec.ball(1.0, 0.1), max_nodes=1000)

    def test_levelset_numeric_normals_match_exact(self):
        dom = G.build_domain(G.DomainSpec.levelset("x^2+y^2-1", 0.05, 2, (-1.5, 1.5)))
        exact = dom.boundary_pos / np.linalg.norm(dom.boundary_pos, axis=1,
                                                  keepdims=True)
        assert np.abs(dom.boundary_normal - exact).max() <= 1e-15

    @pytest.mark.parametrize("expr", ["abs(x) + y^2 - 1", "max(-x, x) + y^2 - 1"])
    def test_kink_normal_is_mean_of_branches(self, expr):
        # at a min/max tie the gradient is the mean of both branch gradients,
        # so abs at 0 gives 0: the kinks (0, +-1) get the normals (0, +-1)
        dom = G.build_domain(G.DomainSpec.levelset(expr, 0.1, 2, (-2.0, 2.0)))
        kinks = np.flatnonzero(dom.boundary_pos[:, 0] == 0.0)
        assert kinks.size == 2
        np.testing.assert_array_equal(dom.boundary_normal[kinks],
                                      [[0.0, np.sign(y)] for y in dom.boundary_pos[kinks, 1]])

    def test_cusp_without_normal_raises(self):
        # the gradient of sqrt(abs(x)) is not finite at x = 0, so the cusps
        # at (0, +-1) have no normal; the error names the position
        spec = G.DomainSpec.levelset("sqrt(abs(x)) + y^2 - 1", 0.1, 2)
        with pytest.raises(G.GeometryError,
                           match=r"no outward normal at boundary position \[0\.0, "):
            G.build_domain(spec)

    def test_annulus_two_loops(self, annulus):
        radii = np.linalg.norm(annulus.boundary_pos, axis=1)
        assert (radii < 0.75).any() and (radii > 0.75).any()
        inner = radii < 0.75
        # inner normals point into the hole
        dots = np.sum(annulus.boundary_normal[inner]
                      * annulus.boundary_pos[inner], axis=1)
        assert (dots < 0).all()


# Reference closed forms per kind: phi, and an outward direction whose
# normalization is the exact normal. The SHAPES templates must give the same
# domain bit for bit.
def per_kind_formulas(spec):
    if spec.kind in ("disk", "ball"):
        r2 = spec.radius ** 2
        return lambda p: np.sum(p * p, axis=-1) - r2, lambda p: p
    if spec.kind in ("ellipse", "ellipsoid"):
        axes = np.array([spec.a, spec.b, spec.c][: spec.dim])
        return lambda p: np.sum((p / axes) ** 2, axis=-1) - 1.0, lambda p: p / axes ** 2
    ri2, ro2, mid = spec.r_in ** 2, spec.r_out ** 2, 0.5 * (spec.r_in + spec.r_out)
    return (lambda p: np.maximum(np.sum(p * p, axis=-1) - ro2, ri2 - np.sum(p * p, axis=-1)),
            lambda p: np.where(np.linalg.norm(p, axis=-1, keepdims=True) > mid, p, -p))


class TestShapeTemplates:
    @pytest.mark.parametrize("spec", [
        G.DomainSpec.disk(1.0, 0.02), G.DomainSpec.disk(1.0, 0.005),
        G.DomainSpec.ball(1.0, 0.1), G.DomainSpec.ball(1.0, 0.05),
        G.DomainSpec.ellipse(2.0, 1.0, 0.02), G.DomainSpec.annulus(0.5, 1.0, 0.02),
        G.DomainSpec.ellipsoid(1.2, 0.9, 0.7, 0.05)], ids=lambda spec: spec.kind)
    def test_match_per_kind_formulas(self, spec, monkeypatch):
        # every Domain array is bit-identical to one built from the per-kind
        # formulas; only the ellipsoid's normals move, by round-off
        dom = G.build_domain(spec)
        phi, direction = per_kind_formulas(spec)
        monkeypatch.setattr(G, "_compile_expression", lambda text, dim: (
            lambda p, grad: (phi(p), direction(p) if grad else None)))
        oracle = G.build_domain(spec)
        for name in (f.name for f in dataclasses.fields(G.Domain)):
            if name in ("spec", "_cache"):
                continue
            if spec.kind == "ellipsoid" and name == "boundary_normal":
                assert np.abs(dom.boundary_normal - oracle.boundary_normal).max() <= 4.4e-16
            else:
                assert np.array_equal(getattr(dom, name), getattr(oracle, name)), name

    def test_levelset_function_is_the_template(self):
        spec = G.DomainSpec.annulus(0.5, 1.0, 0.02)
        pts = np.random.default_rng(3).uniform(-1.2, 1.2, (50, 2))
        assert np.array_equal(spec.levelset_function()(pts), per_kind_formulas(spec)[0](pts))


class TestQuadrature:
    def test_volume_constant(self, disk):
        val = G.integrate_volume(disk, np.ones(disk.n_interior))
        assert abs(val - np.pi) / np.pi < 0.01

    def test_volume_odd_function(self, disk):
        val = G.integrate_volume(disk, disk.interior_coords[:, 0])
        assert abs(val) < 1e-2 * np.pi

    def test_volume_x_squared(self, disk):
        # polar oracle: int r^2 cos^2 = pi/4
        val = G.integrate_volume(disk, disk.interior_coords[:, 0] ** 2)
        assert abs(val - np.pi / 4) / (np.pi / 4) < 0.01

    def test_boundary_constant(self, disk):
        val = G.integrate_boundary(disk, np.ones(disk.n_boundary))
        assert abs(val - 2 * np.pi) / (2 * np.pi) < 0.01

    def test_boundary_odd(self, disk):
        val = G.integrate_boundary(disk, disk.boundary_normal[:, 0])
        assert abs(val) < 1e-2

    def test_boundary_nu_x_squared(self, disk):
        # int cos^2 over the circle = pi
        val = G.integrate_boundary(disk, disk.boundary_normal[:, 0] ** 2)
        assert abs(val - np.pi) / np.pi < 0.01

    def test_nonfinite_rejected(self, disk):
        bad = np.ones(disk.n_interior)
        bad[0] = np.nan
        with pytest.raises(G.GeometryError):
            G.integrate_volume(disk, bad)
        badb = np.ones(disk.n_boundary)
        badb[0] = np.inf
        with pytest.raises(G.GeometryError):
            G.integrate_boundary(disk, badb)

    def test_shape_mismatch_rejected(self, disk):
        with pytest.raises(G.GeometryError):
            G.integrate_volume(disk, np.ones(3))


class TestSimplexFraction:
    def test_against_convex_hull_oracle(self, rng):
        # independent geometric oracle: clip the simplex and take hull volume
        for _ in range(200):
            d = int(rng.integers(2, 4))
            verts = rng.normal(size=(d + 1, d))
            vals = rng.normal(size=d + 1)
            frac = G._simplex_inside_fraction(vals[None])[0]
            pts = [verts[i] for i in range(d + 1) if vals[i] < 0]
            for i in range(d + 1):
                for j in range(i + 1, d + 1):
                    if (vals[i] < 0) != (vals[j] < 0):
                        t = vals[i] / (vals[i] - vals[j])
                        pts.append(verts[i] + t * (verts[j] - verts[i]))
            if len(pts) <= d:
                expected = 0.0
            else:
                try:
                    expected = (ConvexHull(np.array(pts), qhull_options="QJ").volume
                                / ConvexHull(verts, qhull_options="QJ").volume)
                except Exception:
                    continue
            assert abs(frac - expected) < 1e-5

    def test_tie_values(self):
        assert abs(G._simplex_inside_fraction(np.array([[-1., -1., 1., 1.]]))[0]
                   - 0.5) < 1e-6
        assert abs(G._simplex_inside_fraction(np.array([[-1., 1., 1., 1.]]))[0]
                   - 0.125) < 1e-6
        assert G._simplex_inside_fraction(np.array([[1., 1., 1., 1.]]))[0] == 0.0
        assert G._simplex_inside_fraction(np.array([[-1., -1., -1., -1.]]))[0] == 1.0
