import math

import numpy as np
import pytest

from trace_bounds import optimal_bc as O
from trace_bounds.geometry import CheckError
from trace_bounds.ld_trace import harmonic_ek_tensor


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def pair_with_angle(rng, n, theta):
    nu = random_unit(rng, n)
    perp = random_unit(rng, n)
    perp -= (perp @ nu) * nu
    perp /= np.linalg.norm(perp)
    return nu, math.cos(theta) * nu + math.sin(theta) * perp


def optimum(nu, t, norm="vec2"):
    """The closed form for one problem, as a stack of one: (sigma, value)."""
    sigma, value = O.optimal_stress(nu[None], t[None], norm)
    return sigma[0], value[0]


def brute(nu, t, norm="vec2"):
    """The brute-force minimizer for one problem, as a stack of one."""
    return O.brute_force_optimal(nu[None], t[None], norm)[0]


def ek_stress(domain, k):
    """The optimal e_k stress at every boundary node of domain, (M, n, n)."""
    nu = domain.boundary_normal
    return O.optimal_stress(nu, np.broadcast_to(np.eye(domain.dim)[k], nu.shape), "vecInf")[0]


class TestClosedForm:
    def test_traction_along_normal(self, rng):
        nu = random_unit(rng, 3)
        sigma, value = optimum(nu, nu.copy(), "vec2")
        np.testing.assert_allclose(sigma, np.outer(nu, nu), atol=1e-12)
        assert abs(value - 1.0) < 1e-12

    def test_perpendicular_traction_vec2(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 2)
        _, value = optimum(nu, t, "vec2")
        assert abs(value - math.sqrt(2)) < 1e-12

    def test_quarter_angle_vecinf(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 4)
        _, value = optimum(nu, t, "vecInf")
        assert abs(value - 1 / math.sqrt(2)) < 1e-12

    def test_compatibility_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            theta = rng.uniform(0, math.pi)
            nu, t = pair_with_angle(rng, n, theta)
            sigma, _ = optimum(nu, t, "vec2")
            assert np.abs(sigma @ nu - t).max() < 1e-12

    def test_value_depends_only_on_angle(self, rng):
        theta = 0.9371
        values = set()
        for _ in range(20):
            nu, t = pair_with_angle(rng, 3, theta)
            _, value = optimum(nu, t, "vec2")
            values.add(round(value, 12))
        assert len(values) == 1

    def test_frame_third_vector_irrelevant(self, rng):
        # the frame-built sigma uses nu and f2 only (flipping f3 changes
        # nothing), and it is the frame-free closed form
        nu, t = pair_with_angle(rng, 3, 0.7)
        sigma, _ = optimum(nu, t, "vec2")
        frame = O._build_frame(nu, t)
        f1, f2 = frame[:, 0], frame[:, 1]
        cos_t, sin_t = t @ nu, np.linalg.norm(t - (t @ nu) * nu)
        rebuilt = cos_t * np.outer(f1, f1) + sin_t * (np.outer(f1, f2)
                                                      + np.outer(f2, f1))
        np.testing.assert_allclose(rebuilt, sigma, atol=1e-14)

    def test_degenerate_frame_deterministic(self):
        nu = np.array([0.0, 0.0, 1.0])
        a = O._build_frame(nu, nu.copy())
        b = O._build_frame(nu, nu.copy())
        np.testing.assert_array_equal(a, b)

    def test_compatibility_failure_is_named(self, monkeypatch):
        # a loose unit tolerance admits nu = (1.2, 0), for which
        # sigma(nu) - t = 0.44 t breaks sigma(nu) = t
        monkeypatch.setattr(O, "_UNIT_TOL", 0.5)
        with pytest.raises(CheckError, match="compatibility"):
            O.optimal_stress(np.array([[1.2, 0.0]]), np.array([[0.0, 1.0]]), "vec2")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            O.optimal_stress(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]), "vec2")
        # a NaN row is not a unit vector either
        with pytest.raises(ValueError, match="unit vectors"):
            O.optimal_stress(np.array([[1.0, 0.0], [np.nan, 0.0]]), np.ones((2, 2)) / 2 ** 0.5,
                             "vec2")
        with pytest.raises(ValueError):
            O.optimal_stress(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), "op1")
        with pytest.raises(ValueError):
            O.optimal_stress(np.array([[1.0, 0.0, 0.0]]),
                             np.array([[0.0, 0.0, 1.0]]), "op2")
        # NORMS defines op2 in 2D only: a 3D op2 sweep fails in optimal_stress,
        # and so does a sweep of a norm NORMS lacks
        with pytest.raises(ValueError, match="'op2' has no optimal stress in 3D"):
            O.sweep_theta("op2", 5, 3)
        with pytest.raises(ValueError, match="'op1' has no optimal stress in 2D"):
            O.sweep_theta("op1", 5, 2)

    def test_one_stack_covers_every_theta(self, monkeypatch, theta_stack):
        stacks = []
        exact = O.optimal_stress
        monkeypatch.setattr(O, "optimal_stress",
                            lambda nu, t, norm: stacks.append((nu, t)) or exact(nu, t, norm))
        O.sweep_theta("vec2", 5, 3)
        [(nu, t)] = stacks
        # theta_stack builds the same stacks for the closed-form tests
        for got, want in zip((nu, t), theta_stack(5, 3)):
            assert np.array_equal(got, want)


class TestEkConstruction:
    """The axis traction t = e_k: sigma = -nu_k nu (x) nu + nu (x) e_k + e_k (x) nu."""

    def test_axis_normal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        sigma, value = optimum(e1, e1)
        np.testing.assert_allclose(sigma, np.outer(e1, e1), atol=1e-14)
        assert abs(value - 1.0) < 1e-12

    def test_perpendicular_normal(self):
        nu = np.array([0.0, 1.0, 0.0])
        _, value = optimum(nu, np.eye(3)[0])
        assert abs(value - math.sqrt(2)) < 1e-12

    def test_diagonal_normal(self):
        nu = np.ones(3) / math.sqrt(3)
        sigma, value = optimum(nu, np.eye(3)[0])
        assert np.abs(sigma @ nu - np.eye(3)[0]).max() < 1e-12
        assert abs(value - math.sqrt(2 - 1 / 3)) < 1e-12

    def test_bad_axis(self, disk):
        # -1 too: np.eye(dim)[k] would wrap it to the last axis
        for k in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                harmonic_ek_tensor(disk, k)


class TestBruteForce:
    def test_matches_closed_form_vec2(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 2)
        sig = brute(nu, t, "vec2")
        assert np.abs(sig - optimum(nu, t, "vec2")[0]).max() < 1e-3

    def test_traction_along_normal_gives_projector(self, rng):
        nu = random_unit(rng, 3)
        sig = brute(nu, nu.copy(), "vec2")
        assert np.abs(sig - np.outer(nu, nu)).max() < 1e-3

    def test_2d_op2_true_optimum_balances_trace(self):
        # the spectral radius of any compatible sigma is >= |sigma nu| = 1;
        # equality needs trace balance, so sigma_yy = -cos(theta), value 1
        th = math.pi / 3
        nu = np.array([1.0, 0.0])
        t = np.array([math.cos(th), math.sin(th)])
        sig = brute(nu, t, "op2")
        frame = O._build_frame(nu, t)
        fsig = frame.T @ sig @ frame
        assert abs(fsig[1, 1] + math.cos(th)) < 1e-3
        from trace_bounds import matnorm
        op2 = matnorm.symmetric_norms(matnorm._check_sym(sig[None]), ("op2",))["op2"][0]
        assert abs(op2 - 1.0) < 1e-3

    def test_two_sided_optimality_vec2(self, rng):
        for _ in range(10):
            theta = rng.uniform(0, math.pi / 2)
            nu, t = pair_with_angle(rng, 3, theta)
            closed = optimum(nu, t, "vec2")[1]
            found = float(np.sqrt((brute(nu, t, "vec2") ** 2).sum()))
            assert closed <= found + 1e-3
            assert closed >= found - 1e-3


class TestBruteForceStack:
    """A stack of problems is searched problem by problem: the same minimizers
    as one call per problem, bit for bit."""

    @pytest.mark.parametrize("norm,dim", [("vec2", 2), ("vecInf", 2), ("op2", 2),
                                          ("vec2", 3), ("vecInf", 3)])
    def test_stack_matches_loop(self, norm, dim, rng):
        # theta = 0 and pi/2 included: there the vecInf minimizers tie
        thetas = [0.0, math.pi / 2, *rng.uniform(0, math.pi / 2, 3 if dim == 3 else 9)]
        nu, t = map(np.array, zip(*(pair_with_angle(rng, dim, th) for th in thetas)))
        stacked = O.brute_force_optimal(nu, t, norm)
        assert stacked.shape == (len(thetas), dim, dim)
        assert np.array_equal(stacked, np.array([brute(n, v, norm) for n, v in zip(nu, t)]))

    def test_stack_shares_dimension_and_norm(self, rng):
        # one call takes one norm, and nu and t of different shapes raise
        nu, t = pair_with_angle(rng, 3, 0.3)
        for call in (O.brute_force_optimal, O.optimal_stress):
            with pytest.raises(ValueError, match="stacks of one shape"):
                call(nu[None, :2], t[None], "vec2")
            with pytest.raises(ValueError, match="stacks of one shape"):
                call(np.array([nu, nu]), t[None], "vec2")


class TestWorstCase:
    def test_exact_values(self, theta_stack):
        assert O.worst_case_D("vec2") == math.sqrt(2)
        assert O.worst_case_D("vecInf") == 1.0
        # the closed forms are exactly the maximum over a 361-angle sweep
        for norm in ("vec2", "vecInf"):
            for d in (2, 3):
                _, values = O.optimal_stress(*theta_stack(361, d), norm)
                assert values.max() == O.worst_case_D(norm)

    def test_unsupported_norm(self):
        with pytest.raises(ValueError):
            O.worst_case_D("op1")

    def test_brute_force_sweep_bracket(self):
        sweep = O.sweep_theta("vec2", 91, 3)
        best = sweep["brute_force"].max()
        assert math.sqrt(2) - 1e-3 <= best <= math.sqrt(2) + 1e-9
        assert sweep["max_entry_gap"] <= 1e-3

    def test_vecinf_sweep(self):
        sweep = O.sweep_theta("vecInf", 91, 3)
        assert abs(sweep["max_closed_form"] - 1.0) < 1e-15
        assert sweep["max_entry_gap"] <= 1e-3


class TestBoundaryTensors:
    def test_sphere_sup_vec2_attains_D(self, ball):
        _, diag = harmonic_ek_tensor(ball, 0)
        assert abs(diag.sup_vec2_boundary - math.sqrt(2)) < 1e-2

    def test_axis_node_projector(self, disk):
        # at a node whose normal is nearly e_x the tensor is nearly e_x ox e_x
        i = int(np.argmax(disk.boundary_normal[:, 0]))
        sig = ek_stress(disk, 0)[i]
        nu = disk.boundary_normal[i]
        expected = (-nu[0] * np.outer(nu, nu)
                    + np.outer(nu, np.eye(2)[0]) + np.outer(np.eye(2)[0], nu))
        np.testing.assert_allclose(sig, expected, atol=1e-12)

    def test_circle_compatibility_every_node(self, disk):
        sig = ek_stress(disk, 1)
        resid = np.einsum("mij,mj->mi", sig, disk.boundary_normal) - np.eye(2)[1]
        assert np.abs(resid).max() < 1e-12

    def test_depends_only_on_normal(self, disk, ellipse):
        # same normal direction on two different domains -> same tensor
        i = int(np.argmax(disk.boundary_normal[:, 0]))
        j = int(np.argmax(ellipse.boundary_normal[:, 0]))
        nu_i = disk.boundary_normal[i]
        nu_j = ellipse.boundary_normal[j]
        assert np.abs(nu_i - nu_j).max() < 1e-6
        a = ek_stress(disk, 0)[i]
        b = ek_stress(ellipse, 0)[j]
        assert np.abs(a - b).max() < 1e-5

    def test_continuity_along_boundary(self, disk_coarse, disk):
        # adjacent-node entry jumps shrink with h
        def max_adjacent_jump(dom):
            angles = np.arctan2(dom.boundary_pos[:, 1], dom.boundary_pos[:, 0])
            order = np.argsort(angles)
            sig = ek_stress(dom, 0)[order]
            jumps = np.abs(np.diff(sig, axis=0)).max(axis=(1, 2))
            wrap = np.abs(sig[0] - sig[-1]).max()
            return max(jumps.max(), wrap)

        coarse = max_adjacent_jump(disk_coarse)
        fine = max_adjacent_jump(disk)
        assert fine <= 0.6 * coarse + 1e-12
