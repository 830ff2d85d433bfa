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


class TestClosedForm:
    def test_traction_along_normal(self, rng):
        nu = random_unit(rng, 3)
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=nu.copy(), norm="vec2"))
        np.testing.assert_allclose(bc.sigma, np.outer(nu, nu), atol=1e-12)
        assert abs(bc.value - 1.0) < 1e-12

    def test_perpendicular_traction_vec2(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 2)
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=t, norm="vec2"))
        assert abs(bc.value - math.sqrt(2)) < 1e-12

    def test_quarter_angle_vecinf(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 4)
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=t, norm="vecInf"))
        assert abs(bc.value - 1 / math.sqrt(2)) < 1e-12

    def test_compatibility_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            theta = rng.uniform(0, math.pi)
            nu, t = pair_with_angle(rng, n, theta)
            bc = O.optimal_stress(O.TractionProblem(nu=nu, t=t, norm="vec2"))
            assert np.abs(bc.sigma @ nu - t).max() < 1e-12

    def test_value_depends_only_on_angle(self, rng):
        theta = 0.9371
        values = set()
        for _ in range(20):
            nu, t = pair_with_angle(rng, 3, theta)
            bc = O.optimal_stress(O.TractionProblem(nu=nu, t=t, norm="vec2"))
            values.add(round(bc.value, 12))
        assert len(values) == 1

    def test_frame_third_vector_irrelevant(self, rng):
        # sigma is built from nu and f2 only; flipping f3 changes nothing
        nu, t = pair_with_angle(rng, 3, 0.7)
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=t, norm="vec2"))
        f1, f2 = bc.frame[:, 0], bc.frame[:, 1]
        cos_t, sin_t = t @ nu, np.linalg.norm(t - (t @ nu) * nu)
        rebuilt = cos_t * np.outer(f1, f1) + sin_t * (np.outer(f1, f2)
                                                      + np.outer(f2, f1))
        np.testing.assert_allclose(rebuilt, bc.sigma, atol=1e-14)

    def test_degenerate_frame_deterministic(self):
        nu = np.array([0.0, 0.0, 1.0])
        a = O.optimal_stress(O.TractionProblem(nu=nu, t=nu.copy(), norm="vec2"))
        b = O.optimal_stress(O.TractionProblem(nu=nu, t=nu.copy(), norm="vec2"))
        np.testing.assert_array_equal(a.frame, b.frame)

    def test_compatibility_failure_is_named(self, monkeypatch):
        # a frame whose second vector is nu itself breaks sigma(nu) = t
        monkeypatch.setattr(O, "_build_frame",
                            lambda nu, t: np.stack([nu, nu], axis=1))
        problem = O.TractionProblem(nu=np.array([1.0, 0.0]), t=np.array([0.0, 1.0]))
        with pytest.raises(CheckError, match="compatibility"):
            O.optimal_stress(problem)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            O.TractionProblem(nu=np.array([1.0, 1.0]), t=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            O.TractionProblem(nu=np.array([1.0, 0.0]),
                              t=np.array([0.0, 1.0]), norm="op1")
        with pytest.raises(ValueError):
            O.TractionProblem(nu=np.array([1.0, 0.0, 0.0]),
                              t=np.array([0.0, 0.0, 1.0]), norm="op2")
        # NORMS defines op2 in 2D only: a 3D op2 sweep fails in TractionProblem
        with pytest.raises(ValueError, match="'op2' has no optimal stress in 3D"):
            O.sweep_theta("op2", dim=3)
        with pytest.raises(ValueError, match="unsupported norm 'op1'"):
            O.sweep_theta("op1")

    def test_sweep_dimension_defaults_to_the_norms_largest(self, monkeypatch):
        default = O.sweep_theta("op2", steps=5, brute_force=True)
        explicit = O.sweep_theta("op2", steps=5, dim=2, brute_force=True)
        assert default.keys() == explicit.keys()
        for key in default:
            assert np.array_equal(default[key], explicit[key])
        dims = []
        exact = O.optimal_stress
        monkeypatch.setattr(O, "optimal_stress", lambda p: dims.append(p.dim) or exact(p))
        O.sweep_theta("vec2", steps=5)
        assert dims == [3] * 5


class TestEkConstruction:
    """The axis traction t = e_k: sigma = -nu_k nu (x) nu + nu (x) e_k + e_k (x) nu."""

    def test_axis_normal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        bc = O.optimal_stress(O.TractionProblem(nu=e1, t=e1))
        np.testing.assert_allclose(bc.sigma, np.outer(e1, e1), atol=1e-14)
        assert abs(bc.value - 1.0) < 1e-12

    def test_perpendicular_normal(self):
        nu = np.array([0.0, 1.0, 0.0])
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=np.eye(3)[0]))
        assert abs(bc.value - math.sqrt(2)) < 1e-12

    def test_diagonal_normal(self):
        nu = np.ones(3) / math.sqrt(3)
        bc = O.optimal_stress(O.TractionProblem(nu=nu, t=np.eye(3)[0]))
        assert np.abs(bc.sigma @ nu - np.eye(3)[0]).max() < 1e-12
        assert abs(bc.value - math.sqrt(2 - 1 / 3)) < 1e-12

    def test_bad_axis(self, disk):
        with pytest.raises(ValueError):
            O.ek_boundary_tensor(disk, 2)


class TestBruteForce:
    def test_matches_closed_form_vec2(self, rng):
        nu, t = pair_with_angle(rng, 3, math.pi / 2)
        p = O.TractionProblem(nu=nu, t=t, norm="vec2")
        sig = O.brute_force_optimal(p)
        assert np.abs(sig - O.optimal_stress(p).sigma).max() < 1e-3

    def test_traction_along_normal_gives_projector(self, rng):
        nu = random_unit(rng, 3)
        p = O.TractionProblem(nu=nu, t=nu.copy(), norm="vec2")
        sig = O.brute_force_optimal(p)
        assert np.abs(sig - np.outer(nu, nu)).max() < 1e-3

    def test_2d_op2_true_optimum_balances_trace(self):
        # the spectral radius of any compatible sigma is >= |sigma nu| = 1;
        # equality needs trace balance, so sigma_yy = -cos(theta), value 1
        th = math.pi / 3
        nu = np.array([1.0, 0.0])
        t = np.array([math.cos(th), math.sin(th)])
        p = O.TractionProblem(nu=nu, t=t, norm="op2")
        sig = O.brute_force_optimal(p)
        frame = O.optimal_stress(p).frame
        fsig = frame.T @ sig @ frame
        assert abs(fsig[1, 1] + math.cos(th)) < 1e-3
        from trace_bounds import matnorm
        assert abs(matnorm.norm(sig, "op2") - 1.0) < 1e-3

    def test_two_sided_optimality_vec2(self, rng):
        for _ in range(10):
            theta = rng.uniform(0, math.pi / 2)
            nu, t = pair_with_angle(rng, 3, theta)
            p = O.TractionProblem(nu=nu, t=t, norm="vec2")
            closed = O.optimal_stress(p).value
            brute = float(np.sqrt((O.brute_force_optimal(p) ** 2).sum()))
            assert closed <= brute + 1e-3
            assert closed >= brute - 1e-3


class TestBruteForceStack:
    """A stack of problems is searched problem by problem: the same minimizers
    as one call per problem, bit for bit."""

    @pytest.mark.parametrize("norm,dim", [("vec2", 2), ("vecInf", 2), ("op2", 2),
                                          ("vec2", 3), ("vecInf", 3)])
    def test_stack_matches_loop(self, norm, dim, rng):
        # theta = 0 and pi/2 included: there the vecInf minimizers tie
        thetas = [0.0, math.pi / 2, *rng.uniform(0, math.pi / 2, 3 if dim == 3 else 9)]
        problems = [O.TractionProblem(*pair_with_angle(rng, dim, th), norm=norm)
                    for th in thetas]
        stacked = O.brute_force_optimal(problems)
        assert stacked.shape == (len(problems), dim, dim)
        assert np.array_equal(stacked, np.array([O.brute_force_optimal(p) for p in problems]))

    def test_stack_shares_dimension_and_norm(self, rng):
        nu, t = pair_with_angle(rng, 2, 0.3)
        problems = [O.TractionProblem(nu=nu, t=t, norm=n) for n in ("vec2", "op2")]
        with pytest.raises(ValueError, match="share dimension and norm"):
            O.brute_force_optimal(problems)
        with pytest.raises(ValueError, match="at least one problem"):
            O.brute_force_optimal([])


class TestWorstCase:
    def test_exact_values(self):
        assert O.worst_case_D("vec2") == math.sqrt(2)
        assert O.worst_case_D("vecInf") == 1.0
        # the closed forms are exactly the sweep maximum
        for norm in ("vec2", "vecInf"):
            for d in (2, 3):
                sweep = O.sweep_theta(norm, steps=361, dim=d)
                assert sweep["max_closed_form"] == O.worst_case_D(norm)

    def test_unsupported_norm(self):
        with pytest.raises(ValueError):
            O.worst_case_D("op1")

    def test_brute_force_sweep_bracket(self):
        sweep = O.sweep_theta("vec2", steps=91, dim=3, brute_force=True)
        best = sweep["brute_force"].max()
        assert math.sqrt(2) - 1e-3 <= best <= math.sqrt(2) + 1e-9
        assert sweep["max_entry_gap"] <= 1e-3

    def test_vecinf_sweep(self):
        sweep = O.sweep_theta("vecInf", steps=91, dim=3, brute_force=True)
        assert abs(sweep["max_closed_form"] - 1.0) < 1e-15
        assert sweep["max_entry_gap"] <= 1e-3


class TestBoundaryTensors:
    def test_sphere_sup_vec2_attains_D(self, ball):
        _, diag = harmonic_ek_tensor(ball, 0)
        assert abs(diag.sup_vec2_boundary - math.sqrt(2)) < 1e-2

    def test_axis_node_projector(self, disk):
        # at a node whose normal is nearly e_x the tensor is nearly e_x ox e_x
        i = int(np.argmax(disk.boundary_normal[:, 0]))
        sig = O.ek_boundary_tensor(disk, 0)[i]
        nu = disk.boundary_normal[i]
        expected = (-nu[0] * np.outer(nu, nu)
                    + np.outer(nu, np.eye(2)[0]) + np.outer(np.eye(2)[0], nu))
        np.testing.assert_allclose(sig, expected, atol=1e-12)

    def test_circle_compatibility_every_node(self, disk):
        sig = O.ek_boundary_tensor(disk, 1)
        resid = np.einsum("mij,mj->mi", sig, disk.boundary_normal) - np.eye(2)[1]
        assert np.abs(resid).max() < 1e-12

    def test_depends_only_on_normal(self, disk, ellipse):
        # same normal direction on two different domains -> same tensor
        i = int(np.argmax(disk.boundary_normal[:, 0]))
        j = int(np.argmax(ellipse.boundary_normal[:, 0]))
        nu_i = disk.boundary_normal[i]
        nu_j = ellipse.boundary_normal[j]
        assert np.abs(nu_i - nu_j).max() < 1e-6
        a = O.ek_boundary_tensor(disk, 0)[i]
        b = O.ek_boundary_tensor(ellipse, 0)[j]
        assert np.abs(a - b).max() < 1e-5

    def test_continuity_along_boundary(self, disk_coarse, disk):
        # adjacent-node entry jumps shrink with h
        def max_adjacent_jump(dom):
            angles = np.arctan2(dom.boundary_pos[:, 1], dom.boundary_pos[:, 0])
            order = np.argsort(angles)
            sig = O.ek_boundary_tensor(dom, 0)[order]
            jumps = np.abs(np.diff(sig, axis=0)).max(axis=(1, 2))
            wrap = np.abs(sig[0] - sig[-1]).max()
            return max(jumps.max(), wrap)

        coarse = max_adjacent_jump(disk_coarse)
        fine = max_adjacent_jump(disk)
        assert fine <= 0.6 * coarse + 1e-12
