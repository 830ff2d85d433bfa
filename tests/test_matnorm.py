import itertools

import numpy as np
import pytest

from trace_bounds import matnorm as M


def quadratic_eigs(a, b, c):
    """Independent 2x2 oracle: roots of lambda^2 - (a+c) lambda + (ac - b^2)."""
    disc = np.sqrt((a - c) ** 2 / 4 + b * b)
    mid = (a + c) / 2
    return np.array([mid - disc, mid + disc])


def smith_eigs(A):
    """Independent 3x3 oracle: Smith's trigonometric closed form (CACM 4(4):168,
    1961) for a stack of symmetric matrices, ascending."""
    q = np.trace(A, axis1=1, axis2=2) / 3
    B = A - q[:, None, None] * np.eye(3)
    p = np.sqrt((B * B).sum(axis=(1, 2)) / 6)
    safe = np.where(p > 0, p, 1.0)
    r = np.where(p > 0, np.linalg.det(B / safe[:, None, None]) / 2, 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3
    top = q + 2 * p * np.cos(phi)
    bottom = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    return np.stack([bottom, 3 * q - top - bottom, top], axis=1)


def rotation(alpha, beta, gamma):
    """Z-Y-Z rotation from explicit Euler angles."""
    def about(axis, t):
        c, s = np.cos(t), np.sin(t)
        i, j = [k for k in range(3) if k != axis]
        R = np.eye(3)
        R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
        return R
    return about(2, alpha) @ about(1, beta) @ about(2, gamma)


def random_symmetric(rng, n, count=1):
    A = rng.uniform(-1, 1, size=(count, n, n))
    return 0.5 * (A + np.swapaxes(A, 1, 2))


def norm(T, kind):
    """One kind's norm of one symmetric matrix, taken as the pipeline takes
    norms: one symmetry check of a stack (of one), then symmetric_norms."""
    return float(M.symmetric_norms(M._check_sym(np.asarray(T, dtype=float)[None]),
                                   (kind,))[kind][0])


def spectral(A):
    """op2 and dual_op2 of each matrix in an (m, n, n) stack."""
    values = M.symmetric_norms(M._check_sym(A), ("op2", "dual_op2"))
    return values["op2"], values["dual_op2"]


def from_eigenvalues(lam):
    """op2 = max |lambda| and dual_op2 = sum |lambda| from one matrix's
    eigenvalues, or an (m, n) stack of them."""
    lam = np.abs(np.atleast_2d(lam))
    return lam.max(axis=1), lam.sum(axis=1)


class TestEigenvalues:
    """op2 = max |lambda| and dual_op2 = sum |lambda| against eigenvalues from
    independent closed forms."""

    def test_identity(self):
        np.testing.assert_allclose(spectral(np.eye(3)[None]), from_eigenvalues([1, 1, 1]))

    def test_diagonal(self):
        np.testing.assert_allclose(spectral(np.diag([-2.0, 0.0, 5.0])[None]),
                                   from_eigenvalues([-2, 0, 5]))

    def test_quadratic_formula_oracle(self):
        th = np.pi / 3
        T = np.array([[np.cos(th), np.sin(th)], [np.sin(th), 0.0]])
        np.testing.assert_allclose(
            spectral(T[None]), from_eigenvalues(quadratic_eigs(np.cos(th), np.sin(th), 0.0)),
            atol=1e-14)

    def test_random_2x2_against_formula(self, rng):
        for T in random_symmetric(rng, 2, 200):
            np.testing.assert_allclose(
                spectral(T[None]), from_eigenvalues(quadratic_eigs(T[0, 0], T[0, 1], T[1, 1])),
                atol=1e-13)

    def test_against_closed_form_oracle(self, rng):
        A = random_symmetric(rng, 2, 500)
        ref = quadratic_eigs(A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]).T
        assert np.abs(np.subtract(spectral(A), from_eigenvalues(ref))).max() < 1e-12
        A = random_symmetric(rng, 3, 500)
        assert np.abs(np.subtract(spectral(A), from_eigenvalues(smith_eigs(A)))).max() < 1e-12

    def test_rotated_diagonal_oracle(self):
        # Q diag(lam) Q^T has eigenvalues lam exactly, repeated ones included
        angles = np.linspace(0.3, 5.9, 4)
        for lam in ([-1.0, 0.5, 2.0], [0.3, 0.3, -1.2], [1.0, -2.0, 1.0], [0.7] * 3):
            for alpha, beta, gamma in itertools.product(angles, repeat=3):
                Q = rotation(alpha, beta, gamma)
                T = Q @ np.diag(lam) @ Q.T
                np.testing.assert_allclose(spectral(T[None]), from_eigenvalues(lam),
                                           atol=1e-14)
                # anchor the Smith oracle too; its arccos keeps only about half
                # the digits at a double eigenvalue
                np.testing.assert_allclose(smith_eigs(T[None])[0], np.sort(lam),
                                           atol=1e-7)

    def test_characteristic_polynomial_residual(self, rng):
        # op2 or -op2 is an eigenvalue
        for T in random_symmetric(rng, 3, 100):
            scale = max(1.0, norm(T, "vec2")) ** 3
            op2 = norm(T, "op2")
            assert min(abs(np.linalg.det(T - sign * op2 * np.eye(3)))
                       for sign in (1, -1)) <= 1e-10 * scale

    def test_offdiagonal_convergence(self, rng):
        A = random_symmetric(rng, 3, 50)
        assert np.isfinite(spectral(A)).all()

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            M._check_sym(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


class TestNorms:
    def test_identity_all_kinds(self):
        I = np.eye(3)
        expected = {"op2": 1.0, "vec2": np.sqrt(3), "dual_op2": 3.0,
                    "op1": 1.0, "opInf": 1.0, "vecInf": 1.0, "vec1": 3.0}
        for kind, val in expected.items():
            assert abs(norm(I, kind) - val) < 1e-12

    def test_offdiagonal_matrix(self):
        # eigenvalues +-1 by hand; op1 = max row abs sum = 1 (permutation
        # matrices are 1-norm isometries)
        T = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(norm(T, "op2") - 1.0) < 1e-12
        assert abs(norm(T, "vec2") - np.sqrt(2)) < 1e-12
        assert abs(norm(T, "op1") - 1.0) < 1e-12
        assert abs(norm(T, "vec1") - 2.0) < 1e-12
        assert abs(norm(T, "dual_op2") - 2.0) < 1e-12

    def test_paper_vec2_value(self):
        th = np.pi / 2
        T = np.array([[np.cos(th), np.sin(th), 0.0],
                      [np.sin(th), 0.0, 0.0],
                      [0.0, 0.0, 0.0]])
        assert abs(norm(T, "vec2") - np.sqrt(1 + np.sin(th) ** 2)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(np.eye(2), "vec7")

    def test_homogeneity(self, rng):
        for T in random_symmetric(rng, 3, 20):
            for kind in M.NORM_KINDS:
                a = -2.75
                assert abs(norm(a * T, kind) - abs(a) * norm(T, kind)) \
                    <= 1e-12 * max(1.0, norm(T, kind))

    def test_triangle_inequality(self, rng):
        A = random_symmetric(rng, 3, 40)
        for i in range(0, 40, 2):
            for kind in M.NORM_KINDS:
                assert norm(A[i] + A[i + 1], kind) <= \
                    norm(A[i], kind) + norm(A[i + 1], kind) + 1e-12

    def test_one_symmetry_check_per_stack(self, rng):
        # a stack is checked once, so the one check rejects an asymmetric
        # matrix anywhere in it
        A = random_symmetric(rng, 3, 100)
        M._check_sym(A)
        A[57, 0, 2] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            M._check_sym(A)

    def test_op1_equals_opinf_bitwise(self, rng):
        values = M.symmetric_norms(M._check_sym(random_symmetric(rng, 3, 100)),
                                   ("op1", "opInf"))
        np.testing.assert_array_equal(values["op1"], values["opInf"])

    def test_vec2_squared_is_eigenvalue_sum(self, rng):
        for T in random_symmetric(rng, 3, 50):
            lam = smith_eigs(T[None])[0]
            assert abs(norm(T, "vec2") ** 2 - np.sum(lam ** 2)) < 1e-10

    def test_rotation_invariance(self, rng):
        for T in random_symmetric(rng, 3, 25):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            R = Q @ T @ Q.T
            R = 0.5 * (R + R.T)
            for kind in ("op2", "vec2", "dual_op2"):
                assert abs(norm(R, kind) - norm(T, kind)) < 1e-10

    def test_op2_brute_force_direction_sampling(self, rng):
        # one-sided oracle: max |T v| over random unit vectors approaches op2
        for T in random_symmetric(rng, 3, 5):
            v = rng.normal(size=(10000, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            sampled = np.linalg.norm(v @ T, axis=1).max()
            computed = norm(T, "op2")
            assert sampled <= computed + 1e-12
            assert computed - sampled <= 1e-3 * max(1.0, computed)


class TestEquivalenceConstants:
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_violations_ten_thousand(self, n):
        rows = M.verify_equivalence_constants(n, 10000, seed=20240401)
        assert len(rows) == 5
        for row in rows:
            assert row.observed_min >= row.lower - 1e-11
            assert row.observed_max <= row.upper + 1e-11

    def test_identity_witness_exact(self):
        I = np.eye(3)
        assert abs(norm(I, "vec2") / norm(I, "op2") - np.sqrt(3)) < 1e-12
        assert abs(norm(I, "dual_op2") / norm(I, "op2") - 3.0) < 1e-12
        assert abs(norm(I, "dual_op2") / norm(I, "vec2") - np.sqrt(3)) < 1e-12

    def test_rank_one_witness(self, rng):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        P = np.outer(v, v)
        for kind in ("op2", "vec2", "dual_op2"):
            assert abs(norm(P, kind) - 1.0) < 1e-12
        # ones matrix = n * rank-one projector attains op2/vecInf upper bound n
        ones = np.ones((3, 3))
        assert abs(norm(ones, "op2") / norm(ones, "vecInf") - 3.0) < 1e-12

    def test_single_entry_witness(self):
        T = np.zeros((2, 2))
        T[0, 0] = 1.0
        assert abs(norm(T, "op2") / norm(T, "vecInf") - 1.0) < 1e-12

    def test_observed_extremes_attained(self):
        rows = {r.ratio: r for r in M.verify_equivalence_constants(3, 10000)}
        # structured seeds guarantee these are reached exactly
        assert abs(rows["vec2/op2"].observed_max - np.sqrt(3)) < 1e-12
        assert abs(rows["dual_op2/op2"].observed_max - 3.0) < 1e-12
        assert abs(rows["op2/vecInf"].observed_max - 3.0) < 1e-12
        assert abs(rows["vec2/op2"].observed_min - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_pass_per_stack(self, n, monkeypatch):
        # one symmetry check and one eigenvalue pass give all five norms, each
        # bit-identical to that kind alone
        checked, shared, eig_passes = [], [], []
        check, norms, eigvalsh = M._check_sym, M.symmetric_norms, np.linalg.eigvalsh
        monkeypatch.setattr(M, "_check_sym", lambda T: checked.append(T) or check(T))
        monkeypatch.setattr(M, "symmetric_norms",
                            lambda A, kinds: shared.append(norms(A, kinds)) or shared[-1])
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda A: eig_passes.append(1) or eigvalsh(A))
        M.verify_equivalence_constants(n, 1000, seed=101)
        monkeypatch.undo()
        assert len(checked) == len(shared) == len(eig_passes) == 1
        assert set(shared[0]) == {"op1", "op2", "vec2", "vecInf", "dual_op2"}
        for kind, values in shared[0].items():
            np.testing.assert_array_equal(values, norms(check(checked[0]), (kind,))[kind])

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            M.verify_equivalence_constants(3, 0)

    def test_csv_export(self, tmp_path):
        rows = M.verify_equivalence_constants(2, 100)
        path = tmp_path / "table.csv"
        M.equivalence_table_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("ratio,exact_lower")
        assert len(lines) == 6
