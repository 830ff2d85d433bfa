"""Norms of symmetric matrices and their exact equivalence constants.

Conventions for an n x n symmetric matrix T (n in {2, 3}):

* op1 = max row absolute sum (the max column sum too, T being symmetric);
  op2 = spectral radius max_i |lambda_i|;
* vec2 and vecInf treat T entrywise over all n^2 ordered index pairs, so
  off-diagonal entries count twice and vec2 equals the Frobenius norm;
* dual_op2 = sum_i |lambda_i| (the dual of the spectral radius norm).

``symmetric_norms`` takes every norm of a stack of matrices at once; op2
and dual_op2 read the eigenvalues from LAPACK's symmetric eigensolver
(``np.linalg.eigvalsh``, vectorized over the stack). The test suite checks
both against eigenvalues from independent closed forms only: the 2x2
quadratic formula, Smith's trigonometric 3x3 formula, and Q diag(lambda) Q^T
with Q built from explicit rotation angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CheckError

__all__ = [
    "symmetric_norms",
    "EquivalenceRow",
    "verify_equivalence_constants",
]


def _check_sym(T: np.ndarray) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or T.shape[1] != T.shape[2] or T.shape[1] not in (2, 3):
        raise ValueError("expected (m, n, n) symmetric matrices with n in {2, 3}")
    if not np.allclose(T, np.swapaxes(T, 1, 2), atol=1e-12 * max(1.0, np.abs(T).max())):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (T + np.swapaxes(T, 1, 2))


def symmetric_norms(A: np.ndarray, kinds: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Each kind's norm of every matrix in an (m, n, n) stack A that is
    symmetric already (unchecked: op2 and dual_op2 read its lower triangle).
    op2 and dual_op2 are the max and the sum of the same |eigenvalues|, taken
    once."""
    norms, eig = {}, None
    for kind in kinds:
        if kind == "op1":
            norms[kind] = np.abs(A).sum(axis=2).max(axis=1)
        elif kind in ("op2", "dual_op2"):
            if eig is None:
                eig = np.abs(np.linalg.eigvalsh(A))
            norms[kind] = eig.max(axis=1) if kind == "op2" else eig.sum(axis=1)
        elif kind == "vec2":
            norms[kind] = np.sqrt((A * A).sum(axis=(1, 2)))
        elif kind == "vecInf":
            norms[kind] = np.abs(A).max(axis=(1, 2))
        else:
            raise ValueError(f"unknown norm kind {kind!r}")
    return norms


# ---------------------------------------------------------------------------
# equivalence constants (five exact two-sided bounds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceRow:
    ratio: str              # e.g. "op2/op1"
    lower: float
    upper: float
    observed_min: float
    observed_max: float


def _bounds(n: int) -> list[tuple[str, str, float, float]]:
    rn = float(np.sqrt(n))
    return [
        ("op2", "op1", 1.0 / rn, rn),
        ("vec2", "op2", 1.0, rn),
        ("op2", "vecInf", 1.0, float(n)),
        ("dual_op2", "op2", 1.0, float(n)),
        ("dual_op2", "vec2", 1.0, rn),
    ]


def _structured_seeds(n: int, rng: np.random.Generator) -> np.ndarray:
    mats = [np.eye(n)]
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0
            mats.append(m)
    for _ in range(4):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        mats.append(np.outer(v, v))
    ones = np.full((n, n), 1.0)
    mats.append(ones)
    return np.stack(mats)


def verify_equivalence_constants(n: int, sample_count: int,
                                 seed: int) -> list[EquivalenceRow]:
    """Check the five exact norm-equivalence bounds on sampled matrices.

    Samples ``sample_count`` random symmetric matrices (entries uniform in
    [-1, 1]) plus structured seeds, and asserts every ratio lies inside its
    exact interval. Raises CheckError naming the first offending matrix;
    returns the observed extreme ratios per pair.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    mats = np.triu(rng.uniform(-1.0, 1.0, size=(sample_count, n, n)))
    mats = mats + np.swapaxes(mats, 1, 2) - np.eye(n) * np.einsum("mii->mi", mats)[:, :, None]
    mats = np.concatenate([_structured_seeds(n, rng), mats])

    # one symmetry check and one eigenvalue pass for the whole stack
    norms = symmetric_norms(_check_sym(mats), ("op1", "op2", "vec2", "vecInf", "dual_op2"))
    rows = []
    slack = 1e-12
    for num, den, lower_bound, upper_bound in _bounds(n):
        d = norms[den]
        valid = d > 1e-300
        ratio = norms[num][valid] / d[valid]
        bad_low = ratio < lower_bound * (1.0 - slack) - slack
        bad_high = ratio > upper_bound * (1.0 + slack) + slack
        if bad_low.any() or bad_high.any():
            which = np.flatnonzero(valid)[np.flatnonzero(bad_low | bad_high)[0]]
            raise CheckError(
                f"{num}/{den} = {float(norms[num][which] / norms[den][which]):.15g} "
                f"outside [{lower_bound:.15g}, {upper_bound:.15g}] for matrix "
                f"{mats[which].tolist()}")
        rows.append(EquivalenceRow(
            ratio=f"{num}/{den}",
            lower=lower_bound,
            upper=upper_bound,
            observed_min=float(ratio.min()),
            observed_max=float(ratio.max()),
        ))
    return rows
