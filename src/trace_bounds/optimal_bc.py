"""Minimal-norm symmetric boundary stresses for a prescribed traction.

Given a unit outward normal nu and a unit traction t, the compatible
symmetric matrices sigma(nu) = t form an affine family; the optimal one
minimizes a chosen matrix norm. In the orthonormal frame {f1 = nu, f2 along
the tangential part of t, f3 = f1 x f2} the closed-form optimum has
sigma_11 = cos(theta), sigma_12 = sin(theta) and all free components zero,
for the entrywise-max norm (measured in that frame), the Frobenius norm,
and the 2D spectral radius norm alike; only the optimal values differ:

    vecInf : max(|cos theta|, |sin theta|)     (frame-relative)
    vec2   : sqrt(1 + sin^2 theta)
    op2    : (|cos theta| + sqrt(cos^2 theta + 4 sin^2 theta)) / 2   (2D)

The entrywise-max value is reported relative to the natural frame; the
standard-basis entries of the same matrix can exceed it (their sup over all
normals is max_s s(2-s^2) ~ 1.0887, attained at cos theta = sqrt(2/3)).

Worst case over unit tractions: D_2 = sqrt(2) (t perpendicular to nu),
D_inf = 1 (t parallel or perpendicular to nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matnorm
from .fields import sym_index_pairs, write_csv
from .geometry import CheckError, Domain

__all__ = [
    "TractionProblem",
    "OptimalBC",
    "optimal_stress",
    "optimal_stress_ek",
    "brute_force_optimal",
    "worst_case_D",
    "sweep_theta",
    "ek_boundary_tensor",
    "ek_frame_inf_values",
    "ek_vec2_values",
    "boundary_tensor_csv",
]

_UNIT_TOL = 1e-12
SUPPORTED_NORMS = ("vec2", "vecInf", "op2")


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector (|{name}| = {np.linalg.norm(v)!r})")
    return v


@dataclass(frozen=True)
class TractionProblem:
    """Unit normal, unit traction and the matrix norm to minimize."""

    nu: np.ndarray
    t: np.ndarray
    norm: str = "vec2"

    def __post_init__(self):
        nu = _check_unit(self.nu, "nu")
        t = _check_unit(self.t, "t")
        if nu.shape != t.shape or nu.shape[0] not in (2, 3):
            raise ValueError("nu and t must both be 2- or 3-vectors")
        if self.norm not in SUPPORTED_NORMS:
            raise ValueError(f"unsupported norm {self.norm!r}")
        if self.norm == "op2" and nu.shape[0] != 2:
            raise ValueError("op2 optimal stresses are available in 2D only")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return self.nu.shape[0]


@dataclass(frozen=True)
class OptimalBC:
    """Optimal matrix in the standard basis plus the frame it was built in."""

    sigma: np.ndarray      # (n, n) symmetric, standard basis
    value: float           # optimal norm value (vecInf: relative to the frame)
    frame: np.ndarray      # columns f1 = nu, f2, (f3)


def _build_frame(nu: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """Orthonormal frame with f1 = nu and f2 along the tangential traction.

    When t is parallel to nu (or absent) f2 is the normalized projection of
    the standard basis vector least aligned with nu, for reproducibility.
    """
    n = nu.shape[0]
    f2 = None
    if t is not None:
        tang = t - (t @ nu) * nu
        norm_tang = np.linalg.norm(tang)
        if norm_tang > 1e-9:
            f2 = tang / norm_tang
    if f2 is None:
        k = int(np.argmin(np.abs(nu)))
        e = np.zeros(n)
        e[k] = 1.0
        tang = e - (e @ nu) * nu
        f2 = tang / np.linalg.norm(tang)
    if n == 2:
        return np.stack([nu, f2], axis=1)
    f3 = np.cross(nu, f2)
    return np.stack([nu, f2, f3], axis=1)


def _closed_form_value(cos_t: float, sin_t: float, norm: str) -> float:
    if norm == "vec2":
        return math.sqrt(1.0 + sin_t ** 2)
    if norm == "vecInf":
        return max(abs(cos_t), abs(sin_t))
    if norm == "op2":
        return 0.5 * (abs(cos_t) + math.sqrt(cos_t ** 2 + 4.0 * sin_t ** 2))
    raise ValueError(f"unsupported norm {norm!r}")


def optimal_stress(problem: TractionProblem) -> OptimalBC:
    """Closed-form minimal-norm stress with sigma(nu) = t."""
    nu, t = problem.nu, problem.t
    cos_t = float(np.clip(t @ nu, -1.0, 1.0))
    sin_t = float(np.linalg.norm(t - cos_t * nu))
    frame = _build_frame(nu, t)
    f2 = frame[:, 1]
    sigma = cos_t * np.outer(nu, nu) + sin_t * (np.outer(nu, f2) + np.outer(f2, nu))
    value = _closed_form_value(cos_t, sin_t, problem.norm)
    bc = OptimalBC(sigma=sigma, value=value, frame=frame)
    if np.abs(sigma @ nu - t).max() > 1e-10:
        raise CheckError("compatibility sigma(nu) = t violated")
    return bc


def optimal_stress_ek(nu: np.ndarray, k: int, norm: str = "vec2") -> OptimalBC:
    """Optimal stress for the axis traction t = e_k:
    sigma = -nu_k nu (x) nu + nu (x) e_k + e_k (x) nu."""
    nu = _check_unit(nu, "nu")
    n = nu.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"axis index k={k} out of range for dimension {n}")
    e = np.zeros(n)
    e[k] = 1.0
    sigma = -nu[k] * np.outer(nu, nu) + np.outer(nu, e) + np.outer(e, nu)
    nuk = float(nu[k])
    if norm == "vec2":
        value = math.sqrt(2.0 - nuk ** 2)
    elif norm == "vecInf":
        value = max(abs(nuk), math.sqrt(max(0.0, 1.0 - nuk ** 2)))
    else:
        raise ValueError(f"unsupported norm {norm!r} for the e_k construction")
    return OptimalBC(sigma=sigma, value=value, frame=_build_frame(nu, e))


def _frame_norm_stack(frame_mats: np.ndarray, norm: str) -> np.ndarray:
    """Norms of candidate matrices given in frame coordinates."""
    if norm == "vec2":
        return np.sqrt((frame_mats ** 2).sum(axis=(1, 2)))
    if norm == "vecInf":
        return np.abs(frame_mats).max(axis=(1, 2))
    if norm == "op2":
        return matnorm.norm_stack(frame_mats, "op2")
    raise ValueError(f"unsupported norm {norm!r}")


def brute_force_optimal(problem: TractionProblem, grid_resolution: int = 17) -> np.ndarray:
    """Independent minimizer: nested grid search over the free components.

    Parameterizes all symmetric matrices with sigma(nu) = t by their free
    frame components (one scalar in 2D; the (2,2), (2,3), (3,3) entries in
    3D), scans [-4, 4] per component and refines three times by a factor of
    10. The argmin can be a set (the entrywise-max norm is flat in the free
    components below its value); ties are broken by Frobenius norm, which
    canonicalizes without changing the optimal value. Returns the minimizer
    in the standard basis.
    """
    nu, t = problem.nu, problem.t
    dim = problem.dim
    cos_t = float(np.clip(t @ nu, -1.0, 1.0))
    sin_t = float(np.linalg.norm(t - cos_t * nu))
    frame = _build_frame(nu, t)

    n_free = 1 if dim == 2 else 3
    center = np.zeros(n_free)
    width = 4.0
    best = None
    for _stage in range(4):
        axes = [np.linspace(c - width, c + width, grid_resolution) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        z = np.stack([g.ravel() for g in grids], axis=1)
        m = z.shape[0]
        cand = np.zeros((m, dim, dim))
        cand[:, 0, 0] = cos_t
        cand[:, 0, 1] = cand[:, 1, 0] = sin_t
        if dim == 2:
            cand[:, 1, 1] = z[:, 0]
        else:
            cand[:, 1, 1] = z[:, 0]
            cand[:, 1, 2] = cand[:, 2, 1] = z[:, 1]
            cand[:, 2, 2] = z[:, 2]
        values = _frame_norm_stack(cand, problem.norm)
        vmin = float(values.min())
        tied = np.flatnonzero(values <= vmin + 1e-9 * (1.0 + vmin))
        fro = (cand[tied] ** 2).sum(axis=(1, 2))
        i = int(tied[fro.argmin()])
        center = z[i]
        best = cand[i]
        width /= 10.0
    return frame @ best @ frame.T


def sweep_theta(norm: str, steps: int = 91, dim: int = 3,
                brute_force: bool = False,
                grid_resolution: int = 17) -> dict:
    """Closed-form optimal values over theta in [0, pi/2] (optionally brute force)."""
    if norm == "op2" and dim != 2:
        raise ValueError("op2 sweeps are 2D only")
    thetas = np.linspace(0.0, math.pi / 2.0, steps)
    nu = np.zeros(dim)
    nu[0] = 1.0
    closed, brute = [], []
    max_entry_gap = 0.0
    for th in thetas:
        t = math.cos(th) * nu
        t[1] += math.sin(th)
        t /= np.linalg.norm(t)
        problem = TractionProblem(nu=nu, t=t, norm=norm)
        bc = optimal_stress(problem)
        closed.append(bc.value)
        if brute_force:
            sig = brute_force_optimal(problem, grid_resolution)
            brute.append(float(_frame_norm_stack(
                (bc.frame.T @ sig @ bc.frame)[None], norm)[0]))
            max_entry_gap = max(max_entry_gap, float(np.abs(sig - bc.sigma).max()))
    out = {
        "norm": norm,
        "theta": thetas,
        "closed_form": np.array(closed),
        "max_closed_form": float(np.max(closed)),
    }
    if brute_force:
        out["brute_force"] = np.array(brute)
        out["max_entry_gap"] = max_entry_gap
    return out


def worst_case_D(norm: str) -> float:
    """sup over unit tractions of the optimal stress norm in 2D and 3D: the closed
    forms D_2 = sqrt 2 and D_inf = 1, checked against the sweep_theta maximum."""
    if norm == "vec2":
        return math.sqrt(2.0)
    if norm == "vecInf":
        return 1.0
    raise ValueError(f"worst_case_D supports vec2 and vecInf, not {norm!r}")


# ---------------------------------------------------------------------------
# boundary tensor fields
# ---------------------------------------------------------------------------

def ek_boundary_tensor(domain: Domain, k: int) -> np.ndarray:
    """Optimal e_k stress at every boundary node, (M, n, n) in the standard basis.

    The matrix is the same for the vec2, frame-vecInf and 2D-op2 norms (all
    free components vanish); only the reported optimal values differ.
    """
    n = domain.dim
    if not 0 <= k < n:
        raise ValueError(f"axis index k={k} out of range for dimension {n}")
    nu = domain.boundary_normal
    e = np.zeros(n)
    e[k] = 1.0
    outer_nn = nu[:, :, None] * nu[:, None, :]
    outer_ne = nu[:, :, None] * e[None, None, :]
    sig = -nu[:, k, None, None] * outer_nn + outer_ne + np.swapaxes(outer_ne, 1, 2)
    return sig


def ek_vec2_values(domain: Domain, k: int) -> np.ndarray:
    """Pointwise optimal Frobenius values sqrt(2 - nu_k^2)."""
    return np.sqrt(2.0 - domain.boundary_normal[:, k] ** 2)


def ek_frame_inf_values(domain: Domain, k: int) -> np.ndarray:
    """Pointwise frame-relative entrywise-max values max(|nu_k|, sqrt(1-nu_k^2))."""
    nuk = domain.boundary_normal[:, k]
    return np.maximum(np.abs(nuk), np.sqrt(np.clip(1.0 - nuk ** 2, 0.0, None)))


def boundary_tensor_csv(domain: Domain, tensors: np.ndarray, path) -> None:
    """One row per boundary node: position, normal, upper-triangle entries."""
    n = domain.dim
    pairs = sym_index_pairs(n)
    cols = (list("xyz"[:n]) + [f"nu_{c}" for c in "xyz"[:n]]
            + [f"sigma_{i}{j}" for i, j in pairs])
    entries = np.stack([tensors[:, i, j] for i, j in pairs], axis=1)
    write_csv(path, cols, np.hstack([domain.boundary_pos, domain.boundary_normal,
                                     entries]))
