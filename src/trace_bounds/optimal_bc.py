"""Minimal-norm symmetric boundary stresses for a prescribed traction.

Given a unit outward normal nu and a unit traction t, the compatible
symmetric matrices sigma(nu) = t form an affine family; the optimal one
minimizes a chosen matrix norm. It is

    sigma = -(t . nu) nu (x) nu + nu (x) t + t (x) nu,   cos theta = t . nu,

computed by ``optimal_stress`` for (m, n) stacks of normals and tractions
at once, with no frame. Why it is optimal shows in the orthonormal frame
{f1 = nu, f2 along the tangential part of t, f3 = f1 x f2}: there
sigma_11 = cos(theta), sigma_12 = sin(theta) and all free components
(sigma_22, sigma_23, sigma_33) are zero. It is optimal for the entrywise-max
norm (measured in that frame) and the Frobenius norm:

    vecInf : max(|cos theta|, |sin theta|)     (frame-relative)
    vec2   : sqrt(1 + sin^2 theta)

For the 2D spectral norm the same matrix is reported, with its value

    op2    : (|cos theta| + sqrt(cos^2 theta + 4 sin^2 theta)) / 2   (2D)

but that is not the optimum: the spectral norm of a compatible matrix is at
least |sigma nu| = 1, and 1 is attained by balancing the trace with
sigma_22 = -cos(theta). Over theta the op2 formula peaks at 2/sqrt(3)
~ 1.1547, while the brute-force optimum stays at 1.

The entrywise-max value is reported relative to the natural frame; the
standard-basis entries of the same matrix can exceed it (their sup over all
normals is max_s s(2-s^2) ~ 1.0887, attained at cos theta = sqrt(2/3)).

Worst case over unit tractions: D_2 = sqrt(2) (t perpendicular to nu),
D_inf = 1 (t parallel or perpendicular to nu).
"""

from __future__ import annotations

import math

import numpy as np

from . import matnorm
from .geometry import CheckError

__all__ = [
    "NORMS",
    "optimal_stress",
    "brute_force_optimal",
    "worst_case_D",
    "sweep_theta",
]

_UNIT_TOL = 1e-12
# norm -> (the dimensions its optimal stress is defined in, the worst case D
# over unit tractions, or None where there is no closed form)
NORMS = {"vec2": ((2, 3), math.sqrt(2.0)), "vecInf": ((2, 3), 1.0), "op2": ((2,), None)}
# grid points per free component in each stage of brute_force_optimal
_BRUTE_FORCE_POINTS = 17
# candidate matrices per brute_force_optimal stack in sweep_theta: a whole 2D
# sweep (17 candidates per theta) is one stack, 10x faster than the loop,
# while 3D (17^3 = 4913 per theta) goes one theta at a time, since a 91-theta
# 3D stack ran 1.4-1.6x slower than the loop
_BRUTE_FORCE_BATCH = 4096


def _check_stacks(nu: np.ndarray, t: np.ndarray, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """nu and t as float (m, n) stacks of unit rows, m >= 1 and n in {2, 3},
    for a norm whose optimal stress is defined in n dimensions (NORMS)."""
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    if nu.ndim != 2 or nu.shape != t.shape or not len(nu) or nu.shape[1] not in (2, 3):
        raise ValueError("nu and t must be (m, n) stacks of one shape, m >= 1 and n = 2 or 3")
    if nu.shape[1] not in NORMS.get(norm, ((),))[0]:
        raise ValueError(f"norm {norm!r} has no optimal stress in {nu.shape[1]}D")
    for name, v in (("nu", nu), ("t", t)):
        lengths = np.linalg.norm(v, axis=1)
        i = int(np.abs(lengths - 1.0).argmax())
        if not abs(lengths[i] - 1.0) <= _UNIT_TOL:
            raise ValueError(f"{name} must be unit vectors (|{name}[{i}]| = {float(lengths[i])!r})")
    return nu, t


def _cos_sin(nu: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, cos theta = t . nu (clipped to [-1, 1]) and sin theta = |t - cos theta nu|."""
    cos_t = np.clip(np.einsum("mi,mi->m", t, nu), -1.0, 1.0)
    return cos_t, np.linalg.norm(t - cos_t[:, None] * nu, axis=1)


def _build_frame(nu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Orthonormal frame with f1 = nu and f2 along the tangential traction.

    When t is parallel to nu f2 is the normalized projection of the standard
    basis vector least aligned with nu, for reproducibility.
    """
    n = nu.shape[0]
    tang = t - (t @ nu) * nu
    norm_tang = np.linalg.norm(tang)
    if norm_tang > 1e-9:
        f2 = tang / norm_tang
    else:
        k = int(np.argmin(np.abs(nu)))
        e = np.zeros(n)
        e[k] = 1.0
        tang = e - (e @ nu) * nu
        f2 = tang / np.linalg.norm(tang)
    if n == 2:
        return np.stack([nu, f2], axis=1)
    f3 = np.cross(nu, f2)
    return np.stack([nu, f2, f3], axis=1)


def _closed_form_value(cos_t: np.ndarray, sin_t: np.ndarray, norm: str) -> np.ndarray:
    if norm == "vec2":
        return np.sqrt(1.0 + sin_t ** 2)
    if norm == "vecInf":
        return np.maximum(np.abs(cos_t), np.abs(sin_t))
    if norm == "op2":
        return 0.5 * (np.abs(cos_t) + np.sqrt(cos_t ** 2 + 4.0 * sin_t ** 2))
    raise ValueError(f"unsupported norm {norm!r}")


def optimal_stress(nu: np.ndarray, t: np.ndarray, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimal-norm stresses with sigma(nu) = t, one per row of the
    (m, n) stacks nu and t: the (m, n, n) matrices
    sigma = -(t . nu) nu (x) nu + nu (x) t + t (x) nu and their (m,) values."""
    nu, t = _check_stacks(nu, t, norm)
    cos_t, sin_t = _cos_sin(nu, t)
    nt = nu[:, :, None] * t[:, None, :]
    sigma = -cos_t[:, None, None] * (nu[:, :, None] * nu[:, None, :]) + nt + nt.swapaxes(1, 2)
    if np.abs(np.einsum("mij,mj->mi", sigma, nu) - t).max() > 1e-10:
        raise CheckError("compatibility sigma(nu) = t violated")
    return sigma, _closed_form_value(cos_t, sin_t, norm)


def brute_force_optimal(nu: np.ndarray, t: np.ndarray, norm: str) -> np.ndarray:
    """Independent minimizer: nested grid search over the free components.

    Parameterizes all symmetric matrices with sigma(nu) = t by their free
    frame components (one scalar in 2D; the (2,2), (2,3), (3,3) entries in
    3D), scans [-4, 4] per component and refines three times by a factor of
    10. The argmin can be a set (the entrywise-max norm is flat in the free
    components below its value); ties are broken by Frobenius norm, which
    canonicalizes without changing the optimal value.

    Each row of the (m, n) stacks nu and t is searched on its own, all at
    once; the (m, n, n) minimizers are returned in the standard basis.
    """
    nu, t = _check_stacks(nu, t, norm)
    dim = nu.shape[1]
    cos_t, sin_t = _cos_sin(nu, t)
    frames = np.array([_build_frame(n_, t_) for n_, t_ in zip(nu, t)])

    n_free = dim * (dim - 1) // 2
    # grid point i of a stage is axis point idx[:, i] of each free component,
    # in the order of np.meshgrid(..., indexing="ij")
    idx = np.array(np.unravel_index(np.arange(_BRUTE_FORCE_POINTS ** n_free),
                                    (_BRUTE_FORCE_POINTS,) * n_free))
    rows = np.arange(len(nu))
    centers = np.zeros((len(nu), n_free))
    width = 4.0
    for _stage in range(4):
        axes = np.linspace(centers - width, centers + width, _BRUTE_FORCE_POINTS, axis=-1)
        z = np.stack([axes[:, f, idx[f]] for f in range(n_free)], axis=-1)  # (P, m, n_free)
        cand = np.zeros(z.shape[:2] + (dim, dim))
        cand[..., 0, 0] = cos_t[:, None]
        cand[..., 0, 1] = cand[..., 1, 0] = sin_t[:, None]
        cand[..., 1, 1] = z[..., 0]
        if dim == 3:
            cand[..., 1, 2] = cand[..., 2, 1] = z[..., 1]
            cand[..., 2, 2] = z[..., 2]
        values = matnorm.symmetric_norms(cand.reshape(-1, dim, dim), (norm,))[norm]
        values = values.reshape(z.shape[:2])
        vmin = values.min(axis=1, keepdims=True)
        tied = values <= vmin + 1e-9 * (1.0 + vmin)
        # the first of the tied candidates with the least Frobenius norm
        i = np.where(tied, (cand ** 2).sum(axis=(2, 3)), np.inf).argmin(axis=1)
        centers = z[rows, i]
        best = cand[rows, i]
        width /= 10.0
    return frames @ best @ frames.transpose(0, 2, 1)


def sweep_theta(norm: str, steps: int, dim: int) -> dict:
    """Closed-form and brute-force optimal values over ``steps`` angles theta
    in [0, pi/2], in ``dim`` dimensions, with up to ``_BRUTE_FORCE_BATCH``
    candidate matrices per brute-force stack.

    nu = e_1 and t = cos theta e_1 + sin theta e_2, so every frame is the
    identity and the brute-force values are read in the standard basis."""
    thetas = np.linspace(0.0, math.pi / 2.0, steps)
    nu = np.zeros((steps, dim))
    nu[:, 0] = 1.0
    t = np.zeros((steps, dim))
    for row, th in zip(t, thetas):
        row[:2] = math.cos(th), math.sin(th)
        row /= np.linalg.norm(row)
    sigma, closed = optimal_stress(nu, t, norm)
    chunk = max(1, _BRUTE_FORCE_BATCH // _BRUTE_FORCE_POINTS ** (dim * (dim - 1) // 2))
    brute = np.concatenate([brute_force_optimal(nu[i:i + chunk], t[i:i + chunk], norm)
                            for i in range(0, steps, chunk)])
    return {
        "theta": thetas,
        "closed_form": closed,
        "max_closed_form": float(closed.max()),
        "brute_force": matnorm.symmetric_norms(brute, (norm,))[norm],
        "max_entry_gap": float(np.abs(brute - sigma).max()),
    }


def worst_case_D(norm: str) -> float:
    """sup over unit tractions of the optimal stress norm: the closed form in
    NORMS (D_2 = sqrt 2, D_inf = 1). The optimal-bc-sweep task checks it
    against the sweep_theta maximum (cli._task_sweep)."""
    D = NORMS.get(norm, ((), None))[1]
    if D is None:
        raise ValueError(f"no closed-form worst case D for norm {norm!r}")
    return D
