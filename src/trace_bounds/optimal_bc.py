"""Minimal-norm symmetric boundary stresses for a prescribed traction.

Given a unit outward normal nu and a unit traction t, the compatible
symmetric matrices sigma(nu) = t form an affine family; the optimal one
minimizes a chosen matrix norm. In the orthonormal frame {f1 = nu, f2 along
the tangential part of t, f3 = f1 x f2} the closed-form matrix has
sigma_11 = cos(theta), sigma_12 = sin(theta) and all free components zero.
It is optimal for the entrywise-max norm (measured in that frame) and the
Frobenius norm:

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import matnorm
from .geometry import CheckError, Domain

__all__ = [
    "NORMS",
    "TractionProblem",
    "OptimalBC",
    "optimal_stress",
    "brute_force_optimal",
    "worst_case_D",
    "sweep_theta",
    "ek_boundary_tensor",
    "ek_frame_inf_values",
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
        if nu.shape[0] not in NORMS.get(self.norm, ((),))[0]:
            raise ValueError(f"norm {self.norm!r} has no optimal stress in {nu.shape[0]}D")
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


def brute_force_optimal(problems: TractionProblem | Sequence[TractionProblem]) -> np.ndarray:
    """Independent minimizer: nested grid search over the free components.

    Parameterizes all symmetric matrices with sigma(nu) = t by their free
    frame components (one scalar in 2D; the (2,2), (2,3), (3,3) entries in
    3D), scans [-4, 4] per component and refines three times by a factor of
    10. The argmin can be a set (the entrywise-max norm is flat in the free
    components below its value); ties are broken by Frobenius norm, which
    canonicalizes without changing the optimal value.

    Evaluates a stack of problems of one dimension and norm at once, each
    searched on its own: a sequence of P problems gives the (P, n, n)
    minimizers in the standard basis, and a single problem is a stack of one
    that gives its (n, n) minimizer.
    """
    single = isinstance(problems, TractionProblem)
    stack = [problems] if single else list(problems)
    if not stack:
        raise ValueError("brute_force_optimal needs at least one problem")
    dim, norm = stack[0].dim, stack[0].norm
    if any(p.dim != dim or p.norm != norm for p in stack):
        raise ValueError("the problems of one brute-force stack share dimension and norm")
    cos_t = np.array([float(np.clip(p.t @ p.nu, -1.0, 1.0)) for p in stack])
    sin_t = np.array([float(np.linalg.norm(p.t - c * p.nu)) for p, c in zip(stack, cos_t)])
    frames = np.array([_build_frame(p.nu, p.t) for p in stack])

    n_free = dim * (dim - 1) // 2
    # grid point i of a stage is axis point idx[:, i] of each free component,
    # in the order of np.meshgrid(..., indexing="ij")
    idx = np.array(np.unravel_index(np.arange(_BRUTE_FORCE_POINTS ** n_free),
                                    (_BRUTE_FORCE_POINTS,) * n_free))
    rows = np.arange(len(stack))
    centers = np.zeros((len(stack), n_free))
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
    sigma = frames @ best @ frames.transpose(0, 2, 1)
    return sigma[0] if single else sigma


def sweep_theta(norm: str, steps: int = 91, dim: int | None = None,
                brute_force: bool = False) -> dict:
    """Closed-form optimal values over theta in [0, pi/2] (optionally brute force,
    with up to ``_BRUTE_FORCE_BATCH`` candidate matrices per stack), in ``dim``
    dimensions: by default the largest the norm is defined in (NORMS)."""
    if dim is None:
        if norm not in NORMS:
            raise ValueError(f"unsupported norm {norm!r}")
        dim = max(NORMS[norm][0])
    thetas = np.linspace(0.0, math.pi / 2.0, steps)
    nu = np.zeros(dim)
    nu[0] = 1.0
    problems, optima = [], []
    for th in thetas:
        t = math.cos(th) * nu
        t[1] += math.sin(th)
        t /= np.linalg.norm(t)
        problems.append(TractionProblem(nu=nu, t=t, norm=norm))
        optima.append(optimal_stress(problems[-1]))
    closed = [bc.value for bc in optima]
    out = {
        "norm": norm,
        "theta": thetas,
        "closed_form": np.array(closed),
        "max_closed_form": float(np.max(closed)),
    }
    if brute_force:
        chunk = max(1, _BRUTE_FORCE_BATCH // _BRUTE_FORCE_POINTS ** (dim * (dim - 1) // 2))
        sigmas = np.concatenate([brute_force_optimal(problems[i:i + chunk])
                                 for i in range(0, len(problems), chunk)])
        out["brute_force"] = np.array([
            float(matnorm.symmetric_norms((bc.frame.T @ sig @ bc.frame)[None], (norm,))[norm][0])
            for sig, bc in zip(sigmas, optima)])
        out["max_entry_gap"] = max(float(np.abs(sig - bc.sigma).max())
                                   for sig, bc in zip(sigmas, optima))
    return out


def worst_case_D(norm: str) -> float:
    """sup over unit tractions of the optimal stress norm: the closed form in
    NORMS (D_2 = sqrt 2, D_inf = 1). The sweep-theta command and the run
    task's sweep check it against the sweep_theta maximum (cli._checked_sweep)."""
    D = NORMS.get(norm, ((), None))[1]
    if D is None:
        raise ValueError(f"no closed-form worst case D for norm {norm!r}")
    return D


# ---------------------------------------------------------------------------
# boundary tensor fields
# ---------------------------------------------------------------------------

def ek_boundary_tensor(domain: Domain, k: int) -> np.ndarray:
    """Optimal e_k stress at every boundary node, (M, n, n) in the standard basis.

    The matrix is the optimum for the vec2 and frame-vecInf norms alike (all
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


def ek_frame_inf_values(domain: Domain, k: int) -> np.ndarray:
    """Pointwise frame-relative entrywise-max values max(|nu_k|, sqrt(1-nu_k^2))."""
    nuk = domain.boundary_normal[:, k]
    return np.maximum(np.abs(nuk), np.sqrt(np.clip(1.0 - nuk ** 2, 0.0, None)))
