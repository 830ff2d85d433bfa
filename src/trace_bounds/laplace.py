"""Embedded-boundary Laplace solver and difference operators.

Dirichlet problems are discretized with Shortley-Weller stencils: stencil
arms that would leave the domain are clipped at the level-set zero crossing
and read the boundary value there. The resulting system is an M-matrix, so
the discrete maximum principle holds; every solve verifies it, along with
the algebraic residual, and records both in its domain's solve record.

The operator and the difference stencils read one arm-end map: arm d of
interior node i ends at interior node j, or at boundary node b, which is
column N + b of the interior-then-boundary values. The interior ends give
the matrix's off-diagonal entries, the boundary ends its coupling to the
Dirichlet data.

The matrix depends only on the geometry. Its interior nodes are coloured
by the parity of their lattice coordinates round(x/h) summed over the axes:
red if even, black if odd, whatever the grid's extent. An interior arm is
one lattice step long, so it joins nodes of opposite colours; ordered red
then black, the matrix is [[D_R, A_RB], [A_BR, D_B]] with D_R and D_B
diagonal. Every solve therefore eliminates the red nodes exactly first (the
red-black reduced system; Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., 2003, sections 2.4 and 3.3): the backend solves
S u_B = b_B - A_BR D_R^-1 b_R with S = D_B - A_BR D_R^-1 A_RB on the black
half of the nodes, and u_R = D_R^-1 (b_R - A_RB u_B) follows. S has a
symmetric pattern and is again an M-matrix (Fiedler & Ptak 1962), so the
backends below take it as they took the full matrix. The operator checks
when it is made that every interior arm joins opposite colours, and keeps
only the two diagonals and the two coupling blocks, read off the arm-end map.

Each operator solves S with one backend, built from S on the first solve
and chosen once by the dimension: every solve hands it the reduced data and
takes back u_B and the Krylov iterations it made, which the solve record
counts. In 2D the backend is the LU factor of S. The black nodes are
ordered by nested dissection (George 1973): on their sublattice
u = (i + j - 1)/2, v = (i - j - 1)/2, S couples only nodes at most one step
apart along each axis, so the nodes on any lattice line separate those on
its two sides. Each box is cut at the midpoint line across its longer side,
its two halves are ordered first and the line last, down to boxes of 4
nodes. S is permuted to that order and factored in symmetric mode, the order
applied to rows and columns alike, with diagonal pivots only, which is
stable for M-matrices. At disk h 0.005 the factor has 5.24 M nonzeros and
takes 0.21 s (2 vCPUs), against 6.51 M and 0.43 s under a minimum-degree
ordering of S^T + S, 7.86 M for minimum degree on the full matrix, and
12.2 M for COLAMD with partial pivoting on S; the ordering takes 0.02 s. The
supernodes are only a few columns wide, so SuperLU's left-looking updates
(Demmel et al. 1999) run on a 2-column panel rather than its default 20. In
3D the backend is BiCGSTAB (van der Vorst 1992) on S, preconditioned with a
plain-aggregation multigrid V-cycle (Vanek, Mandel & Brezina 1996) built on
S and the lattice indices of the black nodes, whose coarsest level is
factored under minimum degree. LU fill grows much faster in 3D, and measured
over the resolutions the tool runs, the Krylov solve wins at every 3D size
and the factorization at every 2D size. At ball h 0.05 a solve takes 12
iterations on S, against 19 on the full matrix. The BiCGSTAB loop is this
module's own, ``_bicgstab``: SciPy 1.17's recurrences and tests, with every
inner product and norm a NumPy pairwise sum rather than a BLAS call, so its
results do not depend on the BLAS or its thread count. Residuals of the full
system are verified against the 1e-10 relative tolerance after every solve,
whichever backend produced it.

Every harmonic object the trace bounds need is a linear combination of
harmonic extensions of monomials in the outward normal: H[nu_a] (the normal
field) and H[nu_a nu_b nu_c] (the optimal e_k stresses). Each such extension
is solved at most once per domain and memoized on the operator, as are the
per-axis sparse difference stencils. Since |nu|^2 = 1, H[nu_a] =
sum_b H[nu_a nu_b nu_b], so H[nu_a nu_L^2], L = dim - 1, is always the
signed sum of the others: 10 solves give all 13 extensions in 3D, 4 give
all 6 in 2D. ``solve_basis`` memoizes them all; in 3D it runs the Krylov
solves after the first ahead on worker threads, and still takes, verifies
and records each on the calling thread, so nothing differs from solving them
one after another.

Every difference operator starts from one primitive, ``_derivative``: a
field's interior-then-boundary values, stacked as (N + M, k) columns (one
per entry of a value), go through one axis's derivative stencil in one
sparse product. The gradient and ld_trace's ``_strain`` take every entry
along every axis (``_derivatives``, shaped (N, *s, dim)); the divergence, of a
vector or row by row of a tensor, takes only the entries it sums: those
with last index j, along axis j. ``extrapolate_to_boundary`` takes (N, *s)
interior values onto the boundary nodes the same way, one product per axis.
A row of a stencil adds its terms in the order the difference formulas do,
and a stacked product adds each column's terms in that same order, so every
entry is bit-identical to differencing that entry on its own. Integrands
take ``_derivatives`` and ``_divergence``, which extrapolate nothing.

One ``_Operator`` per domain owns everything this module derives for that
domain: the colour blocks of the matrix, assembled when the operator is
made; the backend and the per-axis difference stencils, cached properties
built on first use; the memoized extensions; and the solve record (solves,
Krylov iterations, worst residual, worst maximum-principle margin). The
domain's arrays are read-only and a ``dataclasses.replace`` copy starts
with an empty cache, so none of it goes stale. ``solver_stats(*domains)``
merges the records of the given domains, and ``merge_records`` merges
records kept after their domains are gone, so a run reports exactly the
solves on its own domains.

The backend is the largest of these, and only solves read it. So once the
domain's normal-monomial extensions are all memoized, solved or derived,
the operator drops its backend: the bounds need nothing else that solves.
A run asks for a level's whole basis before any of its tasks, so the
backend is released after the level's solves and before anything on the
level is differentiated or checked. Everything else stays, since the checks
of a derived extension read the colour blocks and the boundary coupling,
and the difference operators read the stencils. A later
``solve_dirichlet`` on the domain builds the backend again, once, on first
use, from the same colour blocks, so it solves with the same factor or
hierarchy and gets the same solution. A run that asks for only some of the
extensions (the sobolev task alone) keeps its backend.

What keeps all of this alive is the domain alone. The operator's state,
the one entry of ``Domain._cache``, is the operator's attribute dict, and
``_operator(domain)`` binds it to the domain in a new view each call. The
state holds arrays, sparse matrices, the backend, the record, the
memoized extensions as bare (interior, boundary) arrays and, while
``solve_basis`` runs, the futures of the solves it hands ahead: nothing in
it refers back to the domain, so the two form no reference cycle. A domain
that nothing else refers to (no caller, and no ``Field`` or result made on
it) is freed at once with its state, without waiting for Python's cyclic
garbage collector. So a refinement ladder evaluated level by level holds
one level's domain and solver state at a time.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import Future, ThreadPoolExecutor
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import CheckError, Domain, Field, GeometryError

__all__ = [
    "SolverError",
    "solve_dirichlet",
    "solve_basis",
    "gradient",
    "divergence",
    "tensor_divergence",
    "check_sup_on_boundary",
    "extrapolate_to_boundary",
    "solver_stats",
    "merge_records",
]

SOLVER_TOL = 1e-10
# slack for the discrete maximum principle check (algebraic, not O(h))
MAX_PRINCIPLE_TOL = 1e-8

# BiCGSTAB stopping tolerance, relative to |rhs|. At 1e-13 the assembled
# sigma^k on an ellipsoid differ from direct solves by 1.2e-11, more than the
# 1e-12 round-off bound the LD tests hold them to; at 1e-15 they agree, and
# the true residuals stay near 3e-15, far inside SOLVER_TOL.
KRYLOV_RTOL = 1e-15

# columns SuperLU updates at a time (its default is 20). The supernodes of these
# factors are only a few columns wide. On the reduced matrix S in
# nested-dissection order, 1, 2, 4, 8 and 20 columns factor in 0.192, 0.183,
# 0.187, 0.185 and 0.208 s at disk h 0.005, and in 0.103, 0.106, 0.109, 0.112
# and 0.126 s on the annulus (0.5, 1) at h 0.005 (best of 5, 2 vCPUs), with
# the same ordering and fill: 2 is the fastest on the disk, and within 3% of
# the fastest on the annulus.
_PANEL_SIZE = 2

# boxes of at most this many nodes are not dissected further. At disk h 0.005,
# leaves of 1, 4 and 16 nodes give 5.22, 5.24 and 5.40 M nonzeros in the
# factor of S in the same factor time; each halving of the leaf adds one pass
# to the ordering.
_DISSECTION_LEAF = 4


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def _factor(matrix: sp.spmatrix, permc_spec: str):
    """Sparse LU of the reduced Shortley-Weller matrix S, permuted to
    nested-dissection order beforehand (``permc_spec`` "NATURAL"), or of a
    Galerkin coarsening of it, ordered by minimum degree on A^T + A
    ("MMD_AT_PLUS_A"). A CSC matrix is factored as it is; any other format
    is converted to a CSC copy first. Nested dissection of S has 0.80-0.86 of
    the fill of minimum degree and about half its factor time on the disk,
    the annulus and the ellipse at h 0.01 and 0.005 (module docstring); the
    coarsest multigrid level, of at most 500 unknowns, keeps minimum degree.

    Both are M-matrices with a symmetric pattern (A_BR has the transposed
    pattern of A_RB, and P^T S P keeps the symmetry), and an M-matrix factors
    stably with diagonal pivots in any symmetric order (Fiedler & Ptak 1962):
    in SymmetricMode the column order is applied to the rows alike, with no
    row pivoting. SuperLU updates a panel of ``_PANEL_SIZE`` columns at a time
    through dense (n, panel) work arrays; the supernodes are narrow, so a
    narrow panel wastes less of that work and memory. It changes only the
    order of the floating-point updates, not the ordering or the fill.
    """
    try:
        return spla.splu(sp.csc_matrix(matrix), permc_spec=permc_spec,
                         diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def _dissection(coords: np.ndarray) -> np.ndarray:
    """Nested-dissection keys (George 1973) of nodes at integer coordinates
    (2, n), for a matrix that couples only nodes at most one step apart along
    each axis: there the nodes on any lattice line separate those on its two
    sides.

    The root box is the nodes' bounding rectangle. A box of more than
    ``_DISSECTION_LEAF`` nodes is cut at the midpoint line across its longer
    side: the nodes below the line form its first half, those above it the
    second and those on it the separator, and each half's box is the
    rectangle on its side of the line. A node's key is its path down this
    tree in base 3, one digit per level: 0 for the first half, 1 for the
    second, 2 for the separator or a leaf, and 0 on every level after that.
    Sorted stably, the keys put each box's two halves before its separator
    and keep a leaf's nodes in their given order. Each level is one
    vectorised pass over all nodes, the placed ones in a sentinel box past
    the last. Every level halves the longer side of each box, so the depth is
    about log2 of the root's area: the 39 digits an int64 holds cover 2^39
    lattice points.
    """
    u, v = coords
    if u.size <= _DISSECTION_LEAF:   # one leaf; it may be empty, and has no bounds
        return np.zeros(u.size, dtype=np.int64)
    step = v - u
    key = np.zeros(u.size, dtype=np.int64)
    box = np.zeros(u.size, dtype=np.intp)
    count = np.array([u.size])                   # nodes per box
    lo = np.array([[u.min()], [v.min()]])        # (2, boxes) rectangles
    hi = np.array([[u.max()], [v.max()]])
    while count.size:
        axis = (hi[1] - lo[1] > hi[0] - lo[0]).astype(np.intp)
        cut = np.where(axis, lo[1] + hi[1], lo[0] + hi[0]) // 2
        # class 3b, 3b + 1, 3b + 2: below, on and above the cut of box b
        cls = 3 * box + 1 + np.sign(u + np.append(axis, 0)[box] * step
                                    - np.append(cut, 0)[box])
        split = np.append(count > _DISSECTION_LEAF, False)
        digit = np.where(split[:, None], [0, 2, 1], 2)
        digit[-1] = 0
        key = key * 3 + digit.ravel()[cls]
        sizes = np.bincount(cls, minlength=digit.size).reshape(digit.shape)
        half = split[:, None] & (sizes > 0) & [True, False, True]
        count = sizes[half]
        nxt = np.full(digit.shape, count.size)
        nxt[half] = np.arange(count.size)
        box = nxt.ravel()[cls]
        parent, side = np.nonzero(half)
        lo, hi = lo[:, parent], hi[:, parent]
        for bound, which, shift in ((hi, 0, -1), (lo, 2, 1)):
            k = np.flatnonzero(side == which)
            bound[axis[parent[k]], k] = cut[parent[k]] + shift
    return key


def _dissection_order(ij: np.ndarray) -> np.ndarray:
    """The positions of the black nodes at lattice coordinates (n, 2) in
    nested-dissection order. S couples black nodes one lattice step apart
    along a diagonal or two along an axis: one step along each axis of the
    black sublattice's coordinates u = (i + j - 1)/2, v = (i - j - 1)/2,
    which ``_dissection`` orders by."""
    i, j = ij.T
    return np.argsort(_dissection(np.stack([(i + j - 1) // 2, (i - j - 1) // 2])),
                      kind="stable")


class _DissectedLU:
    """The nested-dissection ``order`` of the black nodes and the LU factor of
    S permuted to it. ``permuted`` comes in CSC, SuperLU's format, so it is
    the only copy of S alive while SuperLU factors it."""

    def __init__(self, order: np.ndarray, permuted: sp.csc_matrix):
        self.order = order
        self.lu = _factor(permuted, "NATURAL")

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """The solution, and no iterations."""
        u = np.empty_like(rhs)
        u[self.order] = self.lu.solve(rhs[self.order])
        return u, 0


# aggregation V-cycle: damped-Jacobi weight, coarse-correction scaling, and the
# size at or below which a level is factored instead of coarsened
_JACOBI_WEIGHT = 0.8
_COARSE_SCALE = 1.5
_COARSEST = 500


class _Multigrid:
    """Plain-aggregation multigrid V-cycle (Vanek, Mandel & Brezina 1996).

    Each level aggregates the unknowns whose lattice indices share
    floor(ijk/2), so P is piecewise constant, R = P^T and the coarse operator
    is the Galerkin product R(AP). The cycle applies R and P as a sum and a
    gather over each unknown's aggregate, which give R r and P e bit for bit
    without keeping either matrix. For smooth errors the Galerkin product is
    about twice as stiff as the operator it stands for, so the coarse
    correction falls short and is scaled by 1.5 (over-correction, Braess
    1995). One damped-Jacobi sweep comes before it and one after. Levels are coarsened until one has
    at most 500 unknowns, and that level is factored. The cycle is a fixed
    linear map, so it serves as BiCGSTAB's preconditioner on the finest
    level's matrix, the 3D backend's ``solve``. Unsmoothed aggregates keep the
    coarse operators as sparse as the fine one.
    """

    def __init__(self, matrix: sp.csr_matrix, ijk: np.ndarray):
        self.matrix = matrix
        self.levels = []   # per level: A, the weighted inverse diagonal, the
                           # aggregate of each unknown and the number of aggregates
        while matrix.shape[0] > _COARSEST:
            shape = tuple(ijk.max(axis=1) // 2 + 1)
            keys, aggregate = np.unique(np.ravel_multi_index(ijk // 2, shape),
                                        return_inverse=True)
            n = matrix.shape[0]
            P = sp.csr_matrix((np.ones(n), (np.arange(n), aggregate)),
                              shape=(n, keys.size))
            self.levels.append((matrix, _JACOBI_WEIGHT / matrix.diagonal(),
                                aggregate, keys.size))
            matrix = (P.T.tocsr() @ (matrix @ P)).tocsr()
            ijk = np.array(np.unravel_index(keys, shape))
        self.coarsest = _factor(matrix, "MMD_AT_PLUS_A")

    def cycle(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle from a zero guess for A x = r on the given level."""
        if level == len(self.levels):
            return self.coarsest.solve(r)
        A, smoother, aggregate, size = self.levels[level]
        x = smoother * r
        coarse = np.bincount(aggregate, weights=r - A @ x, minlength=size)
        x += _COARSE_SCALE * self.cycle(coarse, level + 1)[aggregate]
        x += smoother * (r - A @ x)
        return x

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """BiCGSTAB on the finest level's matrix, preconditioned with the
        cycle: the solution and the iterations it took."""
        # the breakdown tests are absolute (eps^2), so solve for data scaled
        # to unit norm; a power of two keeps the rescaling exact
        exponent = np.frexp(np.sqrt(_dot(rhs, rhs)))[1]
        u, info, iterations = _bicgstab(self.matrix, self.cycle,
                                        np.ldexp(rhs, -exponent))
        u = np.ldexp(u, exponent)
        if info != 0:
            residual = _relative_residual(self.matrix @ u - rhs, u, rhs)
            reason = (f"did not converge in {info} iterations" if info > 0 else
                      f"broke down (info {info}) after {iterations} iterations")
            raise SolverError(f"BiCGSTAB {reason}, residual {residual:.3e}",
                              residual=residual)
        return u, iterations


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product as NumPy's pairwise sum, which adds the same terms
    in the same order whatever the BLAS and its thread count."""
    return np.add.reduce(a * b)


def _bicgstab(matrix: sp.csr_matrix, precondition, b: np.ndarray
              ) -> tuple[np.ndarray, int, int]:
    """Preconditioned BiCGSTAB (van der Vorst 1992) for matrix x = b from a
    zero guess, stopping at a residual norm below ``KRYLOV_RTOL`` |b|: the
    recurrences, breakdown tests and stopping test of SciPy 1.17's
    ``bicgstab``, with every inner product and norm taken by ``_dot``.

    Returns x, SciPy's info (0 converged, the iteration limit 10n if not,
    -10 or -11 if rho or omega broke down) and the iterations made, a final
    half step counting as one: two applications of ``precondition`` per
    iteration, rounded up."""
    atol = KRYLOV_RTOL * np.sqrt(_dot(b, b))
    x = np.zeros_like(b)
    if atol == 0:
        return x, 0, 0
    tiny = np.finfo(float).eps ** 2
    r, rtilde = b.copy(), b.copy()
    maxiter = 10 * b.size
    for iteration in range(maxiter):
        if np.sqrt(_dot(r, r)) < atol:
            return x, 0, iteration
        rho = _dot(rtilde, r)
        if abs(rho) < tiny:
            return x, -10, iteration
        if iteration:
            if abs(omega) < tiny:
                return x, -11, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = precondition(p)
        v = matrix @ phat
        rv = _dot(rtilde, v)
        if rv == 0:
            return x, -11, iteration + 1
        alpha = rho / rv
        r -= alpha * v
        if np.sqrt(_dot(r, r)) < atol:   # the half step
            x += alpha * phat
            return x, 0, iteration + 1
        shat = precondition(r)
        t = matrix @ shat
        omega = _dot(t, r) / _dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, maxiter, maxiter


def _arm_ends(domain: Domain) -> np.ndarray:
    """(2*dim, N) end of every stencil arm: an interior node j, or boundary
    node b in column N + b of the interior-then-boundary values."""
    return np.where(domain.arm_interior >= 0, domain.arm_interior,
                    domain.n_interior + domain.arm_boundary)


def _shortley_weller(domain: Domain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2*dim, N) coupling of each arm to its end, the (N,) diagonal and the
    arm-end map. Arm d, of length h_d, couples node i with the arm's end by
    2 / (h_d (hp + hm)), where hp and hm are the two arms of its axis."""
    hp, hm = domain.arm_length[0::2], domain.arm_length[1::2]
    coeff = 2.0 / (domain.arm_length * np.repeat(hp + hm, 2, axis=0))
    return coeff, (2.0 / (hp * hm)).sum(axis=0), _arm_ends(domain)


def _lattice(domain: Domain) -> np.ndarray:
    """(N, dim) lattice coordinates round(x/h) of the interior nodes. The grid
    lies on h Z^dim, so they do not depend on the grid's extent."""
    return np.rint(domain.interior_coords / domain.h).astype(np.int64)


def _relative_residual(residual: np.ndarray, u: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(np.abs(rhs).max(), np.abs(u).max(), 1e-300)
    return np.abs(residual).max() / scale


class _Operator:
    """Shortley-Weller discretization bound to one domain, with everything
    derived from it and the record of the solves made with it.

    The interior nodes are coloured by the parity of their lattice coordinate
    sum: red (even) and black (odd). Interior arms are one lattice step long,
    so each couples nodes of opposite colours and, ordered red then black,

        A = [[D_R, A_RB], [A_BR, D_B]]

    with D_R and D_B diagonal. The operator keeps only the two diagonals and
    the two coupling blocks, each read off the arm-end map.

    ``domain`` is a slot, outside the attribute dict that holds everything
    else: that dict is the state the domain keeps, and ``_operator`` binds a
    new view of it to the domain on each call (module docstring)."""

    __slots__ = ("domain", "__dict__")

    def __init__(self, domain: Domain):
        self.domain = domain
        n = domain.n_interior
        coeff, diag, ends = _shortley_weller(domain)
        inner = ends < n
        black = _lattice(domain).sum(axis=1) % 2 == 1
        same = inner & (black[np.where(inner, ends, 0)] == black)
        if same.any():
            arm, node = np.argwhere(same)[0]
            raise SolverError(
                f"interior arm {arm} of node {node} at "
                f"{domain.interior_coords[node].tolist()} joins two nodes of the "
                f"same lattice parity, so the red nodes cannot be eliminated")
        self.red, self.black = np.flatnonzero(~black), np.flatnonzero(black)
        self.red_diag, self.black_diag = diag[self.red], diag[self.black]
        local = np.empty(n, dtype=np.int64)
        local[self.red] = np.arange(self.red.size)
        local[self.black] = np.arange(self.black.size)

        def couplings(nodes: np.ndarray, columns: int) -> sp.csr_matrix:
            node_ends, m = ends[:, nodes], inner[:, nodes]
            rows = np.broadcast_to(np.arange(nodes.size), m.shape)
            return sp.csr_matrix((-coeff[:, nodes][m], (rows[m], local[node_ends[m]])),
                                 shape=(nodes.size, columns))

        self.red_black = couplings(self.red, self.black.size)
        self.black_red = couplings(self.black, self.red.size)
        rows = np.broadcast_to(np.arange(n), ends.shape)
        self.boundary_coupling = sp.csc_matrix(
            (coeff[~inner], (rows[~inner], ends[~inner] - n)), shape=(n, domain.n_boundary))
        self.monomials: dict[tuple[int, ...], _Extension] = {}
        # data bytes -> future of its ``solve_black``, while ``solve_basis`` runs
        self.ahead: dict[bytes, Future] = {}
        self.record = {"solves": 0, "iterations": 0, "max_residual": 0.0,
                       "max_principle_violation": 0.0}

    def apply(self, u: np.ndarray) -> np.ndarray:
        """-lap_h u at the interior nodes, from the colour blocks."""
        out = np.empty_like(u)
        red, black = u[self.red], u[self.black]
        out[self.red] = self.red_diag * red + self.red_black @ black
        out[self.black] = self.black_diag * black + self.black_red @ red
        return out

    def schur(self) -> sp.csr_matrix:
        """The reduced matrix S = D_B - A_BR D_R^-1 A_RB on the black nodes,
        built anew on each call. Its pattern is symmetric, because A_BR has
        the transposed pattern of A_RB, and it is again an M-matrix."""
        eliminated = self.black_red @ sp.diags(1.0 / self.red_diag) @ self.red_black
        return (sp.diags(self.black_diag) - eliminated).tocsr()

    @cached_property
    def backend(self) -> _DissectedLU | _Multigrid:
        """The solver of S, built from S on first use: its LU factor in 2D, the
        multigrid hierarchy on it in 3D (module docstring)."""
        if self.domain.dim == 2:
            order = _dissection_order(_lattice(self.domain)[self.black])
            return _DissectedLU(order, self.schur()[order][:, order].tocsc())
        lattice = _lattice(self.domain)
        return _Multigrid(self.schur(), (lattice[self.black] - lattice.min(axis=0)).T)

    @cached_property
    def stencils(self) -> list[tuple]:
        """Per axis, built on the first difference operator call: the derivative
        as an (N, N+M) CSR matrix over the interior then the boundary values;
        its denominators hp*hm*(hp+hm); the interior-only gradient at each
        boundary node's nearest interior node as an (M, N) CSR matrix; its
        divisors (2h central, h one-sided); and the offsets from those nodes to
        the boundary. Each row lists its terms in the order the difference
        formulas add them, so the products are bit-identical to evaluating the
        formulas term by term."""
        domain = self.domain
        n, h, near = domain.n_interior, domain.h, domain.boundary_nearest
        offset = domain.boundary_pos - domain.interior_coords[near]
        ends = _arm_ends(domain)
        stencils = []
        for ax in range(domain.dim):
            hp, hm = domain.arm_length[2 * ax], domain.arm_length[2 * ax + 1]
            ip, im = domain.arm_interior[2 * ax], domain.arm_interior[2 * ax + 1]
            cols = np.stack([ends[2 * ax], ends[2 * ax + 1], np.arange(n)], axis=1)
            derivative = sp.csr_matrix(
                (np.stack([hm ** 2, -hp ** 2, hp ** 2 - hm ** 2], axis=1).ravel(),
                 cols.ravel(), np.arange(0, 3 * n + 1, 3)),
                shape=(n, n + domain.n_boundary))
            # +1/-1 rows give vp - vm, vp - v or v - vm; empty without a neighbour
            has_p, has_m = ip[near] >= 0, im[near] >= 0
            cols = np.stack([np.where(has_p, ip[near], near),
                             np.where(has_m, im[near], near)], axis=1)
            rows = has_p | has_m
            grad = sp.csr_matrix(
                (np.tile([1.0, -1.0], int(rows.sum())), cols[rows].ravel(),
                 np.concatenate([[0], np.cumsum(2 * rows)])),
                shape=(domain.n_boundary, n))
            stencils.append((derivative, hp * hm * (hp + hm), grad,
                             np.where(has_p & has_m, 2 * h, h), offset[:, ax]))
        return stencils

    def solve(self, boundary_values: np.ndarray) -> Field:
        domain = self.domain
        g = np.asarray(boundary_values, dtype=float)
        if g.shape != (domain.n_boundary,):
            raise GeometryError(
                f"expected {domain.n_boundary} boundary values, got {g.shape}")
        if not np.isfinite(g).all():
            raise GeometryError("boundary data contains non-finite values")
        # the result solved ahead for these data (``solve_basis``), or a solve now
        ahead = self.ahead.pop(g.tobytes(), None)
        red_rhs, black, iterations = (ahead.result() if ahead is not None
                                      else self.solve_black(g))
        u = np.empty(domain.n_interior)
        u[self.black] = black
        self.record["iterations"] += iterations
        u[self.red] = (red_rhs - self.red_black @ black) / self.red_diag
        return self.verified(u, g, solved=True)

    def solve_black(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """The red part of the right-hand side for Dirichlet data g, and the
        backend's values at the black nodes and its iterations once the red
        nodes are eliminated. It reads only the colour blocks and the
        backend, and writes nothing, so it may run on a worker thread once
        the backend is built."""
        rhs = self.boundary_coupling @ g
        red_rhs = rhs[self.red]
        reduced = rhs[self.black] - self.black_red @ (red_rhs / self.red_diag)
        return (red_rhs, *self.backend.solve(reduced))

    def verified(self, u: np.ndarray, g: np.ndarray, solved: bool) -> Field:
        """The field with interior values u and boundary values g, once u passes
        the residual and maximum-principle checks of a solve with data g; both
        are recorded, and ``solved`` counts it as a solve."""
        rhs = self.boundary_coupling @ g
        residual = _relative_residual(self.apply(u) - rhs, u, rhs)
        if not np.isfinite(u).all() or residual > SOLVER_TOL:
            raise SolverError(
                f"linear solve residual {residual:.3e} exceeds {SOLVER_TOL:.0e}",
                residual=residual)
        self.record["solves"] += int(solved)
        self.record["max_residual"] = max(self.record["max_residual"], residual)
        field = Field(self.domain, u, g)
        _check_max_principle(field)
        return field


def _check_max_principle(field: Field) -> float:
    """Relative amount by which interior values leave the data range at the axis
    crossings (the Dirichlet constraint points), the worst over the field's
    entries, each relative to its own data; recorded in the field's domain
    record, and fatal above tolerance."""
    k = int(np.prod(field.shape))
    # one contiguous row per entry: NumPy reduces an (N, k) array over N slowly
    u = np.ascontiguousarray(field.interior.reshape(-1, k).T)
    data = np.ascontiguousarray(field.boundary[field.domain.boundary_is_axis].reshape(-1, k).T)
    violation = 0.0
    if u.size and data.size:
        excess = np.maximum(u.max(axis=1) - data.max(axis=1), data.min(axis=1) - u.min(axis=1))
        scale = np.maximum(np.abs(data).max(axis=1), 1e-300)
        violation = max(violation, float((excess / scale).max()))
    record = _operator(field.domain).record
    record["max_principle_violation"] = max(record["max_principle_violation"],
                                            violation)
    if violation > MAX_PRINCIPLE_TOL:
        raise SolverError(
            f"discrete maximum principle violated by {violation:.3e}")
    return violation


class _Extension(NamedTuple):
    """A memoized harmonic extension's values, without its domain."""

    interior: np.ndarray
    boundary: np.ndarray


def _operator(domain: Domain) -> _Operator:
    """The domain's operator: made on first use, which stores its attribute
    dict in the domain's cache; later calls bind a new view to that dict."""
    state = domain._cache.get("laplace_operator")
    if state is None:
        op = _Operator(domain)
        domain._cache["laplace_operator"] = vars(op)
    else:
        op = object.__new__(_Operator)
        op.domain, op.__dict__ = domain, state
    return op


def solver_stats(*domains: Domain) -> dict:
    """The solve records of the given domains merged (``merge_records``). A
    domain never solved on contributes nothing; with no domains every entry
    is zero."""
    return merge_records(*(d._cache["laplace_operator"]["record"] for d in domains
                           if "laplace_operator" in d._cache))


def merge_records(*records: dict) -> dict:
    """Solve records merged: solve and iteration counts summed, worst residual
    and maximum-principle margin maxed. A ``solver_stats`` result has a
    record's keys, so the stats of domains that are gone merge the same way."""
    return {"solves": sum(r["solves"] for r in records),
            "iterations": sum(r["iterations"] for r in records),
            "max_residual": max((r["max_residual"] for r in records), default=0.0),
            "max_principle_violation": max(
                (r["max_principle_violation"] for r in records), default=0.0)}


def solve_dirichlet(domain: Domain, boundary_values) -> Field:
    """Solve lap(u)=0 with u = boundary_values on the boundary nodes."""
    return _operator(domain).solve(boundary_values)


def _basis(dim: int) -> set[tuple[int, ...]]:
    """The normal monomials the trace bounds extend: every nu_a and every
    nu_a nu_b nu_c, 6 in 2D and 13 in 3D, as sorted axis tuples."""
    return {(a,) for a in range(dim)} | set(
        itertools.combinations_with_replacement(range(dim), 3))


def _derived(key: tuple[int, ...], dim: int) -> bool:
    """Whether the sorted axis tuple is nu_a nu_L^2, L = dim - 1: the one
    extension of each |nu|^2 = 1 identity that is derived, not solved."""
    return key[1:] == (dim - 1, dim - 1)


def _monomial_values(domain: Domain, key: tuple[int, ...]) -> np.ndarray:
    """The boundary values of the normal monomial nu_a nu_b ... of ``key``."""
    return np.prod(domain.boundary_normal[:, list(key)], axis=1)


def _normal_monomial(domain: Domain, axes: tuple[int, ...]) -> Field:
    """Harmonic extension H[nu_a nu_b ...] of a product of normal components,
    memoized per domain under the sorted axis tuple.

    Since |nu|^2 = 1, H[nu_a] = sum_b H[nu_a nu_b nu_b]. With L = dim - 1,
    H[nu_a nu_L^2] = H[nu_a] - sum_{c<L} H[nu_a nu_c^2] is always derived:
    its partners are fetched through this function, so any that is missing
    is solved, and the sum is checked and recorded like a solve, with the
    exact monomial as boundary values, but not counted as one. Every other
    monomial is solved, so a domain needs 10 solves in 3D and 4 in 2D for all
    13 (6) extensions.

    The insert that completes these 13 (6), solved or derived, drops the
    operator's backend, which a later ``solve_dirichlet`` builds again
    (module docstring)."""
    key = tuple(sorted(axes))
    op = _operator(domain)
    memo = op.monomials
    if key in memo:
        return Field(domain, *memo[key])
    values = _monomial_values(domain, key)
    if _derived(key, domain.dim):
        a, last = key[0], domain.dim - 1
        terms = [(1.0, (a,))] + [(-1.0, (a, c, c)) for c in range(last)]
        u = sum(sign * _normal_monomial(domain, k).interior for sign, k in terms)
        field = op.verified(u, values, solved=False)
    else:
        field = solve_dirichlet(domain, values)
    # the values only: a Field would refer back to the domain
    memo[key] = _Extension(field.interior, field.boundary)
    basis = _basis(domain.dim)
    if key in basis and basis <= memo.keys():
        # nothing the trace bounds need solves on this domain again
        vars(op).pop("backend", None)
    return field


def solve_basis(domain: Domain) -> None:
    """Memoize every normal-monomial extension of the basis (``_basis``), in
    sorted key order, which puts each derived extension after its partners.

    In 3D the first missing solve builds the backend on this thread. The
    backend solves of the others are then handed to a pool of one worker per
    CPU this process may run on: each worker reduces its data and runs the
    backend (``solve_black``), nothing else. Each extension is still one
    ``solve_dirichlet`` call on this thread, in the same order, which takes
    the result solved ahead, back-substitutes, verifies and records it. So
    the fields, the solve record and the first error are those of solving
    one after another. In 2D the solves run one after another: an LU solve
    is cheap next to the factorization the first one makes."""
    op = _operator(domain)
    keys = sorted(_basis(domain.dim))
    missing = [key for key in keys
               if key not in op.monomials and not _derived(key, domain.dim)]
    # sched_getaffinity is Linux only
    workers = ThreadPoolExecutor(len(os.sched_getaffinity(0))
                                 if hasattr(os, "sched_getaffinity") else os.cpu_count())
    try:
        if domain.dim == 3 and len(missing) > 1:
            _normal_monomial(domain, missing[0])
            for key in missing[1:]:
                g = _monomial_values(domain, key)
                op.ahead[g.tobytes()] = workers.submit(op.solve_black, g)
        for key in keys:
            _normal_monomial(domain, key)
    finally:
        # after a failed solve: drop the results not taken, cancel the solves
        # not started and wait for the running ones
        op.ahead.clear()
        workers.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def _derivative(domain: Domain, interior: np.ndarray, boundary: np.ndarray,
                axis: int) -> np.ndarray:
    """Second-order non-uniform 3-point derivative along one axis at the
    interior nodes, (N, *s), of values given at the interior (N, *s) and
    boundary (M, *s) nodes: their columns stacked as (N + M, k) go through
    the axis's stencil in one sparse product."""
    derivative, denominator, *_ = _operator(domain).stencils[axis]
    values = np.concatenate([interior, boundary])
    d = derivative @ values.reshape(len(values), -1)
    d /= denominator[:, None]
    return d.reshape(interior.shape)


def _derivatives(field: Field) -> np.ndarray:
    """(N, *s, dim) first derivatives of every entry at the interior nodes:
    entry [..., a] is the derivative along axis a."""
    domain = field.domain
    d = np.empty((domain.n_interior, *field.shape, domain.dim))
    for axis in range(domain.dim):
        d[..., axis] = _derivative(domain, field.interior, field.boundary, axis)
    return d


def extrapolate_to_boundary(domain: Domain, interior_values: np.ndarray) -> np.ndarray:
    """Linear extrapolation of (N, *s) interior nodal values onto the boundary
    nodes, as (M, *s) values.

    Each boundary node takes the value at its nearest interior node plus a
    first-order correction from that node's interior-only gradient: the
    outward continuation used to evaluate derived quantities (divergences)
    on the boundary itself.
    """
    values = np.asarray(interior_values, dtype=float)
    columns = values.reshape(len(values), -1)
    # in place, so a tensor's columns need no more than two (M, k) arrays
    correction = None
    for _, _, grad, divisor, offset in _operator(domain).stencils:
        term = grad @ columns
        term /= divisor[:, None]
        term *= offset[:, None]
        correction = term if correction is None else np.add(correction, term, out=correction)
    correction = correction.reshape(-1, *values.shape[1:])
    correction += values[domain.boundary_nearest]
    return correction


def _with_boundary(domain: Domain, interior_values: np.ndarray) -> Field:
    """Interior values plus their extrapolation onto the boundary nodes."""
    return Field(domain, interior_values, extrapolate_to_boundary(domain, interior_values))


# no pipeline run calls gradient; it stays because perfbench's tracer wraps
# it by name (perfbench/child.py, Tracer.install)
def gradient(field: Field) -> Field:
    """First derivatives of a scalar field; boundary values linearly extrapolated."""
    return _with_boundary(field.domain, _derivatives(field))


def _divergence(field: Field) -> np.ndarray:
    """Divergence over the last index at the interior nodes, (N, *s[:-1])."""
    return sum(_derivative(field.domain, field.interior[..., i], field.boundary[..., i], i)
               for i in range(field.domain.dim))


def divergence(field: Field) -> Field:
    """Divergence over the last index: sum_i d(v_i)/dx_i of a vector field, and
    of a tensor field the row divergence (see tensor_divergence)."""
    return _with_boundary(field.domain, _divergence(field))


def tensor_divergence(field: Field) -> Field:
    """Row divergence (div sigma)_i = d sigma_ij / dx_j of a symmetric tensor
    field: the divergence over its last index."""
    return divergence(field)


def check_sup_on_boundary(name: str, domain: Domain, interior: np.ndarray,
                          boundary: np.ndarray) -> tuple[float, float]:
    """Boundary and closure sups of nonnegative nodal magnitudes, checked for the
    maximum principle: a closure sup more than 10h times itself above the
    boundary sup raises CheckError naming the interior node that attains it."""
    sup_b = float(boundary.max())
    sup_c = max(sup_b, float(interior.max()))
    tol = 10.0 * domain.h * max(sup_c, 1e-300)
    if sup_c - sup_b > tol:
        node = int(interior.argmax())
        raise CheckError(
            f"{name} sup {sup_c:.6f} not attained on the boundary "
            f"(boundary {sup_b:.6f}, tol {tol:.2e}) at "
            f"{domain.interior_coords[node].tolist()}, interior node {node}")
    return sup_b, sup_c
