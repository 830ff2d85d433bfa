"""Level-set domains on uniform Cartesian grids.

A domain is described implicitly by a level-set function (negative inside),
sampled on a uniform grid. The boundary is extracted as a polyline (2D) or
triangulated surface (3D) by simplicial marching: each grid cell is split
into two triangles / six Kuhn tetrahedra with a globally consistent diagonal
choice, and the zero crossing is located on every cut simplex edge by
bisection of the true level-set function. Crossings on axis-aligned grid
edges double as the irregular-arm endpoints of the embedded-boundary
Laplace stencils, so the PDE solver and the surface quadrature see the same
boundary points.

Volume is computed from the exact sub-simplex volume of the linear
interpolant of the level set (a boundary-cell correction on top of node
counting). The facets come from one constant table, ``_FACETS``: with its
corners sorted stably so that its k inside corners come first, a mixed simplex
is cut on the corner pairs (i, j) with i < k <= j, in lexicographic order, and
its facet is one segment (2D), one triangle (3D, k = 1 or 3), or the quad of
pairs AC, AD, BC, BD split into the pair triangles [0, 1, 3] and [0, 3, 2]
(3D, k = 2). Surface measure is the total facet measure, with per-vertex
quadrature weights of segment half-lengths (2D) or triangle-area thirds (3D).
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DomainSpec",
    "Domain",
    "GeometryError",
    "CheckError",
    "build_domain",
    "integrate_volume",
    "integrate_boundary",
    "parse_levelset_expression",
]

CANONICAL_KINDS = ("disk", "ball", "ellipse", "ellipsoid", "annulus")
KINDS = CANONICAL_KINDS + ("levelset",)

# grid nodes with |phi| below this (relative) threshold are pushed outside,
# so no Shortley-Weller arm can degenerate to zero length
_SNAP_REL = 1e-12

# desk-scale default: about 128^3 grid nodes
DEFAULT_NODE_CAP = 2_200_000


class GeometryError(ValueError):
    pass


class CheckError(RuntimeError):
    """A computed field fails a verification check of the pipeline."""


# ---------------------------------------------------------------------------
# level-set expression language:  + - * / ^  min  max  sqrt  abs  x y z
# ---------------------------------------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_FUNCS = {"sqrt": (1, np.sqrt), "abs": (1, np.abs),
          "min": (2, np.minimum), "max": (2, np.maximum)}


def _compile(node: ast.AST, names: tuple[str, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized closure for one whitelisted AST node; GeometryError otherwise."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        a, b = _compile(node.left, names), _compile(node.right, names)
        return lambda p: op(a(p), b(p))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _compile(node.operand, names)
        return lambda p: -a(p)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS):
        nargs, fn = _FUNCS[node.func.id]
        if len(node.args) != nargs or node.keywords:
            raise GeometryError(f"{node.func.id} takes {nargs} positional argument(s)")
        args = [_compile(arg, names) for arg in node.args]
        return lambda p: fn(*[g(p) for g in args])
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise GeometryError(f"unknown symbol {node.id!r} in level-set expression")
        axis = names.index(node.id)
        return lambda p: p[..., axis]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
        return lambda p: np.full(p.shape[:-1], value)
    raise GeometryError(f"unsupported {type(node).__name__} in level-set expression")


def parse_levelset_expression(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x,y[,z] to a callable on point arrays (..., dim).

    The language is + - * / ^, unary minus, parentheses, sqrt(a), abs(a),
    min(a, b), max(a, b), the coordinates and numbers. ``^`` is the power,
    right-associative and binding tighter than unary minus, so -x^2 is -(x^2)
    and 2^-1 is 0.5. It is parsed with Python's ``ast`` (``^`` read as ``**``)
    and only the nodes above are compiled; anything else, including a literal
    ``**`` or input nested too deeply, raises GeometryError.
    """
    if "**" in text:
        raise GeometryError("use ^ for powers in level-set expressions, not **")
    try:
        # strip: ast reads leading blanks as an indentation error
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
        return _compile(tree.body, tuple("xyz"[:dim]))
    except (SyntaxError, OverflowError) as exc:
        raise GeometryError(f"invalid level-set expression: {exc}") from None
    except RecursionError:
        raise GeometryError("level-set expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Shape + grid spacing. Canonical kinds get exact analytic normals."""

    kind: str
    h: float
    dim: int
    radius: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    r_in: float = 0.0
    r_out: float = 0.0
    expression: str = ""
    bbox: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if not (isinstance(self.h, (int, float)) and self.h > 0):
            raise GeometryError("grid spacing h must be positive")
        numbers = (self.h, self.radius, self.a, self.b, self.c, self.r_in, self.r_out)
        if not all(math.isfinite(v) for v in numbers + tuple(self.bbox)):
            raise GeometryError("domain sizes and the bbox must be finite")
        if self.dim not in (2, 3):
            raise GeometryError("dimension must be 2 or 3")
        expect = {"disk": 2, "ball": 3, "ellipse": 2, "ellipsoid": 3, "annulus": 2}
        if self.kind in expect and expect[self.kind] != self.dim:
            raise GeometryError(f"kind {self.kind!r} requires dim={expect[self.kind]}")
        if self.kind in ("disk", "ball") and not self.radius > 0:
            raise GeometryError("radius must be positive")
        if self.kind in ("ellipse", "ellipsoid"):
            axes = (self.a, self.b) + ((self.c,) if self.kind == "ellipsoid" else ())
            if not all(s > 0 for s in axes):
                raise GeometryError("semi-axes must be positive")
        if self.kind == "annulus" and not (0 < self.r_in < self.r_out):
            raise GeometryError("annulus requires 0 < r_in < r_out")
        if self.kind == "levelset" and not self.expression:
            raise GeometryError("levelset kind requires an expression")
        if not self.bbox[0] < self.bbox[1]:
            raise GeometryError("bbox must be (lo, hi) with lo < hi")

    # ---- constructors ----

    @staticmethod
    def disk(radius: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="disk", h=h, dim=2, radius=radius)

    @staticmethod
    def ball(radius: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ball", h=h, dim=3, radius=radius)

    @staticmethod
    def ellipse(a: float, b: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ellipse", h=h, dim=2, a=a, b=b)

    @staticmethod
    def ellipsoid(a: float, b: float, c: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ellipsoid", h=h, dim=3, a=a, b=b, c=c)

    @staticmethod
    def annulus(r_in: float, r_out: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="annulus", h=h, dim=2, r_in=r_in, r_out=r_out)

    @staticmethod
    def levelset(expression: str, h: float, dim: int = 2,
                 bbox: tuple[float, float] = (-2.0, 2.0)) -> "DomainSpec":
        return DomainSpec(kind="levelset", h=h, dim=dim,
                          expression=expression, bbox=tuple(bbox))

    # ---- geometry callbacks ----

    def levelset_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized phi(points), negative inside; points shaped (..., dim)."""
        if self.kind in ("disk", "ball"):
            r2 = self.radius ** 2
            return lambda p: np.sum(p * p, axis=-1) - r2
        if self.kind in ("ellipse", "ellipsoid"):
            axes = np.array([self.a, self.b, self.c][: self.dim])
            return lambda p: np.sum((p / axes) ** 2, axis=-1) - 1.0
        if self.kind == "annulus":
            ri2, ro2 = self.r_in ** 2, self.r_out ** 2
            return lambda p: np.maximum(np.sum(p * p, axis=-1) - ro2,
                                        ri2 - np.sum(p * p, axis=-1))
        return parse_levelset_expression(self.expression, self.dim)

    def normal_function(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Exact outward unit normals for canonical shapes, else None."""
        if self.kind in ("disk", "ball"):
            return lambda p: p / np.linalg.norm(p, axis=-1, keepdims=True)
        if self.kind in ("ellipse", "ellipsoid"):
            axes2 = np.array([self.a, self.b, self.c][: self.dim]) ** 2

            def ellipse_normal(p):
                g = p / axes2
                return g / np.linalg.norm(g, axis=-1, keepdims=True)

            return ellipse_normal
        if self.kind == "annulus":
            mid = 0.5 * (self.r_in + self.r_out)

            def annulus_normal(p):
                r = np.linalg.norm(p, axis=-1, keepdims=True)
                return np.where(r > mid, p / r, -p / r)

            return annulus_normal
        return None

    def grid_bbox(self) -> tuple[float, float]:
        if self.kind in ("disk", "ball"):
            r = self.radius
        elif self.kind == "ellipse":
            r = max(self.a, self.b)
        elif self.kind == "ellipsoid":
            r = max(self.a, self.b, self.c)
        elif self.kind == "annulus":
            r = self.r_out
        else:
            return self.bbox
        return (-r - 3 * self.h, r + 3 * self.h)


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Discretized domain; immutable except ``_cache``, which laplace fills lazily.

    Interior grid nodes carry the PDE unknowns. Boundary nodes are the surface
    mesh vertices: crossings on axis-aligned grid edges (``boundary_is_axis``,
    also the Dirichlet constraint points of the Shortley-Weller stencils) plus
    crossings on cell diagonals introduced by the simplicial split.
    """

    spec: DomainSpec
    dim: int
    h: float
    origin: np.ndarray                 # (dim,) position of grid node (0,...,0)
    shape: tuple[int, ...]             # grid node counts per axis
    phi: np.ndarray                    # level-set values on the grid (snapped)
    interior_flat: np.ndarray          # (N,) flat grid indices of interior nodes
    interior_coords: np.ndarray        # (N, dim)
    volume_weights: np.ndarray         # (N,) nodal volume quadrature weights
    boundary_pos: np.ndarray           # (M, dim)
    boundary_normal: np.ndarray        # (M, dim) outward unit normals
    boundary_weight: np.ndarray        # (M,) surface quadrature weights
    boundary_is_axis: np.ndarray       # (M,) bool, crossing on an axis edge
    boundary_nearest: np.ndarray       # (M,) interior id of the inside endpoint
    # per direction d in 0..2*dim-1 (axis d//2, sign +1 for even d, -1 for odd):
    arm_length: np.ndarray             # (2*dim, N)
    arm_interior: np.ndarray           # (2*dim, N) neighbor interior id or -1
    arm_boundary: np.ndarray           # (2*dim, N) crossing boundary id or -1
    volume: float
    area: float
    # the one mutable part: laplace's operator for this domain, its only
    # entry, which holds everything derived from the fields above (matrix,
    # solver set-up, extensions, difference stencils) and the solve record
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_interior(self) -> int:
        return self.interior_coords.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_pos.shape[0]


# Kuhn simplex decompositions of the unit cell, as corner offset tuples.
_TRIANGLES_2D = (
    ((0, 0), (1, 0), (1, 1)),
    ((0, 0), (1, 1), (0, 1)),
)


# corner n of the tet for axis order perm has offset 1 on the axes perm[:n]
_TETS_3D = tuple(tuple(tuple(int(ax in perm[:n]) for ax in range(3)) for n in range(4))
                 for perm in itertools.permutations(range(3)))

# facet table (module docstring): dim -> inside-corner count k -> facets as
# index tuples into the simplex's cut corner pairs
_FACETS = {
    2: {1: ((0, 1),), 2: ((0, 1),)},
    3: {1: ((0, 1, 2),), 2: ((0, 1, 3), (0, 3, 2)), 3: ((0, 1, 2),)},
}


def _simplex_inside_fraction(values: np.ndarray) -> np.ndarray:
    """Volume fraction of {phi<0} for linear phi on simplices.

    values: (m, d+1) vertex values for d-simplices. Divided-difference closed
    form; exact for the linear interpolant. Ties are jittered (relative 1e-11).
    """
    values = np.asarray(values, dtype=float)
    m, nv = values.shape
    d = nv - 1
    scale = np.maximum(1.0, np.abs(values).max(axis=1, keepdims=True))
    v = values + scale * 1e-11 * np.arange(1, nv + 1)
    neg = v < 0
    frac = np.zeros(m)
    for i in range(nv):
        others = [j for j in range(nv) if j != i]
        denom = np.ones(m)
        for j in others:
            denom = denom * (v[:, j] - v[:, i])
        frac += np.where(neg[:, i], (-v[:, i]) ** d / denom, 0.0)
    frac[neg.all(axis=1)] = 1.0
    frac[~neg.any(axis=1)] = 0.0
    return np.clip(frac, 0.0, 1.0)


def _bisect_crossings(phi_fn, pos_in: np.ndarray, pos_out: np.ndarray) -> np.ndarray:
    """Locate phi=0 on segments from inside (phi<0) to outside points."""
    if pos_in.shape[0] == 0:
        return pos_in.copy()
    val_out = np.asarray(phi_fn(pos_out), dtype=float)
    lo = np.zeros(pos_in.shape[0])
    hi = np.ones(pos_in.shape[0])
    # raw phi may be (numerically) negative at a snapped-out endpoint
    out_is_root = val_out < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        vm = phi_fn(pos_in + mid[:, None] * (pos_out - pos_in))
        went_out = vm >= 0
        hi = np.where(went_out, mid, hi)
        lo = np.where(went_out, lo, mid)
    t = 0.5 * (lo + hi)
    t[out_is_root] = 1.0
    return pos_in + t[:, None] * (pos_out - pos_in)


def build_domain(spec: DomainSpec, max_nodes: int = DEFAULT_NODE_CAP) -> Domain:
    """Discretize the spec: classify nodes, extract the boundary, build quadrature."""
    dim = spec.dim
    h = spec.h
    phi_fn = spec.levelset_function()

    lo, hi = spec.grid_bbox()
    # symmetric grid through the origin keeps canonical shapes unbiased
    n_half = int(math.ceil(max(abs(lo), abs(hi)) / h)) + 1
    axis_idx = np.arange(-n_half, n_half + 1)
    origin = np.full(dim, -n_half * h)
    shape = (len(axis_idx),) * dim
    if np.prod(shape, dtype=np.int64) > max_nodes:
        raise GeometryError(
            f"grid of {np.prod(shape, dtype=np.int64)} nodes exceeds the "
            f"desk-scale cap {max_nodes}; increase h or raise max_nodes")

    grids = np.meshgrid(*([axis_idx * h] * dim), indexing="ij")
    points = np.stack(grids, axis=-1)
    phi = np.asarray(phi_fn(points), dtype=float)
    if phi.shape != shape:
        raise GeometryError("level-set expression did not evaluate to a scalar")
    if not np.isfinite(phi).all():
        raise GeometryError("level-set function produced non-finite values")

    scale = max(1.0, float(np.abs(phi).max()))
    phi = np.where(np.abs(phi) < _SNAP_REL * scale, _SNAP_REL * scale, phi)

    inside = phi < 0
    if not inside.any():
        raise GeometryError("grid too coarse: no interior nodes")
    if inside.sum() != inside[(slice(1, -1),) * dim].sum():  # inside on the shell
        raise GeometryError("domain not bounded within bounding box")

    phi_flat = phi.ravel()
    inside_flat = inside.ravel()
    interior_flat = np.flatnonzero(inside_flat)
    n_int = interior_flat.size
    interior_id_flat = np.full(phi.size, -1, dtype=np.int64)
    interior_id_flat[interior_flat] = np.arange(n_int)
    multi = np.array(np.unravel_index(interior_flat, shape)).T
    interior_coords = origin + h * multi.astype(float)

    def flat_to_pos(flat: np.ndarray) -> np.ndarray:
        return origin + h * np.array(np.unravel_index(flat, shape)).T.astype(float)

    strides = np.array([int(np.prod(shape[ax + 1:], dtype=np.int64)) for ax in range(dim)])

    # ---- phase 1: axis arms (collect cut edges, fill interior links) ----
    n_dir = 2 * dim
    arm_length = np.full((n_dir, n_int), float(h))
    arm_interior = np.full((n_dir, n_int), -1, dtype=np.int64)
    arm_boundary = np.full((n_dir, n_int), -1, dtype=np.int64)

    edge_in_parts: list[np.ndarray] = []
    edge_out_parts: list[np.ndarray] = []
    arm_cut_slots: list[tuple[int, np.ndarray]] = []  # (direction, interior ids)

    for ax in range(dim):
        for sign in (+1, -1):
            d = 2 * ax + (0 if sign > 0 else 1)
            nb_flat = interior_flat + sign * strides[ax]
            nb_inside = inside_flat[nb_flat]
            arm_interior[d, nb_inside] = interior_id_flat[nb_flat[nb_inside]]
            cut = ~nb_inside
            if cut.any():
                edge_in_parts.append(interior_flat[cut])
                edge_out_parts.append(nb_flat[cut])
                arm_cut_slots.append((d, np.flatnonzero(cut)))

    # ---- phase 2: simplicial sweep (volumes; collect mixed simplices) ----
    simplices = _TRIANGLES_2D if dim == 2 else _TETS_3D
    simp_vol = h ** dim / (2.0 if dim == 2 else 6.0)
    cell_ranges = [np.arange(s - 1) for s in shape]
    cell_grids = np.meshgrid(*cell_ranges, indexing="ij")
    cell_base = sum(cell_grids[ax].ravel() * strides[ax] for ax in range(dim))

    volume_weights = np.zeros(n_int)
    total_volume = 0.0
    mixed_corners: list[np.ndarray] = []  # per template: corners, inside first
    mixed_counts: list[np.ndarray] = []   # per template: inside-corner count k

    for verts in simplices:
        offs = np.array([sum(v[ax] * strides[ax] for ax in range(dim)) for v in verts])
        corner_flat = cell_base[:, None] + offs[None, :]
        vals = phi_flat[corner_flat]
        neg = vals < 0
        n_neg = neg.sum(axis=1)
        full = n_neg == len(verts)
        mixed = (n_neg > 0) & ~full

        vol = np.zeros(cell_base.size)
        vol[full] = simp_vol
        if mixed.any():
            vol[mixed] = simp_vol * _simplex_inside_fraction(vals[mixed])
        total_volume += vol.sum()

        # split each simplex's inside volume equally among its inside corners
        occupied = n_neg > 0
        share = np.where(occupied, vol / np.maximum(n_neg, 1), 0.0)
        for c in range(len(verts)):
            sel = occupied & neg[:, c]
            np.add.at(volume_weights, interior_id_flat[corner_flat[sel, c]], share[sel])

        order = np.argsort(~neg[mixed], axis=1, kind="stable")
        mixed_corners.append(np.take_along_axis(corner_flat[mixed], order, axis=1))
        mixed_counts.append(n_neg[mixed])

    # ---- phase 3: cut corner pairs of mixed simplices, one group per k ----
    corners, counts = np.concatenate(mixed_corners), np.concatenate(mixed_counts)
    facet_groups: list[tuple[slice, int, tuple]] = []  # (pair slice, pairs each, facets)
    pair_cursor = sum(p.size for p in edge_in_parts)
    for k, facets in _FACETS[dim].items():
        group = corners[counts == k]
        pairs = np.array([(i, j) for i in range(k) for j in range(k, dim + 1)])
        edge_in_parts.append(group[:, pairs[:, 0]].ravel())
        edge_out_parts.append(group[:, pairs[:, 1]].ravel())
        end = pair_cursor + group.shape[0] * len(pairs)
        facet_groups.append((slice(pair_cursor, end), len(pairs), facets))
        pair_cursor = end

    edge_in = np.concatenate(edge_in_parts)
    edge_out = np.concatenate(edge_out_parts)
    if edge_in.size == 0:
        raise GeometryError("grid too coarse: no boundary crossings found")

    # ---- phase 4: dedupe edges, one batched bisection ----
    keys = edge_in * phi.size + edge_out  # the inside endpoint is unique per edge
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    uin = unique_keys // phi.size
    uout = unique_keys % phi.size
    boundary_pos = _bisect_crossings(phi_fn, flat_to_pos(uin), flat_to_pos(uout))
    n_bnd = boundary_pos.shape[0]
    stride_diff = np.abs(uin - uout)
    boundary_is_axis = np.isin(stride_diff, strides)
    boundary_nearest = interior_id_flat[uin]

    # fill the Shortley-Weller arm tables
    cursor = 0
    for d, rows in arm_cut_slots:
        count = rows.size
        ids = inverse[cursor:cursor + count]
        arm_boundary[d, rows] = ids
        ax = d // 2
        dist = np.abs(boundary_pos[ids, ax] - interior_coords[rows, ax])
        arm_length[d, rows] = np.maximum(dist, 1e-9 * h)
        cursor += count

    # ---- phase 5: facets, surface measure, vertex weights ----
    boundary_weight = np.zeros(n_bnd)
    total_area = 0.0
    for pair_slice, n_pairs, facets in facet_groups:
        ids = inverse[pair_slice].reshape(-1, n_pairs)
        for facet in facets:
            vert = ids[:, facet]
            edge = boundary_pos[vert[:, 1:]] - boundary_pos[vert[:, :1]]
            measure = (np.linalg.norm(edge[:, 0], axis=1) if dim == 2 else
                       0.5 * np.linalg.norm(np.cross(edge[:, 0], edge[:, 1]), axis=1))
            np.add.at(boundary_weight, vert, (measure / dim)[:, None])
            total_area += measure.sum()

    # ---- phase 6: outward unit normals ----
    normal_fn = spec.normal_function()
    if normal_fn is not None:
        boundary_normal = np.asarray(normal_fn(boundary_pos), dtype=float)
    else:
        delta = 1e-6 * max(1.0, h)
        grad = np.zeros_like(boundary_pos)
        for ax in range(dim):
            step = np.zeros(dim)
            step[ax] = delta
            grad[:, ax] = (phi_fn(boundary_pos + step) -
                           phi_fn(boundary_pos - step)) / (2 * delta)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
        if (norms < 1e-300).any():
            raise GeometryError("vanishing level-set gradient on the boundary")
        boundary_normal = grad / norms

    return Domain(
        spec=spec,
        dim=dim,
        h=h,
        origin=origin,
        shape=shape,
        phi=phi,
        interior_flat=interior_flat,
        interior_coords=interior_coords,
        volume_weights=volume_weights,
        boundary_pos=boundary_pos,
        boundary_normal=boundary_normal,
        boundary_weight=boundary_weight,
        boundary_is_axis=boundary_is_axis,
        boundary_nearest=boundary_nearest,
        arm_length=arm_length,
        arm_interior=arm_interior,
        arm_boundary=arm_boundary,
        volume=float(total_volume),
        area=float(total_area),
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _interior_values(domain: Domain, data) -> np.ndarray:
    values = getattr(data, "interior", data)
    values = np.asarray(values, dtype=float)
    if values.shape != (domain.n_interior,):
        raise GeometryError(
            f"expected {domain.n_interior} interior values, got shape {values.shape}")
    return values


def integrate_volume(domain: Domain, data) -> float:
    """Nodal quadrature with partial-cell boundary weights; exact for constants."""
    values = _interior_values(domain, data)
    if not np.isfinite(values).all():
        raise GeometryError("integrate_volume: non-finite field values")
    return float(values @ domain.volume_weights)


def integrate_boundary(domain: Domain, values) -> float:
    """Facet-weighted sum over boundary nodes."""
    values = getattr(values, "boundary", values)
    values = np.asarray(values, dtype=float)
    if values.shape != (domain.n_boundary,):
        raise GeometryError(
            f"expected {domain.n_boundary} boundary values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise GeometryError("integrate_boundary: non-finite values")
    return float(values @ domain.boundary_weight)
