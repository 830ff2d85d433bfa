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
counting); surface measure is the total facet measure, with per-vertex
quadrature weights of segment half-lengths (2D) or triangle-area thirds (3D).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DomainSpec",
    "Domain",
    "GeometryError",
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


# ---------------------------------------------------------------------------
# level-set expression language:  + - * / ^  min  max  sqrt  abs  x y z
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _TOKEN_OPS:
            tokens.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or
                                     (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise GeometryError(f"unexpected character {c!r} in level-set expression")
    return tokens


class _ExprParser:
    """Recursive-descent parser producing a vectorized closure."""

    _FUNCS = {
        "sqrt": (1, np.sqrt),
        "abs": (1, np.abs),
        "min": (2, np.minimum),
        "max": (2, np.maximum),
    }

    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = "xyz"[:dim]

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise GeometryError("unexpected end of level-set expression")
        self.pos += 1
        return tok

    def _expect(self, tok):
        got = self._next()
        if got != tok:
            raise GeometryError(f"expected {tok!r}, got {got!r} in level-set expression")

    def parse(self) -> Callable[[np.ndarray], np.ndarray]:
        node = self._expr()
        if self._peek() is not None:
            raise GeometryError(f"trailing input {self._peek()!r} in level-set expression")
        return node

    def _expr(self):
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            if op == "+":
                node = (lambda a, b: lambda p: a(p) + b(p))(node, rhs)
            else:
                node = (lambda a, b: lambda p: a(p) - b(p))(node, rhs)
        return node

    def _term(self):
        node = self._power()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._power()
            if op == "*":
                node = (lambda a, b: lambda p: a(p) * b(p))(node, rhs)
            else:
                node = (lambda a, b: lambda p: a(p) / b(p))(node, rhs)
        return node

    def _power(self):
        base = self._unary()
        if self._peek() == "^":
            self._next()
            exp = self._power()  # right associative
            return (lambda a, b: lambda p: a(p) ** b(p))(base, exp)
        return base

    def _unary(self):
        if self._peek() == "-":
            self._next()
            node = self._unary()
            return (lambda a: lambda p: -a(p))(node)
        return self._primary()

    def _primary(self):
        tok = self._next()
        if tok == "(":
            node = self._expr()
            self._expect(")")
            return node
        if tok in self._FUNCS:
            nargs, fn = self._FUNCS[tok]
            self._expect("(")
            args = [self._expr()]
            while self._peek() == ",":
                self._next()
                args.append(self._expr())
            self._expect(")")
            if len(args) != nargs:
                raise GeometryError(f"{tok} takes {nargs} argument(s)")
            return (lambda f, a: lambda p: f(*[g(p) for g in a]))(fn, args)
        if tok in self.vars:
            axis = self.vars.index(tok)
            return (lambda ax: lambda p: p[..., ax])(axis)
        try:
            value = float(tok)
        except ValueError:
            raise GeometryError(f"unknown symbol {tok!r} in level-set expression") from None
        return (lambda v: lambda p: np.full(p.shape[:-1], v))(value)


def parse_levelset_expression(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x,y[,z] to a callable on point arrays (..., dim)."""
    return _ExprParser(text, dim).parse()


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

@dataclass
class Domain:
    """Discretized domain; immutable after construction (safe for concurrent reads).

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
    interior_id: np.ndarray            # grid-shaped, id into interior arrays or -1
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
    # derived from the fields above; written only by laplace (operator, extensions)
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


def _kuhn_tets():
    tets = []
    for perm in itertools.permutations(range(3)):
        corner = np.zeros(3, dtype=int)
        verts = [tuple(corner)]
        for axis in perm:
            corner = corner.copy()
            corner[axis] = 1
            verts.append(tuple(corner))
        tets.append(tuple(verts))
    return tuple(tets)


_TETS_3D = _kuhn_tets()


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
    shell = np.zeros(shape, dtype=bool)
    for ax in range(dim):
        sl = [slice(None)] * dim
        sl[ax] = 0
        shell[tuple(sl)] = True
        sl[ax] = -1
        shell[tuple(sl)] = True
    if inside[shell].any():
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
    mixed_corner_sets: list[np.ndarray] = []

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

        if mixed.any():
            mixed_corner_sets.append(corner_flat[mixed])

    # ---- phase 3: facet edges of mixed simplices ----
    # rows of (in,out) pairs per simplex: 1-in tri (3 pairs), 2-in quad (4),
    # 3-in tri (3); in 2D always a 2-pair segment
    facet_rows: list[np.ndarray] = []  # per row: pair indices into the edge list
    pair_cursor = sum(p.size for p in edge_in_parts)
    for corner_flat in mixed_corner_sets:
        vals = phi_flat[corner_flat]
        neg = vals < 0
        for row in range(corner_flat.shape[0]):
            ins = corner_flat[row, neg[row]]
            outs = corner_flat[row, ~neg[row]]
            pairs_in = np.repeat(ins, outs.size)
            pairs_out = np.tile(outs, ins.size)
            edge_in_parts.append(pairs_in)
            edge_out_parts.append(pairs_out)
            count = pairs_in.size
            facet_rows.append(np.arange(pair_cursor, pair_cursor + count))
            pair_cursor += count

    edge_in = np.concatenate(edge_in_parts) if edge_in_parts else np.zeros(0, np.int64)
    edge_out = np.concatenate(edge_out_parts) if edge_out_parts else np.zeros(0, np.int64)
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
    for pair_idx in facet_rows:
        ids = inverse[pair_idx]
        if dim == 2:
            tris = (ids,)  # a segment
        elif ids.size == 3:
            tris = (ids,)
        else:
            # pairs ordered (A,C),(A,D),(B,C),(B,D); quad in face order ACDB
            quad = ids[[0, 1, 3, 2]]
            tris = (quad[[0, 1, 2]], quad[[0, 2, 3]])
        for tri in tris:
            pts = boundary_pos[tri]
            if dim == 2:
                measure = float(np.linalg.norm(pts[1] - pts[0]))
                boundary_weight[tri] += 0.5 * measure
            else:
                cr = np.cross(pts[1] - pts[0], pts[2] - pts[0])
                measure = 0.5 * float(np.linalg.norm(cr))
                boundary_weight[tri] += measure / 3.0
            total_area += measure

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
        interior_id=interior_id_flat.reshape(shape),
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
