"""Level-set domains on uniform Cartesian grids, and the fields sampled on them.

A domain is described implicitly by a level-set function (negative inside),
sampled on a uniform grid. Every kind is one expression in the language of
``parse_levelset_expression``: a canonical kind fills its ``SHAPES`` template
with its sizes. One compiled expression gives the grid values, the boundary
crossings and the outward normals, which are its exact gradient by forward
differentiation, normalized (at a min/max tie, the mean of both branch
gradients). The boundary is extracted as a polyline (2D) or
triangulated surface (3D) by simplicial marching: each grid cell is split
into two triangles / six Kuhn tetrahedra with a globally consistent diagonal
choice. On every cut simplex edge the zero crossing of the true level-set
function is located where bisection would end, with Illinois secant steps
and a few halvings (``_crossing_parameters``), and checked to lie within
1e-12 h of phi = 0. Crossings on axis-aligned grid edges double as the
irregular-arm endpoints of the embedded-boundary Laplace stencils, so the
PDE solver and the surface quadrature see the same boundary points. Every
axis edge of the grid is an edge of the simplices, so each cut arm's end is
looked up in the one deduplicated crossing table.

Volume is computed from the exact sub-simplex volume of the linear
interpolant of the level set (a boundary-cell correction on top of node
counting). A full cell, with every corner inside, gives each corner a fixed
share of its volume, so only cut cells are split into simplices. The facets
come from one constant table, ``_FACETS``: with its corners sorted stably so
that its k inside corners come first, a mixed simplex is cut on the corner
pairs (i, j) with i < k <= j, in lexicographic order, and its facet is one
segment (2D), one triangle (3D, k = 1 or 3), or the quad of pairs AC, AD,
BC, BD split into the pair triangles [0, 1, 3] and [0, 3, 2] (3D, k = 2).
Surface measure is the total facet measure, with per-vertex quadrature
weights of segment half-lengths (2D) or triangle-area thirds (3D).

A ``Field`` stores one value per interior node and one per boundary node of
its domain, as two arrays shaped (N, *s) and (M, *s): s is () for a scalar,
(dim,) for a vector and (dim, dim) for a symmetric tensor, which is stored as
its full symmetric matrix. Fields are immutable value containers; all
differential operators live in the laplace module.
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
    "Field",
    "GeometryError",
    "CheckError",
    "build_domain",
    "integrate_volume",
    "integrate_boundary",
    "parse_levelset_expression",
]

# kind -> (dimension, size keys, level-set template): the one table of each
# kind's sizes, which are its DomainSpec.sizes keys, its config keys and its
# report domain block, and phi as an expression in them. A level set sets its
# own dimension, and its bbox is a size because it sets the grid.
SHAPES = {"disk": (2, ("radius",), "x^2+y^2-{radius}^2"),
          "ball": (3, ("radius",), "x^2+y^2+z^2-{radius}^2"),
          "ellipse": (2, ("a", "b"), "(x/{a})^2+(y/{b})^2-1"),
          "ellipsoid": (3, ("a", "b", "c"), "(x/{a})^2+(y/{b})^2+(z/{c})^2-1"),
          "annulus": (2, ("r_in", "r_out"), "max(x^2+y^2-{r_out}^2,{r_in}^2-(x^2+y^2))"),
          "levelset": (None, ("expression", "bbox"), "{expression}")}

# grid nodes with |phi| below this (relative) threshold are pushed outside,
# so no Shortley-Weller arm can degenerate to zero length
_SNAP_REL = 1e-12

# desk-scale default: about 128^3 grid nodes
DEFAULT_NODE_CAP = 2_200_000


class GeometryError(ValueError):
    pass


class CheckError(RuntimeError):
    """A computed value fails a verification check of the pipeline."""


# ---------------------------------------------------------------------------
# level-set expression language:  + - * / ^  min  max  sqrt  abs  x y z
# ---------------------------------------------------------------------------

def _tie_mean(first, tie, da, db):
    """min/max: the chosen argument's gradient; the mean of both at a tie."""
    return np.where(tie, 0.5 * (da + db), np.where(first, da, db))


# forward mode: operation -> (value rule, gradient rule). A gradient rule takes
# the argument values, then their gradients (coordinate axis first), then the
# value; ^ has a constant exponent k (checked by _compile).
_RULES = {
    ast.Add: (operator.add, lambda a, b, da, db, v: da + db),
    ast.Sub: (operator.sub, lambda a, b, da, db, v: da - db),
    ast.Mult: (operator.mul, lambda a, b, da, db, v: b * da + a * db),
    ast.Div: (operator.truediv, lambda a, b, da, db, v: (da - v * db) / b),
    ast.Pow: (operator.pow, lambda a, k, da, dk, v: k * a ** (k - 1) * da),
    ast.USub: (operator.neg, lambda a, da, v: -da),
    "sqrt": (np.sqrt, lambda a, da, v: da / (2 * v)),
    "abs": (np.abs, lambda a, da, v: np.sign(a) * da),
    "min": (np.minimum, lambda a, b, da, db, v: _tie_mean(a < b, a == b, da, db)),
    "max": (np.maximum, lambda a, b, da, db, v: _tie_mean(a > b, a == b, da, db)),
}


def _compile(node: ast.AST, names: tuple[str, ...]):
    """(evaluate, constant) for one whitelisted AST node; GeometryError otherwise.

    evaluate(points, grad) returns the node's value on points shaped (..., dim)
    and, if grad, its gradient with the coordinate axis first (0 for a node
    that is constant or when grad is false). constant: x, y, z do not occur.
    """
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise GeometryError(f"unknown symbol {node.id!r} in level-set expression")
        axis = names.index(node.id)
        unit = np.eye(len(names))[axis]  # the gradient of p[..., axis]
        return (lambda p, grad: (p[..., axis], unit.reshape(-1, *[1] * (p.ndim - 1)))), False
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # a NumPy scalar: x^2 squares exactly, and 0/0 is nan, not an exception
        value = np.float64(node.value)
        return (lambda p, grad: (value, 0)), True
    if isinstance(node, ast.BinOp) and type(node.op) in _RULES:
        rule, args = _RULES[type(node.op)], (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        rule, args = _RULES[ast.USub], (node.operand,)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _RULES):
        rule, args = _RULES[node.func.id], node.args
        if len(args) != rule[0].nin or node.keywords:
            raise GeometryError(f"{node.func.id} takes {rule[0].nin} positional argument(s)")
    else:
        raise GeometryError(f"unsupported {type(node).__name__} in level-set expression")
    parts = [_compile(arg, names) for arg in args]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not parts[1][1]:
        raise GeometryError("the exponent of ^ must be a constant, free of x, y and z")
    value_rule, gradient_rule = rule
    constant = all(part_constant for _, part_constant in parts)

    def evaluate(p, grad):
        values, grads = zip(*(part(p, grad) for part, _ in parts))
        value = value_rule(*values)
        return value, gradient_rule(*values, *grads, value) if grad and not constant else 0

    return evaluate, constant


def _compile_expression(text: str, dim: int):
    """phi(points, grad) -> (values, gradients or None) for an expression in
    x, y[, z]; points shaped (..., dim), gradients (..., dim) when grad."""
    if "**" in text:
        raise GeometryError("use ^ for powers in level-set expressions, not **")
    try:
        # strip: ast reads leading blanks as an indentation error
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
        evaluate = _compile(tree.body, tuple("xyz"[:dim]))[0]
    except (SyntaxError, OverflowError) as exc:
        raise GeometryError(f"invalid level-set expression: {exc}") from None
    except RecursionError:
        raise GeometryError("level-set expression is nested too deeply") from None

    def phi(points, grad):
        value, gradient = evaluate(points, grad)
        shape = points.shape[:-1]  # a constant is one scalar
        return (np.broadcast_to(value, shape),
                np.stack(np.broadcast_to(gradient, (dim,) + shape), axis=-1) if grad else None)

    return phi


def parse_levelset_expression(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x,y[,z] to a callable on point arrays (..., dim).

    The language is + - * / ^, unary minus, parentheses, sqrt(a), abs(a),
    min(a, b), max(a, b), the coordinates and numbers. ``^`` is the power,
    right-associative and binding tighter than unary minus, so -x^2 is -(x^2)
    and 2^-1 is 0.5; its exponent is a constant, free of x, y and z. It is
    parsed with Python's ``ast`` (``^`` read as ``**``) and only the nodes
    above are compiled; anything else, including a literal ``**`` or input
    nested too deeply, raises GeometryError. Every node also has a
    forward-mode gradient rule, which build_domain uses for the normals.
    """
    phi = _compile_expression(text, dim)
    return lambda points: phi(points, False)[0]


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Shape + grid spacing. ``sizes`` holds (key, value) pairs of exactly the
    kind's ``SHAPES`` keys, in order, which fill its level-set template."""

    kind: str
    h: float
    dim: int
    sizes: tuple[tuple[str, object], ...]

    def __post_init__(self):
        if self.kind not in SHAPES:
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        dim, keys, _ = SHAPES[self.kind]
        if tuple(key for key, _ in self.sizes) != keys:
            raise GeometryError(f"kind {self.kind!r} takes exactly the sizes "
                                f"{', '.join(keys)}, in that order")
        if not (isinstance(self.h, (int, float)) and self.h > 0):
            raise GeometryError("grid spacing h must be positive")
        sizes = dict(self.sizes)
        numbers = tuple(sizes["bbox"] if self.kind == "levelset" else sizes.values())
        if not all(math.isfinite(v) for v in (self.h,) + numbers):
            raise GeometryError("domain sizes and the bbox must be finite")
        if self.dim not in (2, 3):
            raise GeometryError("dimension must be 2 or 3")
        if dim not in (None, self.dim):
            raise GeometryError(f"kind {self.kind!r} requires dim={dim}")
        if self.kind == "levelset":
            if not sizes["expression"]:
                raise GeometryError("levelset kind requires an expression")
            if len(numbers) != 2 or not numbers[0] < numbers[1]:
                raise GeometryError("bbox must be (lo, hi) with lo < hi")
            # a malformed expression or an unknown symbol fails here, not in a run
            _compile_expression(sizes["expression"], self.dim)
        elif not all(v > 0 for v in numbers):
            raise GeometryError(f"{self.kind} needs positive {', '.join(keys)}")
        if self.kind == "annulus" and not sizes["r_in"] < sizes["r_out"]:
            raise GeometryError("annulus requires 0 < r_in < r_out")

    # ---- constructors ----

    @staticmethod
    def disk(radius: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="disk", h=h, dim=2, sizes=(("radius", radius),))

    @staticmethod
    def ball(radius: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ball", h=h, dim=3, sizes=(("radius", radius),))

    @staticmethod
    def ellipse(a: float, b: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ellipse", h=h, dim=2, sizes=(("a", a), ("b", b)))

    @staticmethod
    def ellipsoid(a: float, b: float, c: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="ellipsoid", h=h, dim=3, sizes=(("a", a), ("b", b), ("c", c)))

    @staticmethod
    def annulus(r_in: float, r_out: float, h: float) -> "DomainSpec":
        return DomainSpec(kind="annulus", h=h, dim=2, sizes=(("r_in", r_in), ("r_out", r_out)))

    @staticmethod
    def levelset(expression: str, h: float, dim: int = 2,
                 bbox: tuple[float, float] = (-2.0, 2.0)) -> "DomainSpec":
        return DomainSpec(kind="levelset", h=h, dim=dim,
                          sizes=(("expression", expression), ("bbox", tuple(bbox))))

    # ---- geometry callbacks ----

    def _phi_text(self) -> str:
        """phi as an expression: the kind's SHAPES template, filled in."""
        template = SHAPES[self.kind][2]
        # str, not repr: a NumPy scalar's repr is not a number literal
        return template.format(**dict(self.sizes))

    def levelset_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized phi(points), negative inside; points shaped (..., dim)."""
        return parse_levelset_expression(self._phi_text(), self.dim)

    def grid_bbox(self) -> tuple[float, float]:
        """A level set's own bbox; ±(largest shape size + 3h) for the other kinds."""
        if self.kind == "levelset":
            return dict(self.sizes)["bbox"]
        r = max(value for _, value in self.sizes)
        return (-r - 3 * self.h, r + 3 * self.h)


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Domain:
    """Discretized domain, plain immutable data: every array is read-only, and
    a ``dataclasses.replace`` copy gets a fresh ``_cache``, so fresh solver state.
    Domains compare and hash by identity, as the one owner of that state.

    Interior grid nodes carry the PDE unknowns. Boundary nodes are the surface
    mesh vertices: crossings on axis-aligned grid edges (``boundary_is_axis``,
    also the Dirichlet constraint points of the Shortley-Weller stencils) plus
    crossings on cell diagonals introduced by the simplicial split.
    """

    spec: DomainSpec
    dim: int
    h: float
    phi: np.ndarray                    # level-set values on the grid (snapped)
    interior_coords: np.ndarray        # (N, dim)
    volume_weights: np.ndarray         # (N,) nodal volume quadrature weights
    boundary_pos: np.ndarray           # (M, dim)
    boundary_normal: np.ndarray        # (M, dim) outward unit normals
    boundary_weight: np.ndarray        # (M,) surface quadrature weights
    boundary_is_axis: np.ndarray       # (M,) bool, crossing on an axis edge
    boundary_nearest: np.ndarray       # (M,) int32 interior id of the inside endpoint
    # per direction d in 0..2*dim-1 (axis d//2, sign +1 for even d, -1 for odd):
    arm_length: np.ndarray             # (2*dim, N)
    # int32 ids, half the bytes of int64: under DEFAULT_NODE_CAP grid nodes,
    # each the lower end of at most 7 Kuhn edges, N + M < 8 * 2.2e6 < 2^31
    arm_interior: np.ndarray           # (2*dim, N) int32 neighbor interior id or -1
    arm_boundary: np.ndarray           # (2*dim, N) int32 crossing boundary id or -1
    volume: float
    area: float
    # laplace's operator state for this domain, its only entry: everything
    # derived from the fields above and the solve record, none of it referring
    # back to the domain. Not an __init__ argument, so every Domain, a replace
    # copy too, starts with an empty one.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

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


# a located boundary crossing lies within this many h of phi = 0 (build_domain).
# The largest |phi| / (h |grad phi|) measured on the disk, ball, annulus,
# ellipsoid, torus, shell, neck and the abs(x) + y^2 - 1 kink is 4.4e-14
_CROSSING_TOL = 1e-12

# the bracket width in t at which the crossing search stops its secant steps
# and halves instead, and how far before an exact zero of phi it probes
_NARROW = 2.0 ** -44

# secant steps after which the search halves every bracket still wider than
# _NARROW, so it ends whatever phi does. On the shapes above the secant steps
# narrow every bracket within 17 steps, but for those that end in a run of
# exact zeros of phi (a tangent segment, or one along an edge of the neck),
# which halve
_SECANT_STEPS = 50


def _crossing_parameters(phi, pos_in: np.ndarray, pos_out: np.ndarray) -> np.ndarray:
    """The parameter t in [0, 1] of the crossing of phi = 0 on each segment
    pos_in + t (pos_out - pos_in) from an inside point (phi < 0) to an
    outside one. Raw phi may be (numerically) negative at a snapped-out end
    (``_SNAP_REL``), which is then the crossing, t = 1. Elsewhere t is where
    bisection of the sign bracket [0, 1] ends, phi >= 0 counting as outside:
    between adjacent floats a (phi < 0) and b (phi >= 0), at their midpoint.

    Bisection evaluates phi 61 times per segment to get there, this search
    about 17, in two phases. First the Illinois method (Dowell & Jarratt,
    BIT 11, 1971), regula falsi in which an end kept twice in a row has its
    phi value halved, narrows each bracket to ``_NARROW``; it reads phi's
    values only. A step that lands on an exact zero s probes s - _NARROW: if
    phi is negative there, the sign change lies between the two, which
    become the bracket; if not, the probe is the new outside end. Then
    halving takes each bracket to adjacent floats. Stopping at the exact
    zero instead would leave the point anywhere in the run of floats where
    phi rounds to 0, and at a kink in that run the normal is another
    branch's: at the neck's four corners that moved B from 12.4 to 28.0 at
    h 0.025."""
    t = np.ones(len(pos_in))
    f_out = phi(pos_out, False)[0]
    rows = np.flatnonzero(f_out >= 0)

    def segments(rows):
        # (dim, n): phi reads each coordinate of the points p.T contiguously
        start = pos_in.take(rows, axis=0)
        return start.T.copy(), (pos_out.take(rows, axis=0) - start).T.copy()

    def value(s, which=None):
        q, d = (p, step) if which is None else (p.take(which, axis=1), step.take(which, axis=1))
        return np.array(phi((q + s * d).T, False)[0])

    def probe_zeros(s, fs, a, fa):
        """At each exact zero s more than _NARROW inside the bracket: move
        a to s - _NARROW if phi is negative there, else s itself."""
        zero = np.flatnonzero((fs == 0) & (s - _NARROW > a))
        left = s[zero] - _NARROW
        f_left = value(left, zero)
        inside = f_left < 0
        a[zero[inside]], fa[zero[inside]] = left[inside], f_left[inside]
        s[zero[~inside]], fs[zero[~inside]] = left[~inside], f_left[~inside]

    p, step = segments(rows)
    a, b = np.zeros(rows.size), np.ones(rows.size)
    fa, fb = value(a), f_out[rows]
    probe_zeros(b, fb, a, fa)
    kept = np.zeros(rows.size, dtype=int)   # the end kept last step: +1 b, -1 a
    narrow = []   # (rows, a, b) of the brackets at most _NARROW wide
    steps = 0
    while rows.size:
        wide = b - a > _NARROW
        if not wide.all():
            narrow.append((rows[~wide], a[~wide], b[~wide]))
            more = np.flatnonzero(wide)
            rows, a, b, fa, fb, kept = (x[more] for x in (rows, a, b, fa, fb, kept))
            p, step = p.take(more, axis=1), step.take(more, axis=1)
            if not rows.size:
                break
        steps += 1
        # the secant point; the midpoint where that is not strictly inside
        # the bracket (or not finite: phi is not, there)
        s = b - fb * ((b - a) / (fb - fa))
        s = np.where((s > a) & (s < b) & (steps <= _SECANT_STEPS), s, 0.5 * (a + b))
        fs = value(s)
        probe_zeros(s, fs, a, fa)
        out = fs >= 0
        # the end not replaced keeps its value, halved if it was kept before
        fa = np.where(out, np.where(kept == -1, 0.5 * fa, fa), fs)
        fb = np.where(out, fs, np.where(kept == 1, 0.5 * fb, fb))
        a, b = np.where(out, a, s), np.where(out, s, b)
        kept = np.where(out, -1, 1)
    if not narrow:
        return t
    rows, a, b = (np.concatenate(x) for x in zip(*narrow))
    p, step = segments(rows)
    while True:
        # the midpoint of a bracket is strictly inside it unless its ends are
        # adjacent floats; such a bracket stays as it is, so the finished ones
        # are dropped only when they are many
        mid = 0.5 * (a + b)
        done = (mid == a) | (mid == b)
        if done.all():
            t[rows] = mid
            return t
        if 4 * np.count_nonzero(done) > rows.size:
            t[rows[done]] = mid[done]
            more = np.flatnonzero(~done)
            rows, a, b, mid = (x[more] for x in (rows, a, b, mid))
            p, step = p.take(more, axis=1), step.take(more, axis=1)
        out = value(mid) >= 0
        a, b = np.where(out, a, mid), np.where(out, mid, b)


def _volume_sweep(phi: np.ndarray, strides: np.ndarray, interior_id_flat: np.ndarray,
                  n_int: int, h: float) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Nodal volume weights, total volume and the mixed simplices of the grid.

    Each simplex's inside volume is split equally among its inside corners.
    A full cell (every corner inside) gives each corner a fixed share: a
    (dim + 1)-th of the volume of each of the cell's simplices that holds the
    corner (corners 0...0 and 1...1 lie in all of them). Only cut cells are
    split into simplices, template by template in cell order. Returns the weights, the volume, and
    per mixed simplex its corners' flat indices (inside corners first, in
    simplex order) and its inside-corner count.
    """
    dim = phi.ndim
    phi_flat = phi.ravel()
    simplices = _TRIANGLES_2D if dim == 2 else _TETS_3D
    simp_vol = h ** dim / (2.0 if dim == 2 else 6.0)
    cell_grids = np.meshgrid(*[np.arange(s - 1) for s in phi.shape], indexing="ij")
    cell_base = sum(cell_grids[ax].ravel() * strides[ax] for ax in range(dim))

    def offset(corner):
        return sum(corner[ax] * strides[ax] for ax in range(dim))

    cell_corners = list(itertools.product((0, 1), repeat=dim))
    inside = np.array([phi_flat[cell_base + offset(v)] < 0 for v in cell_corners])
    full = inside.all(axis=0)
    full_base = cell_base[full]
    volume_weights = np.zeros(n_int)
    for v in cell_corners:
        share = simp_vol / (dim + 1) * sum(v in verts for verts in simplices)
        # one corner per cell, so the indices are distinct
        volume_weights[interior_id_flat[full_base + offset(v)]] += share
    total_volume = full_base.size * h ** dim
    cell_base = cell_base[inside.any(axis=0) & ~full]

    mixed_corners: list[np.ndarray] = []  # per template: corners, inside first
    mixed_counts: list[np.ndarray] = []   # per template: inside-corner count k
    for verts in simplices:
        corner_flat = cell_base[:, None] + np.array([offset(v) for v in verts])[None, :]
        vals = phi_flat[corner_flat]
        neg = vals < 0
        n_neg = neg.sum(axis=1)
        mixed = (n_neg > 0) & (n_neg < len(verts))

        vol = np.where(n_neg == len(verts), simp_vol, 0.0)
        if mixed.any():
            vol[mixed] = simp_vol * _simplex_inside_fraction(vals[mixed])
        total_volume += vol.sum()

        occupied = n_neg > 0
        share = np.where(occupied, vol / np.maximum(n_neg, 1), 0.0)
        for c in range(len(verts)):
            sel = occupied & neg[:, c]
            np.add.at(volume_weights, interior_id_flat[corner_flat[sel, c]], share[sel])

        order = np.argsort(~neg[mixed], axis=1, kind="stable")
        mixed_corners.append(np.take_along_axis(corner_flat[mixed], order, axis=1))
        mixed_counts.append(n_neg[mixed])
    return (volume_weights, float(total_volume), np.concatenate(mixed_corners),
            np.concatenate(mixed_counts))


def build_domain(spec: DomainSpec) -> Domain:
    """Discretize the spec: classify nodes, extract the boundary, build quadrature."""
    dim = spec.dim
    h = spec.h
    phi_fn = _compile_expression(spec._phi_text(), dim)

    lo, hi = spec.grid_bbox()
    # symmetric grid through the origin keeps canonical shapes unbiased
    n_half = int(math.ceil(max(abs(lo), abs(hi)) / h)) + 1
    axis_idx = np.arange(-n_half, n_half + 1)
    origin = np.full(dim, -n_half * h)
    shape = (len(axis_idx),) * dim
    if np.prod(shape, dtype=np.int64) > DEFAULT_NODE_CAP:
        raise GeometryError(
            f"grid of {np.prod(shape, dtype=np.int64)} nodes exceeds the "
            f"desk-scale cap {DEFAULT_NODE_CAP}; increase h")

    grids = np.meshgrid(*([axis_idx * h] * dim), indexing="ij")
    points = np.stack(grids, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # caught below
        phi = phi_fn(points, False)[0]
    if not np.isfinite(phi).all():
        raise GeometryError("level-set function produced non-finite values")

    scale = max(1.0, float(np.abs(phi).max()))
    phi = np.where(np.abs(phi) < _SNAP_REL * scale, _SNAP_REL * scale, phi)

    inside = phi < 0
    if not inside.any():
        raise GeometryError("grid too coarse: no interior nodes")
    if inside.sum() != inside[(slice(1, -1),) * dim].sum():  # inside on the shell
        raise GeometryError("domain not bounded within bounding box")

    interior_flat = np.flatnonzero(inside)
    n_int = interior_flat.size
    # int32 like the arm tables gathered from it (Domain)
    interior_id_flat = np.full(phi.size, -1, dtype=np.int32)
    interior_id_flat[interior_flat] = np.arange(n_int)

    def flat_to_pos(flat: np.ndarray) -> np.ndarray:
        return origin + h * np.array(np.unravel_index(flat, shape)).T.astype(float)

    interior_coords = flat_to_pos(interior_flat)
    strides = np.array([int(np.prod(shape[ax + 1:], dtype=np.int64)) for ax in range(dim)])

    # ---- phase 1: axis arms (link interior neighbours, key the cut arms) ----
    steps = np.array([sign * strides[ax] for ax in range(dim) for sign in (+1, -1)])
    # one direction at a time: a freed (2*dim, N) temporary raises glibc's
    # dynamic mmap threshold, and the disk h 0.005 LU then peaked 12 MB higher
    arm_interior = np.stack([interior_id_flat[interior_flat + step] for step in steps])
    cut = np.nonzero(arm_interior < 0)  # (direction, interior id) per cut arm
    cut_in = interior_flat[cut[1]]
    cut_keys = cut_in * phi.size + cut_in + steps[cut[0]]  # phase 4's edge keys

    # ---- phase 2: volumes; collect mixed simplices ----
    volume_weights, total_volume, corners, counts = _volume_sweep(
        phi, strides, interior_id_flat, n_int, h)

    # ---- phase 3: cut corner pairs of mixed simplices, one group per k ----
    facet_groups: list[tuple[slice, int, tuple]] = []  # (pair slice, pairs each, facets)
    edge_in_parts: list[np.ndarray] = []
    edge_out_parts: list[np.ndarray] = []
    pair_cursor = 0
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

    # ---- phase 4: dedupe edges, one batched crossing search ----
    keys = edge_in * phi.size + edge_out  # the inside endpoint is unique per edge
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    uin = unique_keys // phi.size
    uout = unique_keys % phi.size
    pos_in, pos_out = flat_to_pos(uin), flat_to_pos(uout)
    t = _crossing_parameters(phi_fn, pos_in, pos_out)
    boundary_pos = pos_in + t[:, None] * (pos_out - pos_in)
    n_bnd = boundary_pos.shape[0]
    stride_diff = np.abs(uin - uout)
    boundary_is_axis = np.isin(stride_diff, strides)
    boundary_nearest = interior_id_flat[uin]

    # fill the Shortley-Weller arm tables: every axis edge is a Kuhn-simplex
    # edge, so each cut arm's edge is in the crossing table already
    ids = np.searchsorted(unique_keys, cut_keys)
    arm_boundary = np.full(arm_interior.shape, -1, dtype=np.int32)
    arm_boundary[cut] = ids
    axis = cut[0] // 2
    arm_length = np.full(arm_interior.shape, float(h))
    arm_length[cut] = np.maximum(
        np.abs(boundary_pos[ids, axis] - interior_coords[cut[1], axis]), 1e-9 * h)

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

    # ---- phase 6: outward unit normals, the exact gradient of phi ----
    with np.errstate(all="ignore"):  # a singular gradient is caught below
        value, grad = phi_fn(boundary_pos, True)
        norms = np.linalg.norm(grad, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:
        raise GeometryError(f"no outward normal at boundary position {boundary_pos[bad[0]].tolist()}"
                            f": the level-set gradient there is {grad[bad[0]].tolist()}")
    boundary_normal = grad / norms
    # a located crossing (t < 1; t = 1 is a snapped grid node) lies within
    # _CROSSING_TOL * h of phi = 0, to first order |phi| / |grad phi|
    off = np.flatnonzero(~(np.abs(value) <= _CROSSING_TOL * h * norms[:, 0]) & (t < 1))
    if off.size:
        raise GeometryError(
            f"boundary crossing at {boundary_pos[off[0]].tolist()} is off the level set: "
            f"phi there is {value[off[0]]:.3e}, more than {_CROSSING_TOL:.0e} h |grad phi|")

    return Domain(
        spec=spec,
        dim=dim,
        h=h,
        phi=phi,
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
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """Scalar, vector or symmetric tensor values on the interior and boundary
    nodes of one domain; checked once, when made, for shape, finiteness and
    (tensors) exact symmetry."""

    domain: Domain
    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        domain, dim = self.domain, self.domain.dim
        interior = np.ascontiguousarray(self.interior, dtype=float)
        boundary = np.ascontiguousarray(self.boundary, dtype=float)
        shape = interior.shape[1:]
        if shape not in ((), (dim,), (dim, dim)):
            raise GeometryError(f"value shape {shape} does not fit dimension {dim}: "
                                f"expected (), ({dim},) or ({dim}, {dim})")
        if interior.shape[:1] != (domain.n_interior,):
            raise GeometryError(
                f"interior values shape {interior.shape} != {(domain.n_interior, *shape)}")
        if boundary.shape != (domain.n_boundary, *shape):
            raise GeometryError(
                f"boundary values shape {boundary.shape} != {(domain.n_boundary, *shape)}")
        if not (np.isfinite(interior).all() and np.isfinite(boundary).all()):
            raise GeometryError("field contains non-finite values")
        if len(shape) == 2 and not all(np.array_equal(v[:, i, j], v[:, j, i])
                                       for v in (interior, boundary)
                                       for i, j in zip(*np.triu_indices(dim, 1))):
            raise GeometryError("tensor field values are not symmetric")
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape s of one value: (), (dim,) or (dim, dim)."""
        return self.interior.shape[1:]

    @staticmethod
    def from_function(domain: Domain, fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        """Sample fn(points) -> (m, *s) with points shaped (m, dim)."""
        return Field(domain, fn(domain.interior_coords), fn(domain.boundary_pos))

    @staticmethod
    def constant(domain: Domain, value) -> "Field":
        """The same scalar, vector or matrix value at every node."""
        value = np.asarray(value, dtype=float)
        return Field(domain, np.broadcast_to(value, (domain.n_interior, *value.shape)),
                     np.broadcast_to(value, (domain.n_boundary, *value.shape)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _quadrature(values, weights: np.ndarray, nodes: str) -> float | np.ndarray:
    """sum_n values[n] * weights[n] of (n,) or (n, *s) values: per entry, NumPy's
    pairwise sum of its column's products. No BLAS call, so the order of the
    additions is fixed: a BLAS dot splits long sums across its threads, and a
    matrix product or a strided dot adds in yet another order."""
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != weights.shape:
        raise GeometryError(f"expected {len(weights)} {nodes} values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise GeometryError(f"non-finite {nodes} values")
    integrals = np.array([np.add.reduce(c * weights)
                          for c in values.reshape(len(weights), -1).T])
    return float(integrals[0]) if values.ndim == 1 else integrals.reshape(values.shape[1:])


def integrate_volume(domain: Domain, values) -> float | np.ndarray:
    """Nodal quadrature with partial-cell boundary weights, exact for constants, of
    (N,) or (N, *s) interior values: a float, or s-shaped integrals."""
    return _quadrature(values, domain.volume_weights, "interior")


def integrate_boundary(domain: Domain, values) -> float | np.ndarray:
    """Facet-weighted sum of (M,) or (M, *s) boundary values: a float, or
    s-shaped integrals."""
    return _quadrature(values, domain.boundary_weight, "boundary")
