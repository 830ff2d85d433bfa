"""Grid-sampled fields on a domain closure.

A field stores one value per interior node and one per boundary node of its
domain. Fields are immutable value containers; all differential operators
live in the laplace module. CSV export writes node coordinates plus values;
the binary dump is a dense grid serialization (see ``to_grid_binary``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import Domain, GeometryError

__all__ = [
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "sym_index_pairs",
    "field_to_csv",
    "write_csv",
    "to_grid_binary",
    "read_grid_binary",
]


def _check_values(domain: Domain, interior, boundary):
    interior = np.ascontiguousarray(interior, dtype=float)
    boundary = np.ascontiguousarray(boundary, dtype=float)
    if interior.shape != (domain.n_interior,):
        raise GeometryError(
            f"interior values shape {interior.shape} != ({domain.n_interior},)")
    if boundary.shape != (domain.n_boundary,):
        raise GeometryError(
            f"boundary values shape {boundary.shape} != ({domain.n_boundary},)")
    if not (np.isfinite(interior).all() and np.isfinite(boundary).all()):
        raise GeometryError("field contains non-finite values")
    return interior, boundary


@dataclass(frozen=True)
class ScalarField:
    """Real values on the interior and boundary nodes of one domain."""

    domain: Domain
    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        interior, boundary = _check_values(self.domain, self.interior, self.boundary)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)

    @staticmethod
    def from_function(domain: Domain, fn: Callable[[np.ndarray], np.ndarray]) -> "ScalarField":
        """Sample fn(points) with points shaped (m, dim)."""
        return ScalarField(domain,
                           np.asarray(fn(domain.interior_coords), dtype=float),
                           np.asarray(fn(domain.boundary_pos), dtype=float))

    @staticmethod
    def constant(domain: Domain, value: float) -> "ScalarField":
        return ScalarField(domain,
                           np.full(domain.n_interior, float(value)),
                           np.full(domain.n_boundary, float(value)))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.domain, self.interior + other.interior,
                           self.boundary + other.boundary)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.domain, self.interior - other.interior,
                           self.boundary - other.boundary)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.domain, self.interior * scalar, self.boundary * scalar)

    __rmul__ = __mul__

    def abs(self) -> "ScalarField":
        return ScalarField(self.domain, np.abs(self.interior), np.abs(self.boundary))


@dataclass(frozen=True)
class VectorField:
    """dim scalar components sharing one domain."""

    components: tuple[ScalarField, ...]

    def __post_init__(self):
        doms = {id(c.domain) for c in self.components}
        if len(doms) != 1:
            raise GeometryError("vector components must share one domain")
        if len(self.components) != self.domain.dim:
            raise GeometryError("component count must equal the dimension")

    @property
    def domain(self) -> Domain:
        return self.components[0].domain

    @staticmethod
    def from_function(domain: Domain, fn: Callable[[np.ndarray], np.ndarray]) -> "VectorField":
        """Sample fn(points) -> (m, dim) componentwise."""
        vi = np.asarray(fn(domain.interior_coords), dtype=float)
        vb = np.asarray(fn(domain.boundary_pos), dtype=float)
        comps = tuple(ScalarField(domain, vi[:, k], vb[:, k]) for k in range(domain.dim))
        return VectorField(comps)

    def interior_matrix(self) -> np.ndarray:
        """(n_interior, dim) array of component values."""
        return np.stack([c.interior for c in self.components], axis=1)

    def boundary_matrix(self) -> np.ndarray:
        return np.stack([c.boundary for c in self.components], axis=1)

    def euclidean_norm_interior(self) -> np.ndarray:
        return np.linalg.norm(self.interior_matrix(), axis=1)


def sym_index_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Canonical (i, j), i <= j ordering of symmetric tensor components."""
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


@dataclass(frozen=True)
class SymTensorField:
    """dim(dim+1)/2 scalar components in sym_index_pairs order."""

    components: tuple[ScalarField, ...]
    dim: int

    def __post_init__(self):
        if len(self.components) != self.dim * (self.dim + 1) // 2:
            raise GeometryError("wrong number of symmetric tensor components")
        doms = {id(c.domain) for c in self.components}
        if len(doms) != 1:
            raise GeometryError("tensor components must share one domain")

    @property
    def domain(self) -> Domain:
        return self.components[0].domain

    def component(self, i: int, j: int) -> ScalarField:
        if i > j:
            i, j = j, i
        return self.components[sym_index_pairs(self.dim).index((i, j))]

    @staticmethod
    def from_boundary_matrices(domain: Domain, boundary: np.ndarray,
                               interior: np.ndarray) -> "SymTensorField":
        """Build from (m, dim, dim) matrix stacks for boundary and interior nodes."""
        comps = []
        for (i, j) in sym_index_pairs(domain.dim):
            comps.append(ScalarField(domain, interior[:, i, j], boundary[:, i, j]))
        return SymTensorField(tuple(comps), domain.dim)

    def interior_matrices(self) -> np.ndarray:
        """(n_interior, dim, dim) symmetric matrices."""
        m = np.zeros((self.domain.n_interior, self.dim, self.dim))
        for sf, (i, j) in zip(self.components, sym_index_pairs(self.dim)):
            m[:, i, j] = sf.interior
            m[:, j, i] = sf.interior
        return m

    def boundary_matrices(self) -> np.ndarray:
        m = np.zeros((self.domain.n_boundary, self.dim, self.dim))
        for sf, (i, j) in zip(self.components, sym_index_pairs(self.dim)):
            m[:, i, j] = sf.boundary
            m[:, j, i] = sf.boundary
        return m


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _field_components(field) -> list[ScalarField]:
    if isinstance(field, ScalarField):
        return [field]
    return list(field.components)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV format of every export: a comma-joined header line, then one
    line per row; string cells are written as they are, numbers as
    repr(float), so values round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c))
                              for c in row) + "\n")


def field_to_csv(field, path) -> None:
    """Node coordinates + one column per component, interior then boundary."""
    comps = _field_components(field)
    domain = comps[0].domain
    dim = domain.dim
    headers = list("xyz"[:dim]) + ["node_type"] + [f"c{k}" for k in range(len(comps))]
    pos = np.concatenate([domain.interior_coords, domain.boundary_pos])
    kinds = ["interior"] * domain.n_interior + ["boundary"] * domain.n_boundary
    values = np.stack([np.concatenate([c.interior, c.boundary]) for c in comps], axis=1)
    write_csv(path, headers, ([*x, kind, *v] for x, kind, v in zip(pos, kinds, values)))


_BIN_MAGIC = b"TBGRID01"

# Binary grid dump layout (little endian):
#   8s    magic "TBGRID01"
#   i32   dimension (2 or 3)
#   i32*d grid extents (node counts per axis)
#   f64*d origin (position of grid node 0,...,0)
#   f64   grid spacing h
#   i32   component count
# then component-count dense f64 grids in C order; nodes outside the
# domain closure hold NaN.


def to_grid_binary(field, path) -> None:
    comps = _field_components(field)
    domain = comps[0].domain
    dim = domain.dim
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<i", dim))
        fh.write(struct.pack(f"<{dim}i", *domain.shape))
        fh.write(struct.pack(f"<{dim}d", *domain.origin))
        fh.write(struct.pack("<d", domain.h))
        fh.write(struct.pack("<i", len(comps)))
        for c in comps:
            grid = np.full(domain.phi.size, np.nan)
            grid[domain.interior_flat] = c.interior
            fh.write(grid.astype("<f8").tobytes())


def read_grid_binary(path) -> tuple[dict, np.ndarray]:
    """Return (header dict, (ncomp, *extents) value array)."""
    with open(path, "rb") as fh:
        if fh.read(8) != _BIN_MAGIC:
            raise GeometryError("not a grid dump file")
        (dim,) = struct.unpack("<i", fh.read(4))
        shape = struct.unpack(f"<{dim}i", fh.read(4 * dim))
        origin = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        (h,) = struct.unpack("<d", fh.read(8))
        (ncomp,) = struct.unpack("<i", fh.read(4))
        count = int(np.prod(shape))
        data = np.frombuffer(fh.read(8 * ncomp * count), dtype="<f8")
    header = {"dim": dim, "shape": shape, "origin": origin, "h": h, "ncomp": ncomp}
    return header, data.reshape((ncomp,) + shape)
