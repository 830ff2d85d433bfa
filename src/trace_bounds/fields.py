"""Grid-sampled fields on a domain closure.

A field stores one value per interior node and one per boundary node of its
domain. Fields are immutable value containers; all differential operators
live in the laplace module. CSV export (``field_to_csv``) writes any scalar,
vector or tensor field as node coordinates, node type and one column per
component.
"""

from __future__ import annotations

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
