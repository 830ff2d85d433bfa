"""Grid-sampled fields on a domain closure.

A ``Field`` stores one value per interior node and one per boundary node of
its domain, as two arrays shaped (N, *s) and (M, *s): s is () for a scalar,
(dim,) for a vector and (dim, dim) for a symmetric tensor, which is stored as
its full symmetric matrix. Fields are immutable value containers; all
differential operators live in the laplace module. CSV export
(``field_to_csv``) writes any field as node coordinates, node type and one
column per component, a tensor's in (i, j), i <= j order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import Domain, GeometryError

__all__ = ["Field", "field_to_csv", "write_csv"]


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
# export
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV format of every export: a comma-joined header line, then one
    line per row; string cells are written as they are, numbers as
    repr(float), so values round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c))
                              for c in row) + "\n")


def field_to_csv(field: Field, path) -> None:
    """Node coordinates + one column per component, interior then boundary;
    a symmetric tensor writes its (i, j), i <= j entries in row order."""
    domain = field.domain
    dim = domain.dim
    values = np.concatenate([field.interior, field.boundary])
    if len(field.shape) == 2:
        i, j = np.triu_indices(dim)
        values = values[:, i, j]
    values = values.reshape(len(values), -1)
    headers = list("xyz"[:dim]) + ["node_type"] + [f"c{k}" for k in range(values.shape[1])]
    pos = np.concatenate([domain.interior_coords, domain.boundary_pos])
    kinds = ["interior"] * domain.n_interior + ["boundary"] * domain.n_boundary
    write_csv(path, headers, ([*x, kind, *v] for x, kind, v in zip(pos, kinds, values)))
