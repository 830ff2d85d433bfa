import numpy as np
import pytest

from trace_bounds import fields as F
from trace_bounds.geometry import GeometryError


def test_scalar_field_validation(disk):
    with pytest.raises(GeometryError):
        F.Field(disk, np.ones(3), np.ones(disk.n_boundary))
    with pytest.raises(GeometryError, match="boundary values shape"):
        F.Field(disk, np.ones(disk.n_interior), np.ones((disk.n_boundary, 2)))
    bad = np.ones(disk.n_interior)
    bad[0] = np.nan
    with pytest.raises(GeometryError):
        F.Field(disk, bad, np.ones(disk.n_boundary))


def test_sym_tensor_component_access(disk):
    t = F.Field.constant(disk, [[1.0, 2.0], [2.0, 3.0]])
    assert t.shape == (2, 2)
    assert t.interior.shape == (disk.n_interior, 2, 2)
    assert t.interior[0, 0, 1] == t.interior[0, 1, 0] == 2.0
    assert t.boundary[-1, 0, 1] == t.boundary[-1, 1, 0] == 2.0
    # a symmetric tensor is stored as its full matrix, so both entries must agree
    with pytest.raises(GeometryError, match="not symmetric"):
        F.Field.constant(disk, [[1.0, 2.0], [2.5, 3.0]])
    skew = np.zeros((disk.n_boundary, 2, 2))
    skew[0, 0, 1] = 1e-300
    with pytest.raises(GeometryError, match="not symmetric"):
        F.Field(disk, t.interior, skew)


def test_sym_tensor_dim_must_be_the_domains(disk, ball):
    # a 3x3 tensor does not fit a 2D domain, nor a 2x2 one a 3D domain, and a
    # vector needs one component per axis
    for dom, dim in ((disk, 3), (ball, 2)):
        for shape in ((dim, dim), (dim,)):
            with pytest.raises(GeometryError, match="dimension"):
                F.Field.constant(dom, np.ones(shape))
    assert F.Field.constant(disk, [1.0, 2.0]).domain is disk

