import numpy as np
import pytest

from trace_bounds import fields as F
from trace_bounds.geometry import GeometryError


def test_scalar_field_validation(disk):
    with pytest.raises(GeometryError):
        F.ScalarField(disk, np.ones(3), np.ones(disk.n_boundary))
    bad = np.ones(disk.n_interior)
    bad[0] = np.nan
    with pytest.raises(GeometryError):
        F.ScalarField(disk, bad, np.ones(disk.n_boundary))


def test_vector_field_shares_domain(disk, disk_coarse):
    a = F.ScalarField.constant(disk, 1.0)
    b = F.ScalarField.constant(disk_coarse, 1.0)
    with pytest.raises(GeometryError):
        F.VectorField((a, b))
    with pytest.raises(GeometryError):
        F.VectorField((a,))


def test_sym_tensor_component_access(disk):
    comps = tuple(F.ScalarField.constant(disk, float(v)) for v in (1, 2, 3))
    t = F.SymTensorField(comps, 2)
    assert t.component(0, 1).interior[0] == 2.0
    assert t.component(1, 0).interior[0] == 2.0
    m = t.interior_matrices()
    assert m.shape == (disk.n_interior, 2, 2)
    assert m[0, 0, 1] == m[0, 1, 0] == 2.0


def test_csv_export(tmp_path, disk_coarse):
    f = F.ScalarField.from_function(disk_coarse, lambda p: p[:, 0])
    path = tmp_path / "field.csv"
    F.field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,node_type,c0"
    assert len(lines) == 1 + disk_coarse.n_interior + disk_coarse.n_boundary


def test_vector_field_csv(tmp_path, disk_coarse):
    f = F.VectorField.from_function(disk_coarse, lambda p: p)
    path = tmp_path / "vector.csv"
    F.field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,node_type,c0,c1"
    assert len(lines) == 1 + disk_coarse.n_interior + disk_coarse.n_boundary
