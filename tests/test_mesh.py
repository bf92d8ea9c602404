"""Mesh geometry: sizes, cell centres and volumes."""

import math

import numpy as np
import pytest

from apeuler.mesh import Mesh, MeshSpec
from apeuler.operators import edge_normal_values


def test_spec_rejects_degenerate_grids():
    with pytest.raises(ValueError):
        MeshSpec(1, 4)
    with pytest.raises(ValueError):
        MeshSpec(4, 1)


def test_2x2_geometry_by_hand(mesh2):
    # unit square, 2x2: h_x = h_y = 1/2, 4 cells, 8 faces
    assert mesh2.ncells == 4
    assert edge_normal_values(mesh2, np.zeros((4, 2))).shape == (2, 2, 2)
    assert mesh2.hx == 0.5 and mesh2.hy == 0.5
    assert mesh2.h == pytest.approx(math.hypot(0.5, 0.5), rel=1e-15)
    np.testing.assert_allclose(mesh2.cell_vol, 0.25)


def test_row_major_cell_centers():
    mesh = Mesh(MeshSpec(4, 2))
    # K = j*nx + i sits at ((i + 1/2) hx, (j + 1/2) hy)
    assert mesh.cell_x[0] == pytest.approx([0.125, 0.25])
    assert mesh.cell_x[3] == pytest.approx([0.875, 0.25])
    assert mesh.cell_x[4] == pytest.approx([0.125, 0.75])


def test_mesh_arrays_immutable(mesh2):
    with pytest.raises(ValueError):
        mesh2.cell_vol[0] = 7.0
    with pytest.raises(ValueError):
        mesh2.cell_x[0, 0] = 3.0

