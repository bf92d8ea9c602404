"""Shared fixtures: small meshes and a seeded generator, plus a constant
vector-field helper."""

import numpy as np
import pytest

from apeuler.fields import CellVector
from apeuler.mesh import Mesh, MeshSpec


def cell_vector(mesh: Mesh, fill=(0.0, 0.0)) -> CellVector:
    """Constant vector field."""
    return CellVector(mesh, np.tile(np.asarray(fill, dtype=np.float64),
                                    (mesh.ncells, 1)))


@pytest.fixture
def mesh2() -> Mesh:
    return Mesh(MeshSpec(2, 2))


@pytest.fixture
def mesh4() -> Mesh:
    return Mesh(MeshSpec(4, 4))


@pytest.fixture
def mesh42() -> Mesh:
    """The 4x2 unit-square mesh used by the hand-evaluated operator examples."""
    return Mesh(MeshSpec(4, 2))


@pytest.fixture
def mesh16() -> Mesh:
    return Mesh(MeshSpec(16, 16))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
