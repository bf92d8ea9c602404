"""Shared fixtures: small meshes and a seeded generator, plus constant
scalar- and vector-field helpers and the transport-LP oracle of W1.

The test session runs with one BLAS thread per process, as ``apeuler run``
and the benchmark do, so the recorded digests do not depend on the core
count and the acceptance gate's forked workers do not contend for cores.
The variables are set before numpy is first imported, which is when
OpenBLAS reads them."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from apeuler.fields import CellScalar, CellVector
from apeuler.mesh import Mesh, MeshSpec


def cell_scalar(mesh: Mesh, fill: float = 0.0) -> CellScalar:
    """Constant scalar field."""
    return CellScalar(mesh, np.full(mesh.ncells, float(fill)))


def cell_vector(mesh: Mesh, fill=(0.0, 0.0)) -> CellVector:
    """Constant vector field."""
    return CellVector(mesh, np.tile(np.asarray(fill, dtype=np.float64),
                                    (mesh.ncells, 1)))


def w1_lp(a, b) -> float:
    """Optimal-transport LP between equal-weight empirical measures."""
    from scipy.optimize import linprog   # test-only dependency

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.size, b.size
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    a_eq = np.vstack([np.kron(np.eye(n), np.ones((1, m))),
                      np.kron(np.ones((1, n)), np.eye(m))])
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


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
