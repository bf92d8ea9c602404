"""Shared fixtures: small meshes and a seeded generator, plus constant
scalar- and vector-field helpers, the Taylor-Green velocity, the output
times a march must refuse and the transport-LP oracle of W1.

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


def taylor_green():
    """Taylor-Green velocity (sin 2 pi x cos 2 pi y, -cos 2 pi x sin 2 pi y);
    its pressure (cos 4 pi x + cos 4 pi y)/4 is one Laplacian mode, with
    eigenvalue -(4 pi)^2."""
    def vx(x, y):
        return np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)

    def vy(x, y):
        return -np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)

    return vx, vy


#: (initial time, output times, message) of marches that must refuse to
#: start: times that run backwards, skip or precede the initial time, never
#: end, none at all, and the default times (None) from a restarted state
BAD_OUTPUT_TIMES = [
    pytest.param(0.0, [0.0, 0.01, 0.005], r"output_times\[2\] = 0\.005:",
                 id="backwards"),
    pytest.param(0.0, [0.004, 0.01], r"output_times\[0\] = 0\.004:",
                 id="late-start"),
    pytest.param(0.0, [0.0, -0.01], r"output_times\[1\] = -0\.01:",
                 id="negative"),
    pytest.param(0.0, [0.0, np.inf], r"output_times\[1\] = inf:",
                 id="infinite"),
    pytest.param(0.0, [], "non-empty", id="empty"),
    pytest.param(0.01, None, r"output_times\[0\] = 0\.0:.* 0\.01,",
                 id="restart"),
]


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
