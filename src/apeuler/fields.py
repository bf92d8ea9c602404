"""Piecewise-constant cell fields.

These are thin, shape-checked wrappers around numpy arrays; the actual
numerics live in :mod:`apeuler.operators`.  All constructors coerce to
float64 so downstream arithmetic is reproducible.

A scalar field is a flat (ncells,) array in row-major cell order.  A vector
field keeps the public (ncells, 2) shape but is stored component-major
(Fortran order): ``values.T`` is C-contiguous, so each component is one
contiguous (ncells,) column that reshapes to a (ny, nx) grid for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

__all__ = [
    "CellScalar",
    "CellVector",
    "cell_scalar",
]


def _coerce(values, shape, kind: str, order=None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64, order=order)
    if arr.shape != shape:
        raise ValueError(f"{kind} expects shape {shape}, got {arr.shape}")
    return arr


@dataclass
class CellScalar:
    """One real value per primal cell."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce(self.values, (self.mesh.ncells,), "CellScalar")


@dataclass
class CellVector:
    """One real 2-vector per primal cell: an (ncells, 2) array stored
    component-major."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce(self.values, (self.mesh.ncells, 2),
                              "CellVector", order="F")


def cell_scalar(mesh: Mesh, fill: float = 0.0) -> CellScalar:
    """Constant scalar field."""
    return CellScalar(mesh, np.full(mesh.ncells, float(fill)))
