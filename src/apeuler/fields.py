"""Piecewise-constant cell fields.

These are thin, shape-checked wrappers around flat numpy arrays; the actual
numerics live in :mod:`apeuler.operators`.  All constructors coerce to
float64 so downstream arithmetic is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh

__all__ = [
    "CellScalar",
    "CellVector",
    "cell_scalar",
    "cell_vector",
]


def _coerce(values, shape, kind: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
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

    def copy(self) -> "CellScalar":
        return CellScalar(self.mesh, self.values.copy())


@dataclass
class CellVector:
    """One real 2-vector per primal cell, stored as an (ncells, 2) array."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce(self.values, (self.mesh.ncells, 2), "CellVector")

    def copy(self) -> "CellVector":
        return CellVector(self.mesh, self.values.copy())

    def component(self, c: int) -> CellScalar:
        return CellScalar(self.mesh, self.values[:, c].copy())


def cell_scalar(mesh: Mesh, fill: float = 0.0) -> CellScalar:
    """Constant scalar field."""
    return CellScalar(mesh, np.full(mesh.ncells, float(fill)))


def cell_vector(mesh: Mesh, fill=(0.0, 0.0)) -> CellVector:
    """Constant vector field."""
    vx, vy = fill
    out = np.empty((mesh.ncells, 2))
    out[:, 0] = vx
    out[:, 1] = vy
    return CellVector(mesh, out)
