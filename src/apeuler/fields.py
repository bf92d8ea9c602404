"""Piecewise-constant cell fields.

These are thin, shape-checked wrappers around flat numpy arrays; the actual
numerics live in :mod:`apeuler.operators`.  All constructors coerce to
float64 so downstream arithmetic is reproducible.
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


@dataclass
class CellVector:
    """One real 2-vector per primal cell, stored as an (ncells, 2) array."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce(self.values, (self.mesh.ncells, 2), "CellVector")


def cell_scalar(mesh: Mesh, fill: float = 0.0) -> CellScalar:
    """Constant scalar field."""
    return CellScalar(mesh, np.full(mesh.ncells, float(fill)))
