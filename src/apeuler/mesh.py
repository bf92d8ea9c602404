"""Structured meshes of the periodic unit square: cell geometry.

Cells are indexed row-major, K = j*nx + i for column i and row j, so a
per-cell array views as an (ny, nx) grid.  Periodic wrap-around faces are
ordinary faces; the mesh has no boundary.  The per-face layout is stated in
:mod:`apeuler.operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MeshSpec", "Mesh"]


@dataclass(frozen=True)
class MeshSpec:
    """Parameters of a uniform nx-by-ny grid on the periodic unit square."""

    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError(
                f"need at least 2 cells per direction, got {self.nx}x{self.ny}"
            )


class Mesh:
    """Immutable uniform mesh of the periodic unit square: grid sizes, cell
    centres ``cell_x`` (ncells, 2) and cell volumes ``cell_vol`` (ncells,)."""

    __slots__ = ("nx", "ny", "hx", "hy", "h", "ncells", "cell_x", "cell_vol")

    def __init__(self, spec: MeshSpec):
        nx, ny = spec.nx, spec.ny
        hx, hy = 1.0 / nx, 1.0 / ny
        ncells = nx * ny

        self.nx, self.ny = nx, ny
        self.hx, self.hy = hx, hy
        self.h = math.hypot(hx, hy)  # sup_K diam(K), all cells congruent
        self.ncells = ncells

        i = np.tile(np.arange(nx), ny)
        j = np.repeat(np.arange(ny), nx)
        self.cell_x = np.column_stack(((i + 0.5) * hx, (j + 0.5) * hy))
        self.cell_vol = np.full(ncells, hx * hy)
        for arr in (self.cell_x, self.cell_vol):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return f"Mesh({self.nx}x{self.ny} on the unit square, h={self.h:.6g})"
