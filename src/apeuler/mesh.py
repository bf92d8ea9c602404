"""Structured periodic rectangular meshes: cell geometry.

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
    """Parameters of a uniform nx-by-ny grid on an lx-by-ly periodic box."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError(
                f"need at least 2 cells per direction, got {self.nx}x{self.ny}"
            )
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError(
                f"domain lengths must be positive, got {self.lx}x{self.ly}"
            )


class Mesh:
    """Immutable uniform periodic mesh: grid sizes, cell centres ``cell_x``
    (ncells, 2) and cell volumes ``cell_vol`` (ncells,)."""

    __slots__ = (
        "nx", "ny", "lx", "ly", "hx", "hy", "h",
        "ncells", "domain_vol", "cell_x", "cell_vol",
    )

    def __init__(self, spec: MeshSpec):
        nx, ny = spec.nx, spec.ny
        hx = spec.lx / nx
        hy = spec.ly / ny
        ncells = nx * ny

        self.nx, self.ny = nx, ny
        self.lx, self.ly = float(spec.lx), float(spec.ly)
        self.hx, self.hy = hx, hy
        self.h = math.hypot(hx, hy)  # sup_K diam(K), all cells congruent
        self.ncells = ncells
        self.domain_vol = self.lx * self.ly

        i = np.tile(np.arange(nx), ny)
        j = np.repeat(np.arange(ny), nx)
        self.cell_x = np.column_stack(((i + 0.5) * hx, (j + 0.5) * hy))
        self.cell_vol = np.full(ncells, hx * hy)
        for arr in (self.cell_x, self.cell_vol):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return (f"Mesh({self.nx}x{self.ny} on [{self.lx} x {self.ly}], "
                f"h={self.h:.6g})")
