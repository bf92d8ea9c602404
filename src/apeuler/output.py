"""CSV output with deterministic formatting.

Every file carries the experiment's config hash on its first line, uses a
comma separator with 17-significant-digit floats, ends lines with LF, and
is written to a temporary name then renamed, so readers never observe a
half-written file and re-runs overwrite deterministically.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .mesh import Mesh

__all__ = [
    "format_value",
    "atomic_write_text",
    "write_csv",
    "write_field_csv",
]


def format_value(value) -> str:
    """Canonical cell rendering: floats at full precision, others via str."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def atomic_write_text(path, text: str) -> Path:
    """Write-then-rename so the target is never partially visible."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def write_csv(path, columns, rows, config_hash: str) -> Path:
    """Emit ``# config_hash=...``, a header, then the data rows."""
    lines = [f"# config_hash={config_hash}", ",".join(columns)]
    ncols = len(tuple(columns))
    for row in rows:
        row = tuple(row)
        if len(row) != ncols:
            raise ValueError(
                f"row width {len(row)} does not match {ncols} columns")
        lines.append(",".join(format_value(v) for v in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_field_csv(path, mesh: Mesh, values: dict, config_hash: str) -> Path:
    """Dump cell fields with explicit grid coordinates.

    ``values`` maps column names to flat per-cell arrays; columns appear
    after i,j,x,y in the given order.
    """
    names = list(values)
    idx = np.arange(mesh.ncells)
    columns = [idx % mesh.nx, idx // mesh.nx, mesh.cell_x[:, 0],
               mesh.cell_x[:, 1]]
    for name in names:
        arr = np.asarray(values[name], dtype=np.float64)
        if arr.shape != (mesh.ncells,):
            raise ValueError(
                f"field {name!r} has shape {arr.shape}, "
                f"expected ({mesh.ncells},)")
        columns.append(arr)

    rows = zip(*(col.tolist() for col in columns))
    return write_csv(path, ["i", "j", "x", "y", *names], rows, config_hash)
