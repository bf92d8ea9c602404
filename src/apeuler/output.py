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


def _write_table(path, columns, lines, config_hash: str) -> Path:
    """Emit ``# config_hash=...``, a header, then the rendered data lines."""
    head = [f"# config_hash={config_hash}", ",".join(columns)]
    return atomic_write_text(path, "\n".join(head + lines) + "\n")


def write_csv(path, columns, rows, config_hash: str) -> Path:
    """Emit ``# config_hash=...``, a header, then the data rows."""
    columns = list(columns)
    lines = []
    for row in rows:
        row = tuple(row)
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} does not match {len(columns)} columns")
        lines.append(",".join(format_value(v) for v in row))
    return _write_table(path, columns, lines, config_hash)


def write_field_csv(path, mesh: Mesh, values: dict, config_hash: str) -> Path:
    """Dump cell fields with explicit grid coordinates.

    ``values`` maps column names to flat per-cell arrays; columns appear
    after i,j,x,y in the given order.  Each row is rendered with one
    printf template, which gives the same text as ``format_value`` per
    value: ``%d`` is ``str(int)`` and ``%.17g`` is ``f"{v:.17g}"``, nan,
    infinities and -0 included.
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

    template = "%d,%d," + ",".join(["%.17g"] * (len(columns) - 2))
    lines = [template % row for row in zip(*(col.tolist() for col in columns))]
    return _write_table(path, ["i", "j", "x", "y", *names], lines,
                        config_hash)
