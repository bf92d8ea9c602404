"""SHA-256 digests of apeuler's outputs: the byte-identity contract.

    python tests/record_digests.py                     # rewrite digests.json
    python tests/record_digests.py --keep DIR          # also keep the bundles
    python tests/record_digests.py --compare OLD NEW   # how far files moved

The digests cover every output file of ``apeuler run`` on the ``TINY``
config (defined here; ``test_harness.py`` imports it) in each mode, at one
and at two workers (the two must agree, and only the one-worker bundle is
kept), and on the ``study_bundle`` config
of the benchmark, plus one digest per trajectory of the zero-phase 64^2
compressible runs at eps 1, 1e-2 and 1e-4 and of the 128^2 limit run, and
of two runs on odd and mixed grids that go through the spectral solves: a
7x9 compressible run at eps 1e-3, whose Picard sweeps apply the FFT
preconditioner, and a 33x20 limit run.
``test_digests.py`` compares a fresh computation with the committed
``digests.json``.  Floating-point bits depend on the numpy version and on
the SIMD paths numpy dispatches to, so both are stored next to the digests.

A change that means to move numbers re-records the file.  ``--keep`` on the
parent and on the change, then ``--compare``, gives each moved file's
largest change relative to the largest magnitude in its column, the
columns only one side has, and the files only one side has.

The script, like the test session (``conftest.py``), ``apeuler run`` and the
benchmark, runs numpy with one BLAS thread, so the digests do not depend on
the machine's core count.  A threaded ``ddot`` splits its sum by thread,
which changes the last bits of the 128^2 limit run's kinetic energy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# before numpy is first imported, which is when OpenBLAS reads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# the small config of the harness tests, which test_harness.py imports
TINY = ("grids = 4,8\nref_grid = 16\neps = 1.0,0.01\n"
        "t_final = 0.001\noutput_count = 2\n")
# the study_bundle config of the benchmark
STUDY_BUNDLE = ("mode = convergence_study\n"
                "grids = 16, 32\n"
                "ref_grid = 64\n"
                "eps = 1.0, 0.01, 0.0001\n"
                "t_final = 0.01\n"
                "workers = 2\n")
MODES = ("compressible", "incompressible", "convergence_study")
COMP_EPS = (1.0, 1e-2, 1e-4)


def environment() -> dict:
    """numpy's version and the CPU features its SIMD dispatch can use."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    usable = set(umath.__cpu_baseline__) | set(umath.__cpu_dispatch__)
    features = sorted(f for f, on in umath.__cpu_features__.items()
                      if on and f in usable)
    return {"numpy": np.__version__, "cpu_features": features}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_bundle(config_text: str, outdir: Path, workers: int | None) -> dict:
    """``apeuler run`` on ``config_text`` into ``outdir``; the digest of each
    file written, keyed by its path under ``outdir``."""
    from apeuler.cli import main

    outdir.mkdir(parents=True)
    path = outdir.with_suffix(".cfg")
    path.write_text(config_text)
    argv = ["run", "--config", str(path), "--out", str(outdir)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"apeuler run {' '.join(argv)} exited {code}")
    return {p.relative_to(outdir).as_posix(): _sha256(p.read_bytes())
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def _record_digest(items) -> str:
    """One digest of a sequence of dataclass records (states, diagnostics):
    every field, arrays by their bytes and scalars by their repr."""
    h = hashlib.sha256()
    for item in items:
        for field in dataclasses.fields(item):
            value = getattr(item, field.name)
            value = getattr(value, "values", value)   # CellScalar/CellVector
            h.update(field.name.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def trajectory_digests() -> dict:
    """One digest per trajectory of the zero-phase 64^2 compressible runs,
    the 128^2 limit run and the odd and mixed grid runs (7x9 compressible
    at eps 1e-3, 33x20 limit)."""
    from apeuler import compressible, incompressible
    from apeuler.cases import comp_initial_data, incomp_initial_data
    from apeuler.mesh import Mesh, MeshSpec

    def comp(nx, ny, eps):
        mesh = Mesh(MeshSpec(nx, ny))
        rho0, u0 = comp_initial_data(eps)
        ic = compressible.init_comp(rho0, u0, mesh, eps)
        traj = compressible.run_comp(compressible.CompConfig(eps=eps),
                                     mesh, ic)
        return _record_digest(traj.states + traj.diagnostics)

    def incomp(nx, ny):
        mesh = Mesh(MeshSpec(nx, ny))
        ic = incompressible.init_incomp(incomp_initial_data(), mesh)
        traj = incompressible.run_incomp(incompressible.IncompConfig(), mesh,
                                         ic)
        return _record_digest(traj.states + traj.diagnostics)

    out = {f"comp_64_eps{eps:g}": comp(64, 64, eps) for eps in COMP_EPS}
    out["incomp_128"] = incomp(128, 128)
    out["comp_7x9_eps0.001"] = comp(7, 9, 1e-3)
    out["incomp_33x20"] = incomp(33, 20)
    return out


def tiny_bundle(mode: str, workdir: Path) -> dict:
    """``run_bundle`` of ``TINY`` in ``mode`` at one and at two workers,
    into ``tiny_<mode>_w1`` and ``_w2`` under ``workdir``.  Raises, keeping
    both, if they differ; else removes the two-worker bundle, so a
    ``--keep`` directory holds each file once."""
    text = TINY + f"mode = {mode}\n"
    one = run_bundle(text, workdir / f"tiny_{mode}_w1", 1)
    two_dir = workdir / f"tiny_{mode}_w2"
    two = run_bundle(text, two_dir, 2)
    if one != two:
        moved = sorted(k for k in one.keys() | two.keys()
                       if one.get(k) != two.get(k))
        raise RuntimeError(f"mode {mode}: workers 1 and 2 differ in {moved}")
    shutil.rmtree(two_dir)
    two_dir.with_suffix(".cfg").unlink()
    return one


def compute(workdir: Path) -> dict:
    """Every digest, with the bundles written under ``workdir``.  Raises if
    one and two workers write different files."""
    digests = {}
    for mode in MODES:
        digests.update({f"tiny_{mode}/{k}": v
                        for k, v in tiny_bundle(mode, workdir).items()})
    bundle = run_bundle(STUDY_BUNDLE, workdir / "study_bundle", None)
    digests.update({f"study_bundle/{k}": v for k, v in bundle.items()})
    digests.update({f"trajectory/{k}": v
                    for k, v in trajectory_digests().items()})
    return digests


def _table(path: Path):
    """(header, rows of floats) of an output CSV without its comment line;
    a cell that is not a number reads as nan."""
    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return np.nan

    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[number(c) for c in ln.split(",")] for ln in lines[1:]],
                    dtype=np.float64).reshape(len(lines) - 1, len(header))
    return header, rows


def compare(old: Path, new: Path) -> list[str]:
    """One line per file whose bytes differ between two ``--keep``
    directories: its largest change over the largest magnitude of that
    column in ``old``, over the cells finite in both and the columns both
    have (matched by name), and that column; then the columns only one
    side has.  Files with different row counts read ``layout differs``, and
    a file only one directory has is named as missing in the other."""
    lines = []
    for p in sorted(old.rglob("*.csv")):
        rel = p.relative_to(old)
        q = new / rel
        if not q.is_file():
            lines.append(f"{rel}: missing in {new}")
            continue
        if p.read_bytes() == q.read_bytes():
            continue
        head_a, a = _table(p)
        head_b, b = _table(q)
        if len(a) != len(b):
            lines.append(f"{rel}: layout differs")
            continue
        new_columns = dict(zip(head_b, b.T))
        worst, column = 0.0, ""
        for name, x in zip(head_a, a.T):
            if name not in new_columns:
                continue
            y = new_columns[name]
            both = np.isfinite(x) & np.isfinite(y)
            if not both.any():
                continue
            diff = float(np.abs(x[both] - y[both]).max())
            scale = float(np.abs(x[both]).max())
            change = diff / scale if scale > 0.0 else diff
            if change > worst:
                worst, column = change, name
        line = f"{rel}: {worst:.2e}" + (f" ({column})" if column else "")
        for side, mine, other in (("OLD", head_a, head_b),
                                  ("NEW", head_b, head_a)):
            only = [name for name in mine if name not in other]
            if only:
                line += f"; only in {side}: {','.join(only)}"
        lines.append(line)
    lines += [f"{q.relative_to(new)}: missing in {old}"
              for q in sorted(new.rglob("*.csv"))
              if not (old / q.relative_to(new)).is_file()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the bundles under DIR and keep them")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        type=Path, help="compare two --keep directories")
    args = parser.parse_args(argv)
    if args.compare:
        # a wrong path would otherwise read as a tree with no file changed
        for path in args.compare:
            if not path.is_dir() or next(path.rglob("*.csv"), None) is None:
                parser.error(f"--compare: {path} is not a directory holding "
                             f"a CSV file")
        print("\n".join(compare(*args.compare)) or "no file differs")
        return 0

    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.keep if args.keep else Path(tmp)
        digests = compute(workdir)
    record = {"environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
