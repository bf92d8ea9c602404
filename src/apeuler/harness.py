"""Experiment orchestration: parameter sweeps over grids and Mach numbers,
derived tables, and file layout.

Two bundled studies share the diagonal-shear data on the periodic unit
square: the compressible study sweeps (grid, eps) toward the incompressible
limit, the limit study sweeps grids.  Each table is the ``(columns, rows)``
of a pure row function of the results, keyed ``("comp", grid, eps)`` /
``("incomp", grid)``, for explicit grids and eps lists, one row per
finished cell; one loop writes them all.  The acceptance gate runs its
cells through ``_sweep`` and reads its criterion series from these
functions, so a table and the criterion judging it cannot drift apart; only
the series no table reports (criterion 08's rates between consecutive
levels and against the exact solution, 10's per-step residual) are
computed there.

A sweep cell is one run: (scheme, grid) for the limit scheme, (scheme,
grid, eps) for the compressible one.  An experiment runs the union of its
studies' cells once.  Each cell writes its run files itself, once, into the
first bundle that lists it and copies them into the others; then each
study's tables and manifest are written from the shared results.  A
failure, in the run or in writing its files, is caught in its cell,
recorded once for every study that needs the cell, leaves no run files of
the cell in any bundle, and blocks no other cell or table.  All files land
under the configured output directory with the config hash stamped in.

A cell's run files go to ``runs/<scheme>_k<grid>[_eps<tag>]``:
``diagnostics.csv``, whose columns are the fields without a default of the
scheme's step-diagnostics dataclass, in declaration order, one row per
step; ``fields_final.csv``, the final state per cell (rho, m1, m2, u1, u2
or v1, v2, pi after i, j, x, y); and, compressible runs only,
``density_deviation.csv``.  Only the job and the run-writer branch on the
scheme.
"""

from __future__ import annotations

import logging
import shutil
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import (
    Ensemble,
    comp_snapshot,
    density_deviation,
    eoc,
    error_suite,
    incomp_snapshot,
    make_ensemble,
    restrict_values,
)
from .cases import comp_initial_data, incomp_initial_data
from .compressible import (StepDiagnostics, Trajectory, default_output_times,
                           init_comp, run_comp, total_entropy)
from .config import (ExperimentConfig, comp_config, config_hash, eps_tag,
                     incomp_config)
from .incompressible import (IncompStepDiagnostics, init_incomp,
                             kinetic_energy, run_incomp)
from .mesh import Mesh, MeshSpec
from .operators import div_values, lp_norm
from .output import atomic_write_text, write_csv, write_field_csv

log = logging.getLogger(__name__)

__all__ = ["OutputBundle", "run_experiment", "density_sup_rows",
           "velocity_gap_rows", "error_rows", "div_residual_rows",
           "rel_energy_rows", "eoc_rows", "cross_energy_rows"]


@dataclass
class OutputBundle:
    """What an experiment produced: file paths plus any failed sweep cells,
    a cell listed once for each study that needs it."""

    outdir: Path
    config_hash: str
    files: list[Path] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _job(cfg: ExperimentConfig, key: tuple) -> Trajectory:
    """Run the sweep cell ``key`` from the diagonal-shear data."""
    scheme, grid, *eps = key
    mesh = Mesh(MeshSpec(nx=grid, ny=grid))
    times = default_output_times(cfg.t_final, cfg.output_count)
    if scheme == "comp":
        rho0, u0 = comp_initial_data(eps[0])
        ic = init_comp(rho0, u0, mesh, eps=eps[0], gamma=cfg.gamma)
        return run_comp(comp_config(cfg, eps[0]), mesh, ic, times)
    ic = init_incomp(incomp_initial_data(), mesh)
    return run_incomp(incomp_config(cfg), mesh, ic, times)


def _names(key: tuple) -> tuple[str, str]:
    """(label, run directory name) of the sweep cell ``key``, as in
    ``comp k=8 eps=0.01`` and ``comp_k8_eps0.01``, or ``incomp k=8`` and
    ``incomp_k8``."""
    scheme, grid, *eps = key
    params = [("k", str(grid))] + [("eps", eps_tag(e)) for e in eps]
    return (" ".join([scheme] + [f"{n}={v}" for n, v in params]),
            "_".join([scheme] + [n + v for n, v in params]))


def _clear(rundirs: list[Path]) -> None:
    for rundir in rundirs:
        if rundir.exists():
            shutil.rmtree(rundir)


def _run_cell(cfg: ExperimentConfig, key: tuple, outdirs: list[Path],
              chash: str) -> tuple[Trajectory, list[Path]]:
    """Run one cell, write its run files into the first of the bundle
    directories ``outdirs`` and byte-copy them into the others; returns the
    trajectory and the files' paths relative to a bundle directory.

    The cell's run directory is removed from every bundle before the run
    and again when a write fails, so a failed cell leaves no run files:
    neither those written before the failure nor those of an earlier run
    into the same directories."""
    label, name = _names(key)
    log.info("running %s", label)
    rundirs = [outdir / "runs" / name for outdir in outdirs]
    _clear(rundirs)
    traj = _job(cfg, key)
    first, *others = outdirs
    try:
        files = _write_run(rundirs[0], key, traj, cfg.gamma, chash)
        rel = [p.relative_to(first) for p in files]
        for outdir in others:
            for r in rel:
                atomic_write_text(outdir / r,
                                  (first / r).read_text(encoding="utf-8"))
    except BaseException:
        _clear(rundirs)
        raise
    return traj, rel


def _sweep(cfg: ExperimentConfig, cells) -> tuple[dict, dict]:
    """Run each cell once and write its run files into every bundle of
    ``cfg`` that lists it; returns (trajectory, run files relative to a
    bundle) pairs and failure messages keyed by cell, a failure confined to
    its cell.  A cell whose run or run-file write raises is a failed cell:
    its run directories are removed from every bundle, so its files are in
    no manifest and on no disk, and the sweep goes on.  Every cell runs on
    one of ``cfg.workers`` forked processes, at most one per cell, which
    write the files themselves and send back only the pair; one worker is
    one process beside this one.  A worker that dies fails every cell not
    finished by then."""
    # imported here, so importing the package does not load them; fork, so
    # the children inherit the imported package and a driver script without
    # a __main__ guard is not run again in each
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    chash, studies = config_hash(cfg), _studies(cfg)
    outdirs = {key: [outdir for outdir, listed, _ in studies if key in listed]
               for key in cells}
    results, failures = {}, {}
    workers = min(cfg.workers, len(cells))
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        futures = {key: pool.submit(_run_cell, cfg, key, outdirs[key], chash)
                   for key in cells}
        for key, future in futures.items():
            try:
                results[key] = future.result()
            except Exception as exc:  # cell isolation is the whole point
                label = _names(key)[0]
                log.warning("sweep cell failed: %s: %s", label, exc)
                failures[key] = f"{label}: {exc}"
    return results, failures


def _write_run(rundir: Path, key: tuple, traj: Trajectory, gamma: float,
               chash: str) -> list[Path]:
    """Write the run files of the sweep cell ``key`` into ``rundir``: the
    step diagnostics, the final fields and, for a compressible run, the
    density-deviation series."""
    final = traj.states[-1]
    if key[0] == "comp":
        schema = StepDiagnostics
        m = final.rho.values[:, None] * final.u.values
        values = {"rho": final.rho.values, "m1": m[:, 0], "m2": m[:, 1],
                  "u1": final.u.values[:, 0], "u2": final.u.values[:, 1]}
    else:
        schema = IncompStepDiagnostics
        values = {"v1": final.v.values[:, 0], "v2": final.v.values[:, 1],
                  "pi": final.pi.values}
    columns = [f.name for f in fields(schema) if f.default is MISSING]
    files = [write_csv(rundir / "diagnostics.csv", columns,
                       map(attrgetter(*columns), traj.diagnostics), chash),
             write_field_csv(rundir / "fields_final.csv", traj.mesh, values,
                             chash)]
    if key[0] == "comp":
        dev = density_deviation(traj, key[2], gamma)
        files.append(write_csv(rundir / "density_deviation.csv",
                               ["t", "lgamma_dist"],
                               zip(dev.times, dev.values), chash))
    return files


def _comp_runs(results: dict, grid: int, eps_list):
    """(eps, trajectory) of each finished compressible run on ``grid``."""
    return [(eps, results[("comp", grid, eps)]) for eps in eps_list
            if ("comp", grid, eps) in results]


def density_sup_rows(results: dict, grid: int, eps_list, gamma: float):
    """Sup over the output times of the L^gamma density deviation, per eps."""
    return ["eps", "sup_lgamma"], [
        (eps, density_deviation(comp, eps, gamma).sup)
        for eps, comp in _comp_runs(results, grid, eps_list)]


def velocity_gap_rows(results: dict, grid: int, eps_list):
    """Final-time L1 gap between the compressible and limit velocities."""
    limit = results.get(("incomp", grid))
    runs = _comp_runs(results, grid, eps_list) if limit is not None else []
    return ["eps", "l1_gap"], [
        (eps, lp_norm(comp.mesh, comp.states[-1].u.values
                      - limit.states[-1].v.values, 1))
        for eps, comp in runs]


def error_rows(results: dict, grids, ref_grid: int, eps: float | None = None):
    """Cumulative refinement-sequence errors of the limit runs, or of the
    compressible runs at ``eps``: row k compares the sequence up to grid k
    against the full one ending at ``ref_grid``; no rows unless all finished.
    ``grids`` rises to at most ``ref_grid`` (``ExperimentConfig`` checks
    it), so each row takes a prefix of the full sequence's members."""
    columns = ["k", "h", "E1", "E2", "E3", "E4"]
    all_grids = sorted(set(grids) | {ref_grid})
    runs = [results.get(("incomp", g) if eps is None else ("comp", g, eps))
            for g in all_grids]
    if any(run is None for run in runs):
        return columns, []
    snapshot = incomp_snapshot if eps is None else comp_snapshot
    ref_ens = make_ensemble([snapshot(run.states[-1]) for run in runs],
                            runs[-1].states[-1].t)
    rows = []
    for j, g in enumerate(grids):
        ens = Ensemble(ref_ens.members[:j + 1], ref_ens.time)
        rep = error_suite(ens, ref_ens)
        rows.append((g, runs[j].mesh.h, rep.E1, rep.E2, rep.E3, rep.E4))
    return columns, rows


def div_residual_rows(results: dict, grid: int, eps_list):
    """L2 and max norms of the final compressible velocity divergence."""
    rows = []
    for eps, comp in _comp_runs(results, grid, eps_list):
        div = div_values(comp.mesh, comp.states[-1].u.values)
        rows.append((eps, lp_norm(comp.mesh, div, 2),
                     lp_norm(comp.mesh, div, np.inf)))
    return ["eps", "div_l2", "div_linf"], rows


def _refine_errors(results: dict, grids, ref_grid: int) -> list[tuple]:
    """(k, h, relative energy, L2 error) of each finished limit run on
    ``grids`` against the ``ref_grid`` run restricted onto its grid."""
    ref = results.get(("incomp", ref_grid))
    rows = []
    for g in grids:
        run = results.get(("incomp", g))
        if run is None or ref is None:
            continue
        mesh = run.mesh
        diff = run.states[-1].v.values - np.column_stack([
            restrict_values(ref.states[-1].v.values[:, c], ref.mesh, mesh)
            for c in range(2)])
        rows.append((g, mesh.h, kinetic_energy(mesh, diff),
                     lp_norm(mesh, diff, 2)))
    return rows


def rel_energy_rows(results: dict, grids, ref_grid: int):
    """Relative energy of each limit run against the ``ref_grid`` run."""
    return ["k", "h", "rel_energy"], [
        row[:3] for row in _refine_errors(results, grids, ref_grid)]


def eoc_rows(results: dict, grids, ref_grid: int):
    """L2 velocity error of each limit run against the ``ref_grid`` run, with
    the rate from the next coarser grid (nan where undefined)."""
    rows = _refine_errors(results, grids, ref_grid)
    rates = [np.nan] * len(rows)
    if len(rows) > 1 and all(row[3] > 0.0 for row in rows):
        rates[1:] = eoc([row[3] for row in rows], [row[1] for row in rows])
    return ["k", "error_l2", "eoc"], [
        (row[0], row[3], rate) for row, rate in zip(rows, rates)]


def cross_energy_rows(results: dict, grid: int, eps_list, gamma: float):
    """Relative energy of each final compressible state against the limit
    velocity at unit density."""
    limit = results.get(("incomp", grid))
    runs = _comp_runs(results, grid, eps_list) if limit is not None else []
    return ["eps", "rel_energy"], [
        (eps, total_entropy(comp.states[-1].rho, comp.states[-1].u, eps,
                            gamma, limit.states[-1].v))
        for eps, comp in runs]


def _all_grids(cfg: ExperimentConfig) -> list[int]:
    return sorted(set(cfg.grids) | {cfg.ref_grid})


def _comp_cells(cfg: ExperimentConfig) -> list[tuple]:
    """Compressible study: every (grid, eps) with its limit companion."""
    cells: list[tuple] = []
    for g in _all_grids(cfg):
        cells.append(("incomp", g))
        cells += [("comp", g, eps) for eps in cfg.eps]
    return cells


def _comp_tables(cfg: ExperimentConfig, results: dict):
    """The compressible study's tables as (file name, (columns, rows))."""
    all_grids, eps_list = _all_grids(cfg), cfg.eps
    for g in all_grids:
        yield (f"density_sup_k{g}.csv",
               density_sup_rows(results, g, eps_list, cfg.gamma))
        yield f"velocity_gap_k{g}.csv", velocity_gap_rows(results, g, eps_list)
    for eps in eps_list:
        yield (f"errors_comp_eps{eps_tag(eps)}.csv",
               error_rows(results, cfg.grids, cfg.ref_grid, eps))
    yield "div_residual.csv", div_residual_rows(results, all_grids[-1], eps_list)


def _incomp_cells(cfg: ExperimentConfig) -> list[tuple]:
    """Limit study: every grid, plus the compressible runs on the finest
    sweep grid for the cross-scheme comparison."""
    return ([("incomp", g) for g in _all_grids(cfg)]
            + [("comp", cfg.grids[-1], eps) for eps in cfg.eps])


def _incomp_tables(cfg: ExperimentConfig, results: dict):
    """The limit study's tables as (file name, (columns, rows))."""
    grids, ref = cfg.grids, cfg.ref_grid
    yield "errors_incomp.csv", error_rows(results, grids, ref)
    yield "rel_energy_refine.csv", rel_energy_rows(results, grids, ref)
    yield "eoc.csv", eoc_rows(results, grids, ref)
    yield "cross_scheme_rel_energy.csv", cross_energy_rows(
        results, grids[-1], cfg.eps, cfg.gamma)


def _studies(cfg: ExperimentConfig) -> list[tuple]:
    """(bundle directory, cells, table function) of each study the mode
    selects; a convergence study writes both into ``comp`` and ``incomp``
    subdirectories."""
    base = Path(cfg.outdir)
    comp = (_comp_cells(cfg), _comp_tables)
    incomp = (_incomp_cells(cfg), _incomp_tables)
    if cfg.mode == "compressible":
        return [(base, *comp)]
    if cfg.mode == "incompressible":
        return [(base, *incomp)]
    return [(base / "comp", *comp), (base / "incomp", *incomp)]


def _write_bundle(cfg: ExperimentConfig, chash: str, outdir: Path, cells,
                  tables_fn, results: dict) -> list[Path]:
    """Write one study's nonempty tables and its manifest, which also lists
    the run files the sweep wrote for the study's finished cells; returns
    the paths of all of them."""
    own = {key: results[key] for key in cells if key in results}
    files = [outdir / rel for key in sorted(own, key=lambda k: _names(k)[0])
             for rel in own[key][1]]
    trajs = {key: traj for key, (traj, _) in own.items()}
    files += [write_csv(outdir / "tables" / name, columns, rows, chash)
              for name, (columns, rows) in tables_fn(cfg, trajs) if rows]
    rel = sorted(str(p.relative_to(outdir)) for p in files)
    files.append(write_csv(outdir / "manifest.csv", ["file"],
                           [(r,) for r in rel], chash))
    return files


def run_experiment(cfg: ExperimentConfig) -> OutputBundle:
    """Sweep the union of the cells of the studies the mode selects once,
    then write each study's tables and manifest; a cell two studies share
    runs once with its run files in both.  Every file carries
    ``config_hash(cfg)``."""
    studies = _studies(cfg)
    results, failures = _sweep(cfg, dict.fromkeys(
        key for _, cells, _ in studies for key in cells))
    chash = config_hash(cfg)
    files = [path for study in studies
             for path in _write_bundle(cfg, chash, *study, results)]
    return OutputBundle(outdir=Path(cfg.outdir), config_hash=chash,
                        files=files, failures=[
                            failures[key] for _, cells, _ in studies
                            for key in cells if key in failures])
