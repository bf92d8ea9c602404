"""Experiment orchestration: parameter sweeps over grids and Mach numbers,
derived tables, and file layout.

Two bundled studies share the diagonal-shear data on the periodic unit
square: the compressible study sweeps (grid, eps) toward the incompressible
limit, the limit study sweeps grids.  Each table is the ``(columns, rows)``
of a pure row function of the results, keyed ``("comp", grid, eps)`` /
``("incomp", grid)``, for explicit grids and eps lists, one row per
finished cell; one loop writes them all.  The acceptance gate reads its
criterion series from these functions on its own runs, so a table and the
criterion judging it cannot drift apart; only the series no table reports
(criterion 08's rates between consecutive levels and against the exact
solution, 10's per-step residual) are computed there.

A sweep cell is one run: (scheme, grid) for the limit scheme, (scheme,
grid, eps) for the compressible one.  An experiment runs the union of its
studies' cells once, then writes each study's bundle from the shared
results.  A failure is caught in its cell, recorded in every bundle that
needs the cell, and blocks no other cell or table.  All files land under
the configured output directory with the config hash stamped in.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field
from functools import partial
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
    rel_energy_comp,
    rel_energy_incomp,
    restrict_values,
)
from .cases import comp_initial_data, incomp_initial_data
from .compressible import Trajectory, default_output_times, init_comp, run_comp
from .config import (ExperimentConfig, comp_config, config_hash, eps_tag,
                     incomp_config)
from .fields import CellScalar, CellVector, cell_scalar
from .incompressible import init_incomp, run_incomp
from .mesh import Mesh, MeshSpec
from .operators import div_values, lp_norm
from .output import write_csv, write_field_csv

log = logging.getLogger(__name__)

__all__ = ["OutputBundle", "run_experiment", "density_sup_rows",
           "velocity_gap_rows", "error_rows", "div_residual_rows",
           "rel_energy_rows", "eoc_rows", "cross_energy_rows"]


@dataclass
class OutputBundle:
    """What a study produced: file paths plus any failed sweep cells."""

    outdir: Path
    config_hash: str
    files: list[Path] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _comp_job(cfg: ExperimentConfig, grid: int, eps: float):
    mesh = Mesh(MeshSpec(nx=grid, ny=grid))
    rho0, u0 = comp_initial_data(eps)
    ic = init_comp(rho0, u0, mesh, eps=eps, gamma=cfg.gamma)
    return run_comp(comp_config(cfg, eps), mesh, ic,
                    default_output_times(cfg.t_final, cfg.output_count))


def _incomp_job(cfg: ExperimentConfig, grid: int):
    mesh = Mesh(MeshSpec(nx=grid, ny=grid))
    ic = init_incomp(incomp_initial_data(), mesh)
    return run_incomp(incomp_config(cfg), mesh, ic,
                      default_output_times(cfg.t_final, cfg.output_count))


def _job_label(key: tuple) -> str:
    if key[0] == "comp":
        return f"comp k={key[1]} eps={eps_tag(key[2])}"
    return f"incomp k={key[1]}"


def _run_cell(cfg: ExperimentConfig, key: tuple) -> Trajectory:
    log.info("running %s", _job_label(key))
    job = _comp_job if key[0] == "comp" else _incomp_job
    return job(cfg, *key[1:])


def _sweep(cfg: ExperimentConfig, cells) -> tuple[dict, dict]:
    """Run each cell once; returns trajectories and failure messages keyed
    by cell, a failure confined to its cell.  With one worker the cells run
    in this process, else on ``cfg.workers`` forked processes, at most one
    per cell.  A worker that dies fails every cell not finished by then."""
    workers = min(cfg.workers, len(cells))
    results, failures = {}, {}
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here, so a run without a pool never loads them; fork,
            # so the children inherit the imported package and a driver
            # script without a __main__ guard is not run again in each
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")))
            outcomes = {key: pool.submit(_run_cell, cfg, key).result
                        for key in cells}
        else:
            outcomes = {key: partial(_run_cell, cfg, key) for key in cells}
        for key, outcome in outcomes.items():
            try:
                results[key] = outcome()
            except Exception as exc:  # cell isolation is the whole point
                log.warning("sweep cell failed: %s: %s", _job_label(key), exc)
                failures[key] = f"{_job_label(key)}: {exc}"
    return results, failures


def _write_comp_run(rundir: Path, traj: Trajectory, eps: float, gamma: float,
                    chash: str) -> list[Path]:
    cols = ["step", "t", "dt", "picard_iters", "energy", "entropy",
            "mass", "rho_min", "rho_max", "stab_dissipation", "energy_ok"]
    rows = [(d.step, d.t, d.dt, d.picard_iters, d.energy, d.entropy_pi,
             d.mass, d.rho_min, d.rho_max, d.stab_dissipation,
             int(d.energy_ok)) for d in traj.diagnostics]
    files = [write_csv(rundir / "diagnostics.csv", cols, rows, chash)]

    final = traj.states[-1]
    m = final.rho.values[:, None] * final.u.values
    files.append(write_field_csv(
        rundir / "fields_final.csv", traj.mesh,
        {"rho": final.rho.values, "m1": m[:, 0], "m2": m[:, 1],
         "u1": final.u.values[:, 0], "u2": final.u.values[:, 1]}, chash))

    dev = density_deviation(traj, eps, gamma)
    files.append(write_csv(rundir / "density_deviation.csv",
                           ["t", "lgamma_dist"],
                           zip(dev.times, dev.values), chash))
    return files


def _write_incomp_run(rundir: Path, traj: Trajectory, chash: str) -> list[Path]:
    cols = ["step", "t", "dt", "kinetic_energy", "div_residual",
            "pressure_iters", "energy_ok"]
    rows = [(d.step, d.t, d.dt, d.kinetic_energy, d.div_residual,
             d.pressure_iters, int(d.energy_ok)) for d in traj.diagnostics]
    files = [write_csv(rundir / "diagnostics.csv", cols, rows, chash)]

    final = traj.states[-1]
    files.append(write_field_csv(
        rundir / "fields_final.csv", traj.mesh,
        {"v1": final.v.values[:, 0], "v2": final.v.values[:, 1],
         "pi": final.pi.values}, chash))
    return files


def _write_runs(outdir: Path, results: dict, gamma: float,
                chash: str) -> list[Path]:
    """Write every finished sweep cell into its own run directory."""
    files: list[Path] = []
    for key, traj in sorted(results.items(), key=lambda kv: _job_label(kv[0])):
        if key[0] == "comp":
            rundir = outdir / "runs" / f"comp_k{key[1]}_eps{eps_tag(key[2])}"
            files += _write_comp_run(rundir, traj, key[2], gamma, chash)
        else:
            rundir = outdir / "runs" / f"incomp_k{key[1]}"
            files += _write_incomp_run(rundir, traj, chash)
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
        (eps, lp_norm(CellVector(comp.mesh, comp.states[-1].u.values
                                 - limit.states[-1].v.values), 1))
        for eps, comp in runs]


def error_rows(results: dict, grids, ref_grid: int, time: float,
               eps: float | None = None):
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
    ref_ens = make_ensemble([snapshot(run.states[-1]) for run in runs], time)
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
        div = CellScalar(comp.mesh,
                         div_values(comp.mesh, comp.states[-1].u.values))
        rows.append((eps, lp_norm(div, 2), lp_norm(div, np.inf)))
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
        v, mesh = run.states[-1].v, run.mesh
        v_ref = CellVector(mesh, np.column_stack([
            restrict_values(ref.states[-1].v.values[:, c], ref.mesh, mesh)
            for c in range(2)]))
        rows.append((g, mesh.h, rel_energy_incomp(v, v_ref),
                     lp_norm(CellVector(mesh, v.values - v_ref.values), 2)))
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
    rows = []
    for eps, comp in runs:
        state = comp.states[-1]
        m = CellVector(state.mesh, state.rho.values[:, None] * state.u.values)
        rows.append((eps, rel_energy_comp(
            state.rho, m, cell_scalar(state.mesh, 1.0), limit.states[-1].v,
            eps, gamma)))
    return ["eps", "rel_energy"], rows


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
               error_rows(results, cfg.grids, cfg.ref_grid, cfg.t_final, eps))
    yield "div_residual.csv", div_residual_rows(results, all_grids[-1], eps_list)


def _incomp_cells(cfg: ExperimentConfig) -> list[tuple]:
    """Limit study: every grid, plus the compressible runs on the finest
    sweep grid for the cross-scheme comparison."""
    return ([("incomp", g) for g in _all_grids(cfg)]
            + [("comp", cfg.grids[-1], eps) for eps in cfg.eps])


def _incomp_tables(cfg: ExperimentConfig, results: dict):
    """The limit study's tables as (file name, (columns, rows))."""
    grids, ref = cfg.grids, cfg.ref_grid
    yield "errors_incomp.csv", error_rows(results, grids, ref, cfg.t_final)
    yield "rel_energy_refine.csv", rel_energy_rows(results, grids, ref)
    yield "eoc.csv", eoc_rows(results, grids, ref)
    yield "cross_scheme_rel_energy.csv", cross_energy_rows(
        results, grids[-1], cfg.eps, cfg.gamma)


def _write_bundle(cfg: ExperimentConfig, chash: str, outdir: Path, cells,
                  tables_fn, results: dict, failures: dict) -> OutputBundle:
    """Write one study's runs, nonempty tables and manifest."""
    cells = dict.fromkeys(cells)
    own = {key: results[key] for key in cells if key in results}
    bundle = OutputBundle(outdir=outdir, config_hash=chash, failures=[
        failures[key] for key in cells if key in failures])
    bundle.files += _write_runs(outdir, own, cfg.gamma, chash)
    bundle.files += [write_csv(outdir / "tables" / name, columns, rows, chash)
                     for name, (columns, rows) in tables_fn(cfg, own) if rows]
    rel = sorted(str(p.relative_to(outdir)) for p in bundle.files)
    bundle.files.append(write_csv(outdir / "manifest.csv", ["file"],
                                  [(r,) for r in rel], chash))
    return bundle


def run_experiment(cfg: ExperimentConfig) -> OutputBundle:
    """Sweep the union of the cells of the studies the mode selects once,
    then write each study's bundle; a convergence study writes both into
    ``comp`` and ``incomp`` subdirectories, and a cell they share runs once
    with its run files in both.  Every file carries ``config_hash(cfg)``."""
    base = Path(cfg.outdir)
    comp = (_comp_cells(cfg), _comp_tables)
    incomp = (_incomp_cells(cfg), _incomp_tables)
    if cfg.mode == "compressible":
        studies = [(base, *comp)]
    elif cfg.mode == "incompressible":
        studies = [(base, *incomp)]
    else:
        studies = [(base / "comp", *comp), (base / "incomp", *incomp)]
    results, failures = _sweep(cfg, dict.fromkeys(
        key for _, cells, _ in studies for key in cells))
    chash = config_hash(cfg)
    bundles = [_write_bundle(cfg, chash, *study, results, failures)
               for study in studies]
    return OutputBundle(outdir=base, config_hash=chash,
                        files=[p for b in bundles for p in b.files],
                        failures=[f for b in bundles for f in b.failures])
