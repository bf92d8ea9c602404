"""Experiment orchestration: parameter sweeps over grids and Mach numbers,
derived tables, and file layout.

Two bundled studies share the diagonal-shear data on the periodic unit
square.  The compressible study sweeps the (grid, eps) product and reports
how the runs approach the incompressible limit: density deviation from the
constant state, the L1 gap between the compressible and limit velocities,
refinement-sequence errors E1--E4 per eps, and the final-time velocity
divergence on the finest grid.  The limit study sweeps grids, reporting
E1--E4, relative energy and L2 error against the finest run (with rates),
and the cross-scheme relative energy versus eps on its finest sweep grid.

A sweep cell is one run: (scheme, grid) for the limit scheme, (scheme,
grid, eps) for the compressible one.  An experiment runs the union of its
studies' cells once, then writes each study's bundle from the shared
results.  A failure is caught in its cell, recorded in every bundle that
needs the cell, and blocks no other cell or table.  All files land under
the configured output directory with the config hash stamped in.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
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
from .config import ExperimentConfig, comp_config, config_hash, incomp_config
from .fields import CellScalar, CellVector, cell_scalar
from .incompressible import init_incomp, run_incomp
from .mesh import Mesh, MeshSpec
from .operators import div_values, lp_norm
from .output import write_csv, write_field_csv

log = logging.getLogger(__name__)

__all__ = ["OutputBundle", "run_experiment"]


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


def _eps_tag(eps: float) -> str:
    return f"{eps:g}"


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
        return f"comp k={key[1]} eps={_eps_tag(key[2])}"
    return f"incomp k={key[1]}"


def _run_cell(cfg: ExperimentConfig, key: tuple) -> Trajectory:
    log.info("running %s", _job_label(key))
    job = _comp_job if key[0] == "comp" else _incomp_job
    return job(cfg, *key[1:])


def _sweep(cfg: ExperimentConfig, cells) -> tuple[dict, dict]:
    """Run each cell once on ``cfg.workers`` threads; returns trajectories
    and failure messages keyed by cell, a failure confined to its cell."""
    results, failures = {}, {}
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = {key: pool.submit(_run_cell, cfg, key) for key in cells}
        for key, fut in futures.items():
            try:
                results[key] = fut.result()
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
            rundir = outdir / "runs" / f"comp_k{key[1]}_eps{_eps_tag(key[2])}"
            files += _write_comp_run(rundir, traj, key[2], gamma, chash)
        else:
            rundir = outdir / "runs" / f"incomp_k{key[1]}"
            files += _write_incomp_run(rundir, traj, chash)
    return files


def _error_table(path: Path, snaps: dict, sweep_grids, all_grids, time: float,
                 chash: str) -> Path:
    """Cumulative refinement-sequence errors: row k compares the sequence up
    to grid k against the full sequence ending at the reference grid."""
    ref_ens = make_ensemble([snaps[g] for g in all_grids], time)
    rows = []
    for j, g in enumerate(sweep_grids):
        ens = make_ensemble([snaps[gg] for gg in sweep_grids[:j + 1]], time)
        rep = error_suite(ens, ref_ens)
        rows.append((g, snaps[g].mesh.h, rep.E1, rep.E2, rep.E3, rep.E4))
    return write_csv(path, ["k", "h", "E1", "E2", "E3", "E4"], rows, chash)


def _all_grids(cfg: ExperimentConfig) -> list[int]:
    return sorted(set(cfg.grids) | {cfg.ref_grid})


def _comp_cells(cfg: ExperimentConfig) -> list[tuple]:
    """Compressible study: every (grid, eps) with its limit companion."""
    cells: list[tuple] = []
    for g in _all_grids(cfg):
        cells.append(("incomp", g))
        cells += [("comp", g, eps) for eps in cfg.eps]
    return cells


def _comp_tables(cfg: ExperimentConfig, results: dict, tables: Path,
                 chash: str) -> list[Path]:
    files: list[Path] = []
    all_grids = _all_grids(cfg)
    for g in all_grids:
        sup_rows, gap_rows = [], []
        for eps in cfg.eps:
            comp = results.get(("comp", g, eps))
            if comp is None:
                continue
            dev = density_deviation(comp, eps, cfg.gamma)
            sup_rows.append((eps, dev.sup))
            limit = results.get(("incomp", g))
            if limit is not None:
                diff = CellVector(comp.mesh, comp.states[-1].u.values
                                  - limit.states[-1].v.values)
                gap_rows.append((eps, lp_norm(diff, 1)))
        if sup_rows:
            files.append(write_csv(
                tables / f"density_sup_k{g}.csv", ["eps", "sup_lgamma"],
                sup_rows, chash))
        if gap_rows:
            files.append(write_csv(
                tables / f"velocity_gap_k{g}.csv", ["eps", "l1_gap"],
                gap_rows, chash))

    for eps in cfg.eps:
        if not all(("comp", g, eps) in results for g in all_grids):
            log.warning("skipping error table for eps=%g: missing runs", eps)
            continue
        snaps = {g: comp_snapshot(results[("comp", g, eps)].states[-1])
                 for g in all_grids}
        files.append(_error_table(
            tables / f"errors_comp_eps{_eps_tag(eps)}.csv", snaps,
            cfg.grids, all_grids, cfg.t_final, chash))

    div_rows = []
    for eps in cfg.eps:
        comp = results.get(("comp", all_grids[-1], eps))
        if comp is None:
            continue
        mesh = comp.mesh
        div = CellScalar(mesh, div_values(mesh, comp.states[-1].u.values))
        div_rows.append((eps, lp_norm(div, 2), lp_norm(div, np.inf)))
    if div_rows:
        files.append(write_csv(
            tables / "div_residual.csv", ["eps", "div_l2", "div_linf"],
            div_rows, chash))
    return files


def _incomp_cells(cfg: ExperimentConfig) -> list[tuple]:
    """Limit study: every grid, plus the compressible runs on the finest
    sweep grid for the cross-scheme comparison."""
    return ([("incomp", g) for g in _all_grids(cfg)]
            + [("comp", cfg.grids[-1], eps) for eps in cfg.eps])


def _incomp_tables(cfg: ExperimentConfig, results: dict, tables: Path,
                   chash: str) -> list[Path]:
    files: list[Path] = []
    all_grids = _all_grids(cfg)
    g_cross = cfg.grids[-1]
    if all(("incomp", g) in results for g in all_grids):
        snaps = {g: incomp_snapshot(results[("incomp", g)].states[-1])
                 for g in all_grids}
        files.append(_error_table(
            tables / "errors_incomp.csv", snaps, cfg.grids, all_grids,
            cfg.t_final, chash))

    ref = results.get(("incomp", cfg.ref_grid))
    if ref is not None:
        energy_rows, err_list, h_list = [], [], []
        for g in cfg.grids:
            run = results.get(("incomp", g))
            if run is None:
                continue
            mesh = run.mesh
            v_ref = np.column_stack([
                restrict_values(ref.states[-1].v.values[:, c], ref.mesh, mesh)
                for c in range(2)])
            v_ref = CellVector(mesh, v_ref)
            energy_rows.append((g, mesh.h,
                                rel_energy_incomp(run.states[-1].v, v_ref)))
            diff = CellVector(mesh, run.states[-1].v.values - v_ref.values)
            err_list.append(lp_norm(diff, 2))
            h_list.append(mesh.h)
        if energy_rows:
            files.append(write_csv(
                tables / "rel_energy_refine.csv", ["k", "h", "rel_energy"],
                energy_rows, chash))
        if err_list:
            if len(err_list) > 1 and all(e > 0.0 for e in err_list):
                rates = [np.nan] + eoc(err_list, h_list)
            else:
                rates = [np.nan] * len(err_list)
            rows = [(energy_rows[j][0], err_list[j], rates[j])
                    for j in range(len(err_list))]
            files.append(write_csv(
                tables / "eoc.csv", ["k", "error_l2", "eoc"], rows, chash))

    limit = results.get(("incomp", g_cross))
    if limit is not None:
        cross_rows = []
        for eps in cfg.eps:
            comp = results.get(("comp", g_cross, eps))
            if comp is None:
                continue
            state = comp.states[-1]
            mesh = state.mesh
            m = CellVector(mesh, state.rho.values[:, None] * state.u.values)
            e_rel = rel_energy_comp(state.rho, m, cell_scalar(mesh, 1.0),
                                    limit.states[-1].v, eps, cfg.gamma)
            cross_rows.append((eps, e_rel))
        if cross_rows:
            files.append(write_csv(
                tables / "cross_scheme_rel_energy.csv", ["eps", "rel_energy"],
                cross_rows, chash))
    return files


def _write_manifest(bundle: OutputBundle) -> None:
    rel = sorted(str(p.relative_to(bundle.outdir)) for p in bundle.files)
    bundle.files.append(write_csv(bundle.outdir / "manifest.csv", ["file"],
                                  [(r,) for r in rel], bundle.config_hash))


def _write_bundle(cfg: ExperimentConfig, chash: str, outdir: Path, cells,
                  tables_fn, results: dict, failures: dict) -> OutputBundle:
    """Write one study's runs, tables and manifest from the shared sweep."""
    cells = dict.fromkeys(cells)
    own = {key: results[key] for key in cells if key in results}
    bundle = OutputBundle(outdir=outdir, config_hash=chash, failures=[
        failures[key] for key in cells if key in failures])
    bundle.files += _write_runs(outdir, own, cfg.gamma, chash)
    bundle.files += tables_fn(cfg, own, outdir / "tables", chash)
    _write_manifest(bundle)
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
