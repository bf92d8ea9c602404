"""Acceptance gate: eleven pass/fail criteria covering the operator
identities, conservation and positivity, energy stability, Mach-uniform time
stepping, the low-Mach asymptotics, scheme-to-scheme and mesh-convergence
trends, the singular-limit constraint residuals, and the statistics oracles.

Every criterion is one test that prints a single PASS/FAIL line (visible
with ``-s``; the test name itself carries the verdict under ``-v``).  The
solver runs behind the criteria are made once per session, the way
``apeuler run`` makes them: the ``runs`` fixture sweeps the 21 cells the
criteria read (grids up to 256^2, limit runs up to 512^2) through
``harness._sweep`` on two forked workers, which write their run files under
pytest's temporary directory; the fixture removes them at session end.  A
failed cell fails the gate by its label.

The results use the harness's keys, so criteria 05-10 read their
series from the harness's table row functions, the code behind the bundle
tables, and assert one row per expected cell: 05 the density sup, 06 the
velocity gap, 07 E1-E4, 08 the relative energy and the rates against the
512^2 run, 09 the cross-scheme energy and 10 the compressible divergence.
Three series are still computed here because no table has them yet:
08's rates between consecutive levels and against the exact solution
(``eoc.csv`` still takes its rates against the reference grid) and 10's
per-step limit residual.  Criteria 01-04 and 11 check step diagnostics or
unit-level identities that no table reports.
"""

import shutil
import time

import numpy as np
import pytest

from apeuler import harness
from apeuler.analysis import eoc, restrict_values, w1_empirical
from apeuler.compressible import total_energy, total_entropy
from apeuler.config import ExperimentConfig
from apeuler.fields import CellScalar, CellVector
from apeuler.harness import (
    cross_energy_rows,
    density_sup_rows,
    div_residual_rows,
    eoc_rows,
    error_rows,
    rel_energy_rows,
    velocity_gap_rows,
)
from apeuler.incompressible import kinetic_energy
from apeuler.mesh import Mesh, MeshSpec
from apeuler.operators import (
    EdgeSplit,
    div_upwind_values,
    div_values,
    grad_values,
    lp_norm,
)
from conftest import w1_lp

T_FINAL = 0.02
EPS_ALL = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
EPS_COARSE = (1.0, 1e-2, 1e-4)
SWEEP_GRIDS = (32, 64, 128)
REF_GRID = 256

# regression anchors for the final-time L1 gap between the compressible
# velocity and the limit velocity on 128^2, one per entry of EPS_ALL; the
# criterion asks for the decreasing trend and agreement within a factor 3.
# The three anchors for eps <= 1e-2 are the gaps of the default
# configuration, which are converged in the inner solves: with
# compressible.PICARD_TOL = TRANSPORT_TOL = 1e-14 monkeypatched in (default
# 1e-11 and 1e-12) they agree with the default run to within 0.2%.  Below
# eps = 1e-2 they flatten at ~8.5e-7 only because the compressible run
# is capped at dt_max = t_final/50 = 4e-4 while the limit scheme steps at
# ~1.56e-4; with a shared dt_max the gap falls like eps^2
# (test_velocity_gap_to_limit_is_order_eps_squared in test_compressible.py).
GAP_ANCHORS = (9.49e-1, 3.15e-2, 8.70e-5, 1.28e-6, 8.55e-7)


#: the sweep cells the criteria read, largest grid first so that the
#: longest runs start first on the two workers
CELLS = ([("incomp", 512)]
         + [("comp", 256, eps) for eps in EPS_COARSE] + [("incomp", 256)]
         + [("comp", g, eps) for g in (128, 64) for eps in EPS_ALL]
         + [("comp", 32, eps) for eps in EPS_COARSE]
         + [("incomp", g) for g in (128, 64, 32)])


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """Trajectories of ``CELLS`` keyed by ('comp', grid, eps) or
    ('incomp', grid), run once per session through ``harness._sweep``.
    The run files it writes are removed when the session ends."""
    outdir = tmp_path_factory.mktemp("gate")
    cfg = ExperimentConfig(mode="compressible", grids=(32, 64, 128, 256),
                           ref_grid=512, eps=EPS_ALL, t_final=T_FINAL,
                           output_count=10, workers=2, outdir=str(outdir))
    # a cell no study lists would run with no bundle to write into and fail
    # only after its whole run
    [(_, listed, _)] = harness._studies(cfg)
    assert set(CELLS) <= set(listed), \
        f"cells no study lists: {[k for k in CELLS if k not in listed]}"
    try:
        results, failures = harness._sweep(cfg, CELLS)
        if failures:
            pytest.fail("gate cells failed: " + "; ".join(failures.values()),
                        pytrace=False)
        yield {key: traj for key, (traj, _) in results.items()}
    finally:
        shutil.rmtree(outdir)


def _verdict(name: str, failures: list, detail: str = "") -> None:
    ok = not failures
    parts = ([detail] if detail else []) + failures
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if parts:
        line += " [" + "; ".join(parts) + "]"
    print(line, flush=True)
    assert ok, line


def _strictly_decreasing(seq) -> bool:
    return all(a > b for a, b in zip(seq, seq[1:]))


def _initial_mass(traj) -> float:
    return float(np.dot(traj.mesh.cell_vol, traj.states[0].rho.values))


def _series(table, keys, column: str) -> list:
    """One column of a harness table, asserting one row per expected cell in
    order, so a skipped cell fails instead of shortening the series."""
    columns, rows = table
    assert [row[0] for row in rows] == list(keys), \
        f"table rows {[row[0] for row in rows]} != expected {list(keys)}"
    return [row[columns.index(column)] for row in rows]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_operator_identities():
    t0 = time.monotonic()
    failures = []
    worst_duality = 0.0
    for n in (4, 16, 64, 128):
        mesh = Mesh(MeshSpec(n, n))
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            q = rng.standard_normal(mesh.ncells)
            w = rng.standard_normal((mesh.ncells, 2))
            a = float(np.dot(mesh.cell_vol, q * div_values(mesh, w)))
            b = float(np.dot(mesh.cell_vol,
                             np.einsum("kc,kc->k", grad_values(mesh, q), w)))
            rel = abs(a + b) / max(abs(a), abs(b), 1e-300)
            worst_duality = max(worst_duality, rel)
        if worst_duality > 1e-12:
            failures.append(f"duality defect {worst_duality:.2e} on {n}^2")

        # conservativity: a face's flux enters its two cells with exactly
        # opposite volume-weighted contributions ...
        q_field = CellScalar(mesh, rng.standard_normal(mesh.ncells))
        e = mesh.ncells // 2  # the +x face of cell e
        wplus = np.zeros((2, n, n))
        wplus[0].flat[e] = rng.uniform(0.5, 2.0)
        split = EdgeSplit(mesh, wplus, np.zeros_like(wplus))
        d = div_upwind_values(mesh, q_field.values, split.wplus, split.wminus)
        K, L = e, (e // n) * n + (e % n + 1) % n
        if mesh.cell_vol[K] * d[K] + mesh.cell_vol[L] * d[L] != 0.0:
            failures.append(f"single-face flux not antisymmetric on {n}^2")
        # ... so the total upwind mass flux telescopes to roundoff
        split = EdgeSplit(mesh, np.abs(rng.standard_normal((2, n, n))),
                          -np.abs(rng.standard_normal((2, n, n))))
        total = float(np.dot(mesh.cell_vol, div_upwind_values(
            mesh, q_field.values, split.wplus, split.wminus)))
        q2 = q_field.values.reshape(n, n)
        qk = np.stack((q2, q2))
        ql = np.stack((np.roll(q2, -1, axis=1), np.roll(q2, -1, axis=0)))
        face_len = np.array((mesh.hy, mesh.hx))[:, None, None]
        gross = float(np.abs(face_len
                             * (split.wplus * qk + split.wminus * ql)).sum())
        if abs(total) > 1e-13 * gross:
            failures.append(f"upwind flux total {total:.2e} on {n}^2")

    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict("operator identities: grad-div duality <= 1e-12 and "
             "conservative fluxes on 4^2..128^2",
             failures, f"worst duality {worst_duality:.2e}, {elapsed:.1f}s")


def test_02_mass_conservation_and_positivity(runs):
    failures = []
    worst = 0.0
    for g in SWEEP_GRIDS:
        for eps in EPS_COARSE:
            traj = runs[("comp", g, eps)]
            m0 = _initial_mass(traj)
            drift = max(abs(d.mass - m0) for d in traj.diagnostics) / m0
            worst = max(worst, drift)
            if drift > 1e-10:
                failures.append(f"mass drift {drift:.2e} at {g}^2 eps={eps:g}")
            if min(d.rho_min for d in traj.diagnostics) <= 0.0:
                failures.append(f"density not positive at {g}^2 eps={eps:g}")
    _verdict("mass conserved to 1e-10 per step with positive density on "
             "every compressible sweep run", failures,
             f"worst drift {worst:.2e}")


def test_03_energy_and_entropy_stability(runs):
    failures = []
    for g in SWEEP_GRIDS:
        for eps in EPS_COARSE:
            traj = runs[("comp", g, eps)]
            s0 = traj.states[0]
            e_prev = total_energy(s0.rho, s0.u, eps, 2.0)
            s_prev = total_entropy(s0.rho, s0.u, eps, 2.0)
            for d in traj.diagnostics:
                if d.energy > e_prev * (1.0 + 1e-10):
                    failures.append(
                        f"energy grew at {g}^2 eps={eps:g} step {d.step}")
                    break
                if d.entropy > s_prev * (1.0 + 1e-10):
                    failures.append(
                        f"entropy grew at {g}^2 eps={eps:g} step {d.step}")
                    break
                e_prev, s_prev = d.energy, d.entropy
    for g in (32, 64, 128, 256, 512):
        traj = runs[("incomp", g)]
        ke_prev = kinetic_energy(traj.states[0].v)
        for d in traj.diagnostics:
            if d.kinetic_energy > ke_prev * (1.0 + 1e-10):
                failures.append(f"kinetic energy grew at {g}^2 step {d.step}")
                break
            ke_prev = d.kinetic_energy
    _verdict("total energy and entropy non-increasing every compressible "
             "step; kinetic energy non-increasing every limit step", failures)


def test_04_mach_uniform_time_step(runs):
    failures = []
    min_dt = {eps: min(d.dt_bound
                       for d in runs[("comp", 64, eps)].diagnostics)
              for eps in EPS_ALL}
    ratio = max(min_dt.values()) / min(min_dt.values())
    if ratio >= 3.0:
        failures.append(f"min dt varies by {ratio:.2f} across eps")
    _verdict("admissible time step varies by < 3x across eps in "
             "[1e-4, 1] at 64^2", failures, f"ratio {ratio:.3f}")


def test_05_density_asymptotics(runs):
    failures = []
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    sups = _series(density_sup_rows(runs, 128, eps_list, 2.0), eps_list,
                   "sup_lgamma")
    for eps, sup in zip(eps_list, sups):
        if sup > 10.0 * eps**2:
            failures.append(f"sup {sup:.3e} exceeds 10 eps^2 at eps={eps:g}")
    ratios = [sups[j] / sups[j + 1] for j in range(len(sups) - 1)]
    for eps, r in zip(eps_list, ratios):
        if not 50.0 <= r <= 200.0:
            failures.append(f"decade ratio {r:.1f} at eps={eps:g} outside [50,200]")
    _verdict("density deviation bounded by 10 eps^2 on 128^2 with decade "
             "ratios in [50, 200]", failures,
             "ratios " + ", ".join(f"{r:.0f}" for r in ratios))


def test_06_velocity_gap_to_limit(runs):
    failures = []
    gaps = _series(velocity_gap_rows(runs, 128, EPS_ALL), EPS_ALL, "l1_gap")
    if not _strictly_decreasing(gaps):
        failures.append("gap not strictly decreasing in eps")
    for eps, gap, anchor in zip(EPS_ALL, gaps, GAP_ANCHORS):
        if not anchor / 3.0 <= gap <= anchor * 3.0:
            failures.append(f"gap at eps={eps:g} not within 3x "
                            f"of {anchor:.3e}")
    _verdict("final-time L1 velocity gap to the limit scheme decreasing in "
             "eps and within 3x of the anchors on 128^2", failures,
             "gaps " + ", ".join(f"{v:.3e}" for v in gaps))


def test_07_refinement_statistics_decrease(runs):
    failures = []
    cases = {f"comp eps={eps:g}": error_rows(runs, SWEEP_GRIDS, REF_GRID, eps)
             for eps in (1.0, 1e-2)}
    cases["incomp"] = error_rows(runs, SWEEP_GRIDS, REF_GRID)
    for label, table in cases.items():
        for name in ("E1", "E2", "E3", "E4"):
            series = _series(table, SWEEP_GRIDS, name)
            if not _strictly_decreasing(series):
                failures.append(f"{label} {name} not decreasing: "
                                + ", ".join(f"{v:.3e}" for v in series))
    _verdict("E1-E4 strictly decreasing over 32^2 -> 128^2 against the "
             "256^2 reference (compressible at eps=1, 1e-2, and limit "
             "scheme)", failures)


def _restricted_velocity(run, mesh) -> CellVector:
    """Final velocity of ``run`` block-averaged onto the coarser ``mesh``."""
    v = run.states[-1].v.values
    return CellVector(mesh, np.column_stack([
        restrict_values(v[:, c], run.mesh, mesh) for c in range(2)]))


def test_08_limit_scheme_convergence_rate(runs):
    failures = []
    grids = (32, 64, 128, 256, 512)
    errors, errors_exact, hs = [], [], []
    for g, g_fine in zip(grids, grids[1:]):
        run = runs[("incomp", g)]
        mesh = run.mesh
        v = run.states[-1].v.values
        # consecutive levels: for a first-order scheme ||v_h - R v_{h/2}||
        # ~ C h/2, so the rate is the order itself
        v_fine = _restricted_velocity(runs[("incomp", g_fine)], mesh)
        errors.append(lp_norm(CellVector(mesh, v - v_fine.values), 2))
        # the continuous solution of the shear case is stationary, so the
        # projected initial state doubles as the exact final-time solution;
        # rates against it are free of reference-proximity deflation
        exact = CellVector(mesh, v - run.states[0].v.values)
        errors_exact.append(lp_norm(exact, 2))
        hs.append(mesh.h)
    rates = eoc(errors, hs)
    rates_exact = eoc(errors_exact, hs)
    # the harness's rel_energy_refine.csv and eoc.csv rows against the fixed
    # 512^2 run; there err ~ C (h - h_ref), which pushes the last rate toward
    # log2 3, so those rates are a diagnostic only
    energies = _series(rel_energy_rows(runs, grids[:-1], grids[-1]),
                       grids[:-1], "rel_energy")
    rates_ref = _series(eoc_rows(runs, grids[:-1], grids[-1]), grids[:-1],
                        "eoc")[1:]
    for label, series in (("consecutive", rates), ("vs exact", rates_exact)):
        for r in series[-2:]:
            if not 0.75 <= r <= 1.1:
                failures.append(f"final EOC {label} {r:.3f} outside "
                                "[0.75, 1.1]")
    if not _strictly_decreasing(energies):
        failures.append("relative energy not decreasing under refinement: "
                        + ", ".join(f"{v:.3e}" for v in energies))
    _verdict("limit-scheme L2 velocity EOC in [0.75, 1.1] on the final "
             "refinements between consecutive levels up to 512^2 and "
             "against the exact solution, relative energy vs 512^2 "
             "decreasing", failures,
             "eoc " + ", ".join(f"{r:.3f}" for r in rates)
             + "; eoc vs exact " + ", ".join(f"{r:.3f}" for r in rates_exact)
             + "; eoc vs 512^2 " + ", ".join(f"{r:.3f}" for r in rates_ref)
             + "; rel energy " + ", ".join(f"{v:.2e}" for v in energies))


def test_09_cross_scheme_relative_energy(runs):
    failures = []
    values = _series(cross_energy_rows(runs, REF_GRID, EPS_COARSE, 2.0),
                     EPS_COARSE, "rel_energy")
    if not _strictly_decreasing(values):
        failures.append("relative energy not decreasing in eps: "
                        + ", ".join(f"{v:.3e}" for v in values))
    _verdict("cross-scheme relative energy at final time decreasing in eps "
             "on 256^2", failures, ", ".join(f"{v:.2e}" for v in values))


def test_10_divergence_residuals(runs):
    failures = []
    worst = 0.0
    for g in (32, 64, 128, 256, 512):
        traj = runs[("incomp", g)]
        res = max(d.div_residual for d in traj.diagnostics)
        worst = max(worst, res)
        if res > 1e-9:
            failures.append(f"limit constraint residual {res:.2e} at {g}^2")
    series = _series(div_residual_rows(runs, REF_GRID, EPS_COARSE),
                     EPS_COARSE, "div_l2")
    div = dict(zip(EPS_COARSE, series))
    if not _strictly_decreasing(series):
        failures.append("compressible divergence not decreasing in eps: "
                        + ", ".join(f"{v:.3e}" for v in series))
    if div[1e-4] > 1e-3:
        failures.append(f"divergence {div[1e-4]:.3e} at eps=1e-4 exceeds 1e-3")
    _verdict("limit constraint residual <= 1e-9 every step; compressible "
             "divergence on 256^2 decreasing in eps and <= 1e-3 at eps=1e-4",
             failures, f"worst residual {worst:.2e}, "
             "div " + ", ".join(f"{v:.2e}" for v in series))


def test_11_wasserstein_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    failures = []
    worst = 0.0
    for _ in range(1000):
        n, m = rng.integers(1, 6, size=2)
        scale = rng.uniform(0.1, 10.0)
        a = rng.standard_normal(n) * scale
        b = rng.standard_normal(m) * scale
        gap = abs(w1_empirical(a, b) - w1_lp(a, b))
        worst = max(worst, gap)
        if gap > 1e-10:
            failures.append(f"W1 mismatch {gap:.2e}")
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s not within seconds")
    _verdict("empirical W1 matches the transport LP on 1000 sample sets "
             "to 1e-10", failures, f"worst gap {worst:.1e}, {elapsed:.1f}s")
