"""The apeuler benchmark: workloads, correctness gate and metrics.

Each invocation runs one workload.  It sets the workload up several times
(the median is ``setup_s``), then repeats the workload's body for the
requested number of seconds and reports medians.  Every body's outputs are
checked; each failed run, sweep cell or check counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are printed, their times
corrected for drift in machine speed (see ``CAL_REF_S``).  With ``--trace 1``
the body first runs untraced for a third of the time, then with the
outside-in tracer installed; the per-layer metrics come from the traced
bodies and the tracing overhead is the difference of the two medians.

The package is driven only through its public functions; see
``tracer.TARGETS`` for the functions that get spans.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from apeuler import analysis, cli, compressible, incompressible
from apeuler.fields import CellScalar, CellVector
from apeuler.mesh import Mesh, MeshSpec

from tracer import Tracer

TWO_PI = 2.0 * math.pi
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "study_bundle_reference.json"

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: serves the self-test.
SIZES = {
    "full": {"comp_grid": 64, "comp_eps": (1.0, 1e-2, 1e-4),
             "incomp_grid": 128, "stats_base": 96, "stats_levels": 4},
    "tiny": {"comp_grid": 16, "comp_eps": (1.0, 1e-4),
             "incomp_grid": 16, "stats_base": 4, "stats_levels": 3},
}

#: Config files of the study_bundle workload.  The bundled case is used
#: unchanged: ExperimentConfig.seed is read by nothing, so no seed is passed.
BUNDLE_CONFIGS = {
    "full": ("mode = convergence_study\n"
             "grids = 16, 32\n"
             "ref_grid = 64\n"
             "eps = 1.0, 0.01, 0.0001\n"
             "t_final = 0.01\n"
             "workers = 2\n"),
    "tiny": ("mode = convergence_study\n"
             "grids = 8\n"
             "ref_grid = 16\n"
             "eps = 1.0, 0.0001\n"
             "t_final = 0.004\n"
             "workers = 2\n"),
}

# correctness tolerances
MASS_DRIFT_TOL = 1e-12      # relative, over every step
DIV_RESIDUAL_TOL = 1e-12
E4_RTOL = 1e-12
#: Bundle tables may move at roundoff when a later change reorders sums or
#: swaps the pressure solver; byte identity is not required.  A value
#: passes when |x - ref| <= TABLE_RTOL |ref| + TABLE_ATOL max|ref column|.
TABLE_RTOL = 1e-6
TABLE_ATOL = 1e-9

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 1000
SETUP_BUDGET_S = 1.0

#: The speed of a shared machine drifts by up to 2x over minutes, and apeuler
#: slows down with it.  Each timed repetition is therefore bracketed by a
#: fixed calibration loop and reported as (time / calibration time) x
#: CAL_REF_S: seconds at the speed at which one calibration sample takes
#: CAL_REF_S, its typical median on a shared 2-vCPU Xeon (KVM) host, keyed
#: by the number of threads the loop runs on.  Raw times are printed
#: alongside.
CAL_REF_S = {1: 0.012, 2: 0.034}
CAL_ITERS = 400
#: Calibration before and after each body repetition lasts CAL_SHARE of
#: the previous body time, and at least CAL_MIN_SAMPLES samples.
CAL_SHARE = 0.05
CAL_MIN_SAMPLES = 3


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts attempted and failed operations: runs, sweep cells, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _attempt(fn, *args, **kwargs):
    """Run one operation of a body; an exception is its outcome, not an
    abort of the benchmark."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the gate counts it; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def shear_phases(seed: int) -> tuple[float, float]:
    """Phase shifts (shear wave, acoustic wave) drawn from the seed."""
    ps, pa = np.random.default_rng(seed).uniform(0.0, TWO_PI, 2)
    return float(ps), float(pa)


def comp_data(eps: float, phases):
    """The bundled well-prepared shear data with phase-shifted waves.

    The density perturbation stays eps^2 sin^2, so the data remain well
    prepared; zero phases reproduce ``cases.comp_initial_data``.
    """
    ps, pa = phases
    e2 = eps * eps

    def shear(x, y):
        return np.sin(TWO_PI * (x - y) + ps)

    def rho0(x, y):
        s = np.sin(TWO_PI * (x + y) + pa)
        return 1.0 + e2 * s * s

    def u0x(x, y):
        return (shear(x, y) + e2 * np.sin(TWO_PI * (x + y) + pa)) / rho0(x, y)

    def u0y(x, y):
        return (shear(x, y) + e2 * np.cos(TWO_PI * (x + y) + pa)) / rho0(x, y)

    return rho0, (u0x, u0y)


def incomp_data(phase: float):
    """Divergence-free shear v1 = v2 = sin(2 pi (x - y) + phase)."""
    def shear(x, y):
        return np.sin(TWO_PI * (x - y) + phase)
    return (shear, shear)


def square_mesh(n: int) -> Mesh:
    return Mesh(MeshSpec(nx=n, ny=n))


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> ctx, body(ctx) -> out, verify(ctx, out, gate)
# returns the body's work in cell updates
# ---------------------------------------------------------------------------

class CompMach:
    """run_comp on one grid for each eps."""

    threads = 1

    def __init__(self, sizes):
        self.grid, self.eps = sizes["comp_grid"], sizes["comp_eps"]

    def setup(self, seed: int, phases=None):
        phases = shear_phases(seed) if phases is None else phases
        mesh = square_mesh(self.grid)
        ics = []
        for eps in self.eps:
            rho0, u0 = comp_data(eps, phases)
            ics.append((eps, compressible.init_comp(rho0, u0, mesh, eps=eps)))
        return mesh, ics

    def body(self, ctx):
        mesh, ics = ctx
        return [(eps, ic) + _attempt(compressible.run_comp,
                                     compressible.CompConfig(eps=eps), mesh, ic)
                for eps, ic in ics]

    def verify(self, ctx, out, gate: Gate) -> float:
        mesh = ctx[0]
        work = 0.0
        for eps, ic, traj, err in out:
            if not gate.check(err is None, f"run_comp eps={eps:g}: {err}"):
                continue
            diags = traj.diagnostics
            mass0 = float(np.dot(mesh.cell_vol, ic.rho.values))
            drift = max(abs(d.mass - mass0) for d in diags) / mass0
            gate.check(drift <= MASS_DRIFT_TOL,
                       f"eps={eps:g}: relative mass drift {drift:.3e}")
            gate.check(all(d.rho_min > 0.0 for d in diags),
                       f"eps={eps:g}: non-positive density")
            gate.check(all(d.energy_ok for d in diags),
                       f"eps={eps:g}: energy inequality violated")
            work += mesh.ncells * len(diags)
        return work


class LimitProjection:
    """run_incomp on the largest grid that fits a few seconds."""

    threads = 1

    def __init__(self, sizes):
        self.grid = sizes["incomp_grid"]

    def setup(self, seed: int, phases=None):
        phases = shear_phases(seed) if phases is None else phases
        mesh = square_mesh(self.grid)
        return mesh, incompressible.init_incomp(incomp_data(phases[0]), mesh)

    def body(self, ctx):
        mesh, ic = ctx
        return _attempt(incompressible.run_incomp,
                        incompressible.IncompConfig(), mesh, ic)

    def verify(self, ctx, out, gate: Gate) -> float:
        traj, err = out
        if not gate.check(err is None, f"run_incomp: {err}"):
            return 0.0
        diags = traj.diagnostics
        worst = max(d.div_residual for d in diags)
        gate.check(worst <= DIV_RESIDUAL_TOL,
                   f"div_residual {worst:.3e} above {DIV_RESIDUAL_TOL:g}")
        gate.check(all(d.energy_ok for d in diags),
                   "kinetic energy grew")
        return ctx[0].ncells * len(diags)


def w1_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-(component, cell) W1 of equal-weight samples along axis 0.

    The empirical quantile functions are step functions on the grid of
    multiples of 1/lcm(n, m), so W1 is the mean gap over that grid; for
    n = m it is the mean |a - b| of the sorted samples.
    """
    a, b = np.sort(a, axis=0), np.sort(b, axis=0)
    n, m = len(a), len(b)
    lcm = n * m // math.gcd(n, m)
    steps = np.arange(lcm)
    return np.abs(a[steps * n // lcm] - b[steps * m // lcm]).mean(axis=0)


class StatsEnsemble:
    """Refinement statistics on seeded synthetic nested sequences."""

    labels = ("rho", "m1", "m2")
    time = 0.02
    threads = 1

    def __init__(self, sizes):
        self.base, self.levels = sizes["stats_base"], sizes["stats_levels"]

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        meshes = [square_mesh(self.base * 2**j) for j in range(self.levels)]
        phases = rng.uniform(0.0, TWO_PI, 3)
        sequences = []
        for _ in range(2):      # the sequence and its reference
            members = []
            for j, mesh in enumerate(meshes):
                x, y = mesh.cell_x[:, 0], mesh.cell_x[:, 1]
                noise = 0.05 * 2.0**-j * rng.standard_normal((3, mesh.ncells))
                smooth = np.stack([
                    1.0 + 0.2 * np.sin(TWO_PI * (x + y) + phases[0]),
                    np.sin(TWO_PI * (x - y) + phases[1]),
                    np.cos(TWO_PI * (x + 2.0 * y) + phases[2])])
                members.append(analysis.Snapshot(mesh, smooth + noise,
                                                 self.labels))
            sequences.append(members)
        return sequences

    def _density_trajectory(self, ens):
        mesh = ens.mesh
        states = []
        for idx, snap in enumerate(ens.members):
            rho = snap.data[0]
            u = (snap.data[1:] / rho).T
            states.append(compressible.CompState(
                t=float(idx), rho=CellScalar(mesh, rho), u=CellVector(mesh, u)))
        return compressible.Trajectory(mesh=mesh, times=[s.t for s in states],
                                       states=states, diagnostics=[])

    def body(self, ctx):
        seq, ref_seq = ctx
        ref = analysis.make_ensemble(ref_seq, self.time)
        reports = []
        for k in range(1, len(seq) + 1):
            ens = analysis.make_ensemble(seq[:k], self.time)
            reports.append((ens,) + _attempt(analysis.error_suite, ens, ref))
        analysis.cesaro(ens)
        analysis.first_variance(ens)
        analysis.density_deviation(self._density_trajectory(ref), 1.0, 2.0)
        return ref, reports

    def verify(self, ctx, out, gate: Gate) -> float:
        ref, reports = out
        ref_samples = np.stack([m.data for m in ref.members])
        work = 0.0
        for ens, rep, err in reports:
            k = len(ens.members)
            if not gate.check(err is None, f"error_suite k={k}: {err}"):
                continue
            samples = np.stack([m.data for m in ens.members])
            expect = float((w1_reference(samples, ref_samples)
                            @ ens.mesh.cell_vol).sum())
            gate.check(abs(rep.E4 - expect) <= E4_RTOL * abs(expect),
                       f"error_suite k={k}: E4 {rep.E4!r} vs {expect!r}")
            work += ens.mesh.ncells * len(ens.labels)
        return work


def read_table(path: Path):
    """Header and rows of a CSV written by apeuler.output."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader]


def bundle_snapshot(outdir: Path) -> dict:
    """Manifest rows and table values of a convergence-study bundle."""
    manifests, tables = {}, {}
    for manifest in sorted(outdir.glob("*/manifest.csv")):
        sub = manifest.parent.name
        manifests[sub] = [row[0] for row in read_table(manifest)[1]]
        for table in sorted((manifest.parent / "tables").glob("*.csv")):
            header, rows = read_table(table)
            tables[f"{sub}/tables/{table.name}"] = {
                "columns": header,
                "rows": [[float(v) for v in row] for row in rows]}
    return {"manifests": manifests, "tables": tables}


def _close(value: float, ref: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= TABLE_RTOL * abs(ref) + TABLE_ATOL * scale


def compare_tables(got: dict, want: dict, gate: Gate) -> None:
    gate.check(sorted(got) == sorted(want),
               f"table files differ: {sorted(set(got) ^ set(want))}")
    for name in sorted(want):
        table = got.get(name)
        ref = want[name]
        ok = (table is not None and table["columns"] == ref["columns"]
              and len(table["rows"]) == len(ref["rows"]))
        if ok:
            cols = np.array(ref["rows"], dtype=float).reshape(
                len(ref["rows"]), len(ref["columns"]))
            scale = np.nanmax(np.abs(cols), axis=0, initial=0.0)
            ok = all(_close(v, r, s)
                     for row, ref_row in zip(table["rows"], ref["rows"])
                     for v, r, s in zip(row, ref_row, scale))
        gate.check(ok, f"table {name} outside tolerance of the reference")


class StudyBundle:
    """The CLI convergence study, in process, with two sweep workers."""

    threads = 2     # the config's workers

    def __init__(self, size: str, scratch: Path):
        self.size = size
        self.text = BUNDLE_CONFIGS[size]
        self.scratch = scratch

    def setup(self, seed: int):
        """Write the config and let the CLI parse and echo it, as a user
        does before a long study."""
        path = self.scratch / "study.cfg"
        path.write_text(self.text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(path), "--print-config"])
        if code != 0:
            raise RuntimeError(f"study config rejected (exit code {code})")
        return path

    def body(self, path):
        outdir = Path(tempfile.mkdtemp(prefix="bundle-", dir=self.scratch))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _attempt(cli.main, ["run", "--config", str(path),
                                       "--out", str(outdir)])
        return outdir, code, err.getvalue()

    def verify(self, path, out, gate: Gate) -> float:
        outdir, (code, exc), err = out
        try:
            gate.check(exc is None and code == 0,
                       f"apeuler run exited with {code} ({exc})")
            failed = [ln for ln in err.splitlines() if ln.startswith("failed:")]
            gate.check(not failed, f"bundle failures: {failed}")
            want = json.loads(REFERENCE.read_text())[self.size]
            got = bundle_snapshot(outdir)
            for sub, rows in sorted(want["manifests"].items()):
                gate.check(got["manifests"].get(sub) == rows,
                           f"manifest {sub} rows differ from the reference")
            compare_tables(got["tables"], want["tables"], gate)
            work = 0.0
            for rundir in outdir.glob("*/runs/*"):
                steps = len(read_table(rundir / "diagnostics.csv")[1])
                cells = len(read_table(rundir / "fields_final.csv")[1])
                work += steps * cells
            return work
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


def make_workload(name: str, size: str = "full", scratch: Path | None = None):
    sizes = SIZES[size]
    if name == "comp_mach":
        return CompMach(sizes)
    if name == "limit_projection":
        return LimitProjection(sizes)
    if name == "stats_ensemble":
        return StatsEnsemble(sizes)
    return StudyBundle(size, scratch)


WORKLOADS = ("comp_mach", "limit_projection", "study_bundle", "stats_ensemble")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed loop of gathers and arithmetic on 64^2-element arrays, the
    kind of small numpy work apeuler's kernels do.  It exercises no code of
    the package, so a change to apeuler cannot move it.  It runs on as many
    threads as the body it calibrates, each thread doing the whole loop."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.ref_s = CAL_REF_S[threads]
        rng = np.random.default_rng(0)
        n = 64 * 64
        self.a = rng.standard_normal(n)
        self.i1 = rng.permutation(n)
        self.i2 = np.roll(np.arange(n), 1)
        self.samples: list[float] = []

    def samples_for(self, seconds: float) -> list[float]:
        """At least CAL_MIN_SAMPLES samples, more until ``seconds`` pass."""
        taken = []
        start = time.perf_counter()
        while (len(taken) < CAL_MIN_SAMPLES
               or time.perf_counter() - start < seconds):
            taken.append(self.sample())
        return taken

    def _loop(self) -> None:
        a, i1, i2 = self.a, self.i1, self.i2
        for _ in range(CAL_ITERS):
            g = a[i1] - a[i2]
            float((0.5 * g[i2] + g).max())

    def sample(self) -> float:
        workers = [threading.Thread(target=self._loop)
                   for _ in range(self.threads - 1)]
        t0 = time.perf_counter()
        for worker in workers:
            worker.start()
        self._loop()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def timed_setup(workload, seed: int, cal: Calibration):
    """Set up repeatedly, each time after one calibration sample.  Returns
    the last context, the raw set-up times and the corrected ones."""
    times, corrected, ctx = [], [], None
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or (len(times) < SETUP_MAX_REPS
               and time.perf_counter() - start < SETUP_BUDGET_S)):
        ctx = None      # release the previous set-up before building anew
        c = cal.sample()
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        corrected.append(times[-1] / c * cal.ref_s)
    return ctx, times, corrected


def _repeat(seconds: float, step) -> None:
    """Call ``step`` while the next call is expected to end within
    ``seconds``; at least once."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def measure(workload, ctx, seconds: float, gate: Gate, cal=None):
    """Repeat and check the body.  Returns raw body times, work per body,
    and (with ``cal``) body times corrected for machine-speed drift."""
    times, works, corrected = [], [], []

    def step():
        span = CAL_SHARE * times[-1] if times else 0.0
        before = cal.samples_for(span) if cal is not None else []
        t0 = time.perf_counter()
        out = workload.body(ctx)
        t1 = time.perf_counter()
        if cal is not None:
            c = statistics.median(before + cal.samples_for(span))
            corrected.append((t1 - t0) / c * cal.ref_s)
        times.append(t1 - t0)
        works.append(workload.verify(ctx, out, gate))

    _repeat(seconds, step)
    return times, works, corrected


def measure_traced(workload, seed: int, seconds: float, gate: Gate,
                   tracer: Tracer) -> list:
    """Repeat set-up and body under the tracer, so the spans cover one
    set-up and one body per repetition.  Returns the body times."""
    times = []

    def step():
        with tracer.span("bench.setup"):
            ctx = workload.setup(seed)
        with tracer.span("bench.body"):
            t0 = time.perf_counter()
            out = workload.body(ctx)
            t1 = time.perf_counter()
        times.append(t1 - t0)
        workload.verify(ctx, out, gate)

    _repeat(seconds, step)
    return times


def end_to_end(times, works, setup_times, gate: Gate) -> dict:
    """Medians of drift-corrected times (see CAL_REF_S)."""
    rates = [w / t for w, t in zip(works, times)]
    return {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cell_updates_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (1.0 - gate.failed / max(gate.attempted, 1), "ratio"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

#: functions reported with calls and self time
CALL_METRICS = (
    "operators.grad_values", "operators.div_values",
    "operators.div_upwind_values", "operators.edge_normal_values",
    "operators.split_advective_velocity", "operators.laplace_values",
    "linsolve.solve_transport", "linsolve.solve_deflated_spd",
    "compressible.comp_step", "compressible.comp_dt",
    "compressible.density_picard", "compressible.velocity_update",
    "compressible.total_energy", "compressible.total_entropy",
    "incompressible.incomp_step", "incompressible.incomp_dt",
    "incompressible.pressure_solve", "incompressible.pressure_kernel_basis",
    "analysis.error_suite", "analysis.w1_empirical", "analysis.make_ensemble",
    "analysis.restrict_values", "analysis.cesaro", "analysis.first_variance",
    "analysis.density_deviation",
    "output.write_csv", "output.write_field_csv",
)
#: functions reported with self time only
SELF_METRICS = ("operators.project", "harness.run_experiment", "mesh.Mesh",
                "config.parse_config_text", "cli.main")
#: counters summed per body
COUNT_METRICS = (
    ("linsolve.solve_transport.iters", "count"),
    ("linsolve.solve_transport.fail", "count"),
    ("linsolve.solve_deflated_spd.iters", "count"),
    ("linsolve.solve_deflated_spd.fail", "count"),
    ("linsolve.operator_applies", "count"),
    ("compressible.picard_sweeps", "count"),
    ("output.write_csv.bytes", "B"),
    ("output.write_field_csv.bytes", "B"),
)
PERCENTILE_METRICS = ("compressible.comp_step", "incompressible.incomp_step")
DERIVED_METRICS = (
    ("compressible.krylov_per_sweep", "ratio"),
    ("compressible.picard_confirm_frac", "ratio"),
    ("harness.sweep_parallel_eff", "ratio"),
    ("harness.sweep_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bench_self_s", "s"),
)
RUN_SPANS = ("compressible.run_comp", "incompressible.run_incomp")
BENCH_SPANS = ("bench.setup", "bench.body")


def per_layer_units() -> dict:
    units = {}
    for name in CALL_METRICS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SELF_METRICS:
        units[name + ".self_s"] = "s"
    for name in PERCENTILE_METRICS:
        units[name + ".p50_ms"] = "ms"
        units[name + ".p90_ms"] = "ms"
    units.update(COUNT_METRICS)
    units.update(DERIVED_METRICS)
    return units


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _percentile_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(durations, q)) * 1e3


def layer_metrics(tracer: Tracer, reps: int, traced: list, untraced: list) -> dict:
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    counters = tracer.counters
    values = {}
    for name in CALL_METRICS:
        values[name + ".calls"] = len(by_name[name]) / reps
    for name in CALL_METRICS + SELF_METRICS:
        values[name + ".self_s"] = sum(s.self_s for s in by_name[name]) / reps
    for name in PERCENTILE_METRICS:
        durations = [s.duration for s in by_name[name]]
        values[name + ".p50_ms"] = _percentile_ms(durations, 50)
        values[name + ".p90_ms"] = _percentile_ms(durations, 90)
    for key, _ in COUNT_METRICS:
        values[key] = counters[key] / reps

    sweeps = counters["compressible.picard_sweeps"]
    krylov_sweeps = len(by_name["linsolve.solve_transport"])
    values["compressible.krylov_per_sweep"] = (
        counters["linsolve.solve_transport.iters"] / sweeps if sweeps else 0.0)
    values["compressible.picard_confirm_frac"] = (
        (sweeps - krylov_sweeps) / sweeps if sweeps else 0.0)

    runs = [s for name in RUN_SPANS for s in by_name[name]]
    sweep_wall = _union_length((s.start, s.end) for s in runs)
    workers = len({s.thread for s in runs})
    values["harness.sweep_wall_s"] = sweep_wall / reps
    values["harness.sweep_parallel_eff"] = (
        sum(s.cpu_s for s in runs) / (workers * sweep_wall) if runs else 0.0)

    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.bench_self_s"] = sum(
        s.self_s for name in BENCH_SPANS for s in by_name[name]) / reps
    units = per_layer_units()
    return {name: (values[name], units[name]) for name in units}


def check_self_times(tracer: Tracer, gate: Gate) -> None:
    """Self times of the benchmark thread's spans must add up to the traced
    set-up and body time."""
    main = threading.get_ident()
    self_sum = sum(s.self_s for s in tracer.spans if s.thread == main)
    wall = sum(s.duration for s in tracer.spans if s.name in BENCH_SPANS)
    gate.check(abs(self_sum - wall) <= 1e-6 * wall,
               f"self times sum to {self_sum!r}, traced wall {wall!r}")


# ---------------------------------------------------------------------------
# machine record and entry point
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


@dataclass
class Outcome:
    """What one invocation measured: the printed result plus the raw
    repetition times behind its medians."""

    result: dict
    gate: Gate
    tracer: Tracer | None
    raw: dict


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, size: str = "full") -> Outcome:
    workload = make_workload(name, size, scratch)
    gate = Gate()
    cal = Calibration(workload.threads)
    ctx, setup_times, setup_corrected = timed_setup(workload, seed, cal)
    tracer, traced = None, []
    if not trace:
        times, works, corrected = measure(workload, ctx, seconds, gate, cal)
        metrics = end_to_end(corrected, works, setup_corrected, gate)
    else:
        start = time.perf_counter()
        times, _, _ = measure(workload, ctx, seconds / 3.0, gate)
        left = seconds - (time.perf_counter() - start)
        with Tracer() as tracer:
            traced = measure_traced(workload, seed, left, gate, tracer)
        check_self_times(tracer, gate)
        metrics = layer_metrics(tracer, len(traced), traced, times)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    raw = {"setup_s": setup_times, "body_s": times, "traced_body_s": traced,
           "calibration_s": cal.samples}
    return Outcome(result, gate, tracer, raw)


def write_trace(path: Path, machine: dict, tracer: Tracer) -> None:
    """Write the spans of the last traced repetition (set-up and body)."""
    first = max(s.sid for s in tracer.spans if s.name == "bench.setup")
    threads = {}
    spans = [[s.sid, s.parent, s.name, threads.setdefault(s.thread, len(threads)),
              s.start, s.end, s.self_s] for s in tracer.spans if s.sid >= first]
    path.write_text(json.dumps({
        "machine": machine,
        "counters_all_repetitions": dict(tracer.counters),
        "span_fields": ["id", "parent", "name", "thread", "start", "end",
                        "self_s"],
        "spans": spans,
    }))


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = root / ".perfbench"
    outdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=outdir))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    machine = machine_info()
    for failure in outcome.gate.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    if outcome.tracer is not None:
        write_trace(outdir / f"trace_{args.workload}_seed{args.seed}.json",
                    machine, outcome.tracer)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": machine, "raw_times": outcome.raw}))
    print(json.dumps(outcome.result))
    return 0
