"""Sweep orchestration and CLI: file layout, manifest completeness, one run
per sweep cell, determinism across reruns and worker counts, failure
isolation, exit codes, the CLI's one BLAS thread per process, and the
package names the benchmark tracer wraps."""

import ast
import concurrent.futures
import dataclasses
import faulthandler
import importlib.util
import multiprocessing
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import apeuler.cli as cli
import apeuler.harness as harness
from apeuler.compressible import StepDiagnostics, total_entropy
from apeuler.config import (ExperimentConfig, config_hash, parse_config_text,
                            render_config)
from apeuler.harness import OutputBundle, run_experiment
from apeuler.incompressible import IncompStepDiagnostics
from apeuler.output import format_value
from record_digests import STUDY_BUNDLE, TINY

SMALLEST = ("grids = 4\nref_grid = 8\neps = 1.0\n"
            "t_final = 0.001\noutput_count = 2\n")


def _cfg(text, outdir, extra=""):
    return parse_config_text(text + f"outdir = {outdir}\n" + extra)


def _manifest_entries(outdir: Path) -> list[str]:
    lines = (outdir / "manifest.csv").read_text().splitlines()
    assert lines[1] == "file"
    return lines[2:]


# ---------------------------------------------------------------------------
# study layouts
# ---------------------------------------------------------------------------

def test_study_a_layout_and_manifest(tmp_path):
    cfg = _cfg(TINY, tmp_path / "a")
    bundle = run_experiment(cfg)
    assert not bundle.failures
    out = bundle.outdir

    for g in (4, 8, 16):
        assert (out / "runs" / f"incomp_k{g}" / "diagnostics.csv").exists()
        for tag in ("1", "0.01"):
            rundir = out / "runs" / f"comp_k{g}_eps{tag}"
            for name in ("diagnostics.csv", "fields_final.csv",
                         "density_deviation.csv"):
                assert (rundir / name).exists()
        assert (out / "tables" / f"density_sup_k{g}.csv").exists()
        assert (out / "tables" / f"velocity_gap_k{g}.csv").exists()
    for tag in ("1", "0.01"):
        assert (out / "tables" / f"errors_comp_eps{tag}.csv").exists()
    assert (out / "tables" / "div_residual.csv").exists()

    entries = _manifest_entries(out)
    assert entries == sorted(entries)
    listed = {out / e for e in entries}
    written = {p for p in bundle.files if p.name != "manifest.csv"}
    assert listed == written
    # every file carries the config hash
    for p in bundle.files:
        assert p.read_text().splitlines()[0] == f"# config_hash={bundle.config_hash}"


def test_study_b_layout_and_tables(tmp_path):
    cfg = _cfg(TINY, tmp_path / "b", extra="mode = incompressible\n")
    bundle = run_experiment(cfg)
    assert not bundle.failures
    out = bundle.outdir

    for g in (4, 8, 16):
        assert (out / "runs" / f"incomp_k{g}" / "fields_final.csv").exists()
    # the cross-scheme comparison runs on the finest sweep grid only
    for tag in ("1", "0.01"):
        assert (out / "runs" / f"comp_k8_eps{tag}" / "diagnostics.csv").exists()
    tables = out / "tables"
    for name in ("errors_incomp.csv", "rel_energy_refine.csv", "eoc.csv",
                 "cross_scheme_rel_energy.csv"):
        assert (tables / name).exists()

    eoc_lines = (tables / "eoc.csv").read_text().splitlines()
    assert eoc_lines[1] == "k,error_l2,eoc"
    rows = [line.split(",") for line in eoc_lines[2:]]
    assert [r[0] for r in rows] == ["4", "8"]
    assert rows[0][2] == "nan"
    assert float(rows[0][1]) > float(rows[1][1]) > 0.0

    cross = (tables / "cross_scheme_rel_energy.csv").read_text().splitlines()
    vals = [float(line.split(",")[1]) for line in cross[2:]]
    assert len(vals) == 2 and vals[0] > vals[1] > 0.0


def test_tables_are_the_row_functions_written_out(tmp_path, monkeypatch):
    # each table file is its row function's (columns, rows) on the sweep's
    # results; .17g round-trips float64, so equality is exact (nan == nan)
    swept = {}
    real = harness._sweep

    def sweep(cfg, cells):
        swept["results"], failures = real(cfg, cells)
        return swept["results"], failures

    monkeypatch.setattr(harness, "_sweep", sweep)
    cfg = _cfg(TINY, tmp_path / "t", extra="mode = convergence_study\n")
    bundle = run_experiment(cfg)
    assert not bundle.failures
    trajs = {key: traj for key, (traj, _) in swept["results"].items()}
    for sub, tables_fn in (("comp", harness._comp_tables),
                           ("incomp", harness._incomp_tables)):
        tables = dict(tables_fn(cfg, trajs))
        tabledir = bundle.outdir / sub / "tables"
        assert sorted(p.name for p in tabledir.iterdir()) == sorted(tables)
        for name, (columns, rows) in tables.items():
            lines = (tabledir / name).read_text().splitlines()
            assert lines[1].split(",") == columns
            parsed = [[float(v) for v in line.split(",")] for line in lines[2:]]
            assert rows
            np.testing.assert_array_equal(np.array(parsed, dtype=float),
                                          np.array(rows, dtype=float))


def test_cross_energy_rows_are_total_entropy_against_the_limit():
    # each row is the final compressible state's relative energy against
    # the final limit velocity, computed by the scheme module, bit for bit
    cfg = parse_config_text(TINY)
    grid = cfg.grids[-1]
    results = {key: harness._job(cfg, key) for key in
               [("incomp", grid)] + [("comp", grid, e) for e in cfg.eps]}
    v = results[("incomp", grid)].states[-1].v
    finals = [results[("comp", grid, e)].states[-1] for e in cfg.eps]
    assert harness.cross_energy_rows(results, grid, cfg.eps, cfg.gamma) == (
        ["eps", "rel_energy"],
        [(e, total_entropy(s.rho, s.u, e, cfg.gamma, v))
         for e, s in zip(cfg.eps, finals)])


def test_run_files_are_the_trajectories_written_out(tmp_path, monkeypatch):
    # for both schemes, diagnostics.csv has the diagnostics dataclass's
    # fields without a default as header and each step's values of them
    # through format_value as rows; fields_final.csv holds the final state
    swept = {}
    real = harness._sweep

    def sweep(cfg, cells):
        swept["results"], failures = real(cfg, cells)
        return swept["results"], failures

    monkeypatch.setattr(harness, "_sweep", sweep)
    bundle = run_experiment(_cfg(SMALLEST, tmp_path / "r",
                                 extra="mode = convergence_study\n"))
    assert not bundle.failures
    checked = Counter()
    for key, (traj, rel) in swept["results"].items():
        final = traj.states[-1]
        if key[0] == "comp":
            schema, names = StepDiagnostics, ["diagnostics.csv",
                                              "fields_final.csv",
                                              "density_deviation.csv"]
            m = final.rho.values[:, None] * final.u.values
            fields = {"rho": final.rho.values, "m1": m[:, 0], "m2": m[:, 1],
                      "u1": final.u.values[:, 0], "u2": final.u.values[:, 1]}
        else:
            schema, names = IncompStepDiagnostics, ["diagnostics.csv",
                                                    "fields_final.csv"]
            fields = {"v1": final.v.values[:, 0], "v2": final.v.values[:, 1],
                      "pi": final.pi.values}
        assert [r.name for r in rel] == names
        columns = [f.name for f in dataclasses.fields(schema)
                   if f.default is dataclasses.MISSING]
        for sub in ("comp", "incomp"):
            rundir = bundle.outdir / sub / rel[0].parent
            if not rundir.is_dir():
                continue
            lines = (rundir / "diagnostics.csv").read_text().splitlines()
            assert lines[1].split(",") == columns
            assert lines[2:] == [",".join(format_value(getattr(d, c))
                                          for c in columns)
                                 for d in traj.diagnostics]
            lines = (rundir / "fields_final.csv").read_text().splitlines()
            assert lines[1].split(",") == ["i", "j", "x", "y", *fields]
            parsed = np.array([[float(v) for v in line.split(",")[4:]]
                               for line in lines[2:]])
            np.testing.assert_array_equal(
                parsed, np.column_stack(list(fields.values())))
            checked[key[0]] += 1
    # the shared cells are checked in both bundles
    assert checked == {"comp": 3, "incomp": 4}


def test_run_experiment_dispatch(tmp_path):
    cfg = _cfg(SMALLEST, tmp_path / "c", extra="mode = convergence_study\n")
    bundle = run_experiment(cfg)
    assert not bundle.failures
    assert (tmp_path / "c" / "comp" / "manifest.csv").exists()
    assert (tmp_path / "c" / "incomp" / "manifest.csv").exists()
    assert (tmp_path / "c" / "incomp" / "tables" / "errors_incomp.csv").exists()
    names = {p.name for p in bundle.files}
    assert "eoc.csv" in names and "div_residual.csv" in names
    # both sub-bundles carry the one hash of the config that was run
    assert bundle.config_hash == config_hash(cfg)
    written = sorted((tmp_path / "c").rglob("*.csv"))
    assert {p.parent.relative_to(tmp_path / "c").parts[0]
            for p in written} == {"comp", "incomp"}
    for p in written:
        assert p.read_text().startswith(f"# config_hash={config_hash(cfg)}\n")


def _append(path: Path, value) -> None:
    """Append ``value``'s repr to ``path`` as one line: a call counted in a
    forked worker reaches the parent this way."""
    with path.open("a", encoding="utf-8") as log:
        log.write(f"{value!r}\n")


def _appended(path: Path) -> Counter:
    """How often each value was appended to ``path`` by ``_append``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return Counter(ast.literal_eval(line) for line in lines)


def test_convergence_study_runs_each_cell_once(tmp_path, monkeypatch):
    # both studies need the limit runs on every grid and the compressible
    # run on the finest sweep grid; each cell still runs once, in a forked
    # worker that appends each call to a file
    jobs, renders = tmp_path / "jobs.txt", tmp_path / "renders.txt"
    real = harness._job

    def job(cfg, key):
        _append(jobs, key)
        return real(cfg, key)

    monkeypatch.setattr(harness, "_job", job)
    # ... and renders its run files once, the shared ones copied byte for
    # byte into the second bundle
    real_fields = harness.write_field_csv

    def write_fields(path, *args):
        _append(renders, path.parent.name)
        return real_fields(path, *args)

    monkeypatch.setattr(harness, "write_field_csv", write_fields)
    bundle = run_experiment(_cfg(SMALLEST, tmp_path / "n",
                                 extra="mode = convergence_study\n"))
    assert not bundle.failures
    calls, fields = _appended(jobs), _appended(renders)
    assert calls == {("incomp", 4): 1, ("incomp", 8): 1,
                     ("comp", 4, 1.0): 1, ("comp", 8, 1.0): 1}
    assert fields == {"incomp_k4": 1, "incomp_k8": 1, "comp_k4_eps1": 1,
                      "comp_k8_eps1": 1}
    comp_runs, incomp_runs = (tmp_path / "n" / sub / "runs"
                              for sub in ("comp", "incomp"))
    shared = sorted(p.name for p in incomp_runs.iterdir())
    assert shared == ["comp_k4_eps1", "incomp_k4", "incomp_k8"]
    for name in shared:
        files = sorted(p.name for p in (comp_runs / name).iterdir())
        assert files == sorted(p.name for p in (incomp_runs / name).iterdir())
        for f in files:
            assert ((comp_runs / name / f).read_bytes()
                    == (incomp_runs / name / f).read_bytes())


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["compressible", "incompressible",
                                  "convergence_study"])
def test_rerun_is_byte_identical(tmp_path, mode):
    cfg = _cfg(SMALLEST, tmp_path / "d", extra=f"mode = {mode}\n")
    first = run_experiment(cfg)
    snapshot = {p: p.read_bytes() for p in first.files}
    second = run_experiment(cfg)
    assert set(second.files) == set(snapshot)
    for p, payload in snapshot.items():
        assert p.read_bytes() == payload


@pytest.mark.parametrize("mode", ["compressible", "incompressible",
                                  "convergence_study"])
def test_worker_count_does_not_change_results(tmp_path, mode):
    # neither outdir nor workers enters the config hash, so whole files match
    b1 = run_experiment(_cfg(TINY, tmp_path / "w1",
                             extra=f"mode = {mode}\nworkers = 1\n"))
    b3 = run_experiment(_cfg(TINY, tmp_path / "w3",
                             extra=f"mode = {mode}\nworkers = 3\n"))
    assert not b1.failures and not b3.failures
    rel1 = {p.relative_to(b1.outdir): p for p in b1.files}
    rel3 = {p.relative_to(b3.outdir): p for p in b3.files}
    assert rel1.keys() == rel3.keys()
    for rel, p1 in rel1.items():
        assert p1.read_bytes() == rel3[rel].read_bytes(), \
            f"{rel} differs between worker counts"


# ---------------------------------------------------------------------------
# failure isolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, subdirs, failed_grids, workers", [
    pytest.param("compressible", [""], [4, 8, 16], 1, id="compressible"),
    # the comp bundle needs eps = 0.01 on every grid, the incomp bundle on
    # its finest sweep grid; each study lists the failures of its own cells
    pytest.param("convergence_study", ["comp", "incomp"], [4, 8, 16, 8], 1,
                 id="convergence_study"),
    # forked workers inherit the monkeypatch
    pytest.param("compressible", [""], [4, 8, 16], 2,
                 id="compressible-workers2"),
    pytest.param("convergence_study", ["comp", "incomp"], [4, 8, 16, 8], 2,
                 id="convergence_study-workers2"),
])
def test_sweep_cell_failure_is_isolated(tmp_path, monkeypatch, mode, subdirs,
                                        failed_grids, workers):
    real = harness._job

    def flaky(cfg, key):
        if key[0] == "comp" and key[2] < 0.1:
            raise RuntimeError("synthetic cell failure")
        return real(cfg, key)

    monkeypatch.setattr(harness, "_job", flaky)
    cfg = _cfg(TINY, tmp_path / "f",
               extra=f"mode = {mode}\nworkers = {workers}\n")
    bundle = run_experiment(cfg)

    assert bundle.failures == [f"comp k={g} eps=0.01: synthetic cell failure"
                               for g in failed_grids]
    out = bundle.outdir / subdirs[0]
    # surviving cells still wrote their outputs and tables
    assert (out / "runs" / "comp_k8_eps1" / "diagnostics.csv").exists()
    assert (out / "tables" / "errors_comp_eps1.csv").exists()
    assert not (out / "tables" / "errors_comp_eps0.01.csv").exists()
    for sub in subdirs:
        assert (bundle.outdir / sub / "manifest.csv").exists()
    if mode == "convergence_study":
        cross = (bundle.outdir / "incomp" / "tables"
                 / "cross_scheme_rel_energy.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in cross[2:]] == ["1"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_file_write_failure_fails_its_cell_in_every_bundle(
        tmp_path, monkeypatch, workers):
    # the shared cell comp k=8 eps=0.01 fails while writing its run files,
    # after its diagnostics; both bundles report it and hold and list none
    # of its files, and every other cell, table and manifest is still
    # written
    real = harness.write_field_csv

    def failing(path, *args):
        if path.parent.name == "comp_k8_eps0.01":
            raise OSError("synthetic write failure")
        return real(path, *args)

    monkeypatch.setattr(harness, "write_field_csv", failing)
    bundle = run_experiment(_cfg(TINY, tmp_path / "wf",
                                 extra=f"mode = convergence_study\n"
                                       f"workers = {workers}\n"))
    assert bundle.failures == ["comp k=8 eps=0.01: synthetic write failure"] * 2

    comp_names = ("diagnostics.csv", "fields_final.csv",
                  "density_deviation.csv")
    incomp_names = ("diagnostics.csv", "fields_final.csv")
    runs = {"comp": [f"comp_k{g}_eps{tag}" for g in (4, 8, 16)
                     for tag in ("1", "0.01")],
            "incomp": ["comp_k8_eps1", "comp_k8_eps0.01"]}
    for sub in ("comp", "incomp"):
        out = bundle.outdir / sub
        entries = set(_manifest_entries(out))
        assert all((out / e).is_file() for e in entries)
        expected = {f"runs/incomp_k{g}/{n}" for g in (4, 8, 16)
                    for n in incomp_names}
        expected |= {f"runs/{run}/{n}" for run in runs[sub]
                     if run != "comp_k8_eps0.01" for n in comp_names}
        assert {e for e in entries if e.startswith("runs/")} == expected
        assert not (out / "runs" / "comp_k8_eps0.01").exists()
    assert (bundle.outdir / "comp" / "tables" / "errors_comp_eps1.csv").exists()
    assert not (bundle.outdir / "comp" / "tables"
                / "errors_comp_eps0.01.csv").exists()
    cross = (bundle.outdir / "incomp" / "tables"
             / "cross_scheme_rel_energy.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in cross[2:]] == ["1"]


@pytest.mark.parametrize("workers", [1, 2])
def test_rerun_removes_run_files_of_a_cell_that_now_fails(
        tmp_path, monkeypatch, workers):
    # a first run writes the shared cell comp k=8 eps=0.01 into both
    # bundles; a rerun into the same directory in which that cell fails
    # leaves no run files of it in either, and rewrites the others
    cfg = _cfg(TINY, tmp_path / "re",
               extra=f"mode = convergence_study\nworkers = {workers}\n")
    first = run_experiment(cfg)
    assert not first.failures
    for sub in ("comp", "incomp"):
        assert (first.outdir / sub / "runs" / "comp_k8_eps0.01"
                / "diagnostics.csv").is_file()

    real = harness._job

    def flaky(cfg, key):
        if key == ("comp", 8, 0.01):
            raise RuntimeError("synthetic cell failure")
        return real(cfg, key)

    monkeypatch.setattr(harness, "_job", flaky)
    bundle = run_experiment(cfg)
    assert bundle.failures == ["comp k=8 eps=0.01: synthetic cell failure"] * 2
    for sub in ("comp", "incomp"):
        runs = bundle.outdir / sub / "runs"
        assert not (runs / "comp_k8_eps0.01").exists()
        assert (runs / "comp_k8_eps1" / "diagnostics.csv").is_file()


def test_dead_worker_fails_its_cells_and_leaves_no_process(tmp_path,
                                                          monkeypatch):
    # a worker that dies outright fails its own cell and every cell still
    # pending with BrokenProcessPool; the sweep returns and reaps the pool
    real = harness._job

    def dying(cfg, key):
        if key == ("comp", 8, 0.01):
            os._exit(1)
        return real(cfg, key)

    monkeypatch.setattr(harness, "_job", dying)
    faulthandler.dump_traceback_later(120, exit=True)   # a hang fails loudly
    try:
        bundle = run_experiment(_cfg(TINY, tmp_path / "x",
                                     extra="workers = 2\n"))
    finally:
        faulthandler.cancel_dump_traceback_later()

    assert any(f.startswith("comp k=8 eps=0.01: ") for f in bundle.failures)
    assert (bundle.outdir / "manifest.csv").exists()
    assert multiprocessing.active_children() == []


def test_dying_cell_with_one_worker_fails_its_cells_not_the_run(tmp_path):
    # with one worker too, a cell whose process dies outright fails itself
    # and every cell after it, and the run still writes its manifest and
    # leaves no process.  The run goes in a child interpreter, so a sweep
    # that dies with its cell fails this test instead of ending pytest
    outdir = tmp_path / "x"
    text = TINY + f"outdir = {outdir}\nworkers = 1\n"
    code = textwrap.dedent(f"""
        import multiprocessing, os
        import apeuler.harness as harness
        from apeuler.config import parse_config_text

        real = harness._job

        def dying(cfg, key):
            if key == ("comp", 8, 0.01):
                os._exit(1)
            return real(cfg, key)

        harness._job = dying
        bundle = harness.run_experiment(parse_config_text({text!r}))
        print([failure.split(": ")[0] for failure in bundle.failures])
        print(multiprocessing.active_children())
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "['comp k=8 eps=0.01', 'incomp k=16', 'comp k=16 eps=1', "
        "'comp k=16 eps=0.01']", "[]"]
    entries = _manifest_entries(outdir)
    assert "runs/comp_k8_eps1/diagnostics.csv" in entries
    assert not any(e.startswith(("runs/comp_k8_eps0.01/", "runs/incomp_k16/"))
                   for e in entries)


def test_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # the fork context starts every worker at the first submit
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for workers in (8, 1):
        cfg = _cfg(SMALLEST, tmp_path / "p", extra=f"workers = {workers}\n")
        results, failures = harness._sweep(cfg, [("incomp", 4), ("incomp", 8)])
        assert sorted(results) == [("incomp", 4), ("incomp", 8)]
        assert not failures
    # ... and one worker is a pool of one, not this process
    assert sizes == [2, 1]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_run_success(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(SMALLEST, encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    assert f"(config {config_hash(parse_config_text(SMALLEST))})" in captured.out
    assert (tmp_path / "out" / "manifest.csv").exists()


def test_cli_pins_one_blas_thread_unless_set():
    # each sweep worker of apeuler run is a process; threaded BLAS calls of
    # two workers would contend for the same cores.  Importing the CLI sets
    # one thread per process and keeps a user's value; the probe prints the
    # variables when numpy is first imported, which is when OpenBLAS reads
    # them.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = textwrap.dedent(f"""
        import os, sys

        class Probe:
            def find_spec(self, name, *args):
                if name == "numpy":
                    print(*map(os.environ.get, {names}))

        sys.meta_path.insert(0, Probe())
        import apeuler.cli
        """)
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def imported_with(**extra):
        return subprocess.run([sys.executable, "-c", code], env=env | extra,
                              capture_output=True, text=True, check=True,
                              timeout=60).stdout.split()

    assert imported_with() == ["1", "1", "1"]
    assert imported_with(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err

    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("grids = 32,48\n", encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file)])
    assert rc == 1

    cfg_file.write_text("transport_max_iter = 10\n", encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file)])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["run", "--workers", "x"], 1),
    (["run", "--no-such-flag"], 1),
    ([], 1),
    (["run", "--help"], 0),
], ids=["bad-workers", "unknown-flag", "no-subcommand", "help"])
def test_cli_usage_error_exit_code(argv, code):
    # a usage error shares the code of a config error; 2 means failed cells
    assert cli.main(argv) == code


def test_cli_scheme_knob_out_of_range_is_config_error(tmp_path, capsys):
    # gamma = 1 is rejected by the per-run configs, even in a study that
    # runs only the limit scheme: the CLI reports a config error before any
    # sweep cell runs
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("mode = incompressible\ngamma = 1.0\n"
                        + SMALLEST, encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "gamma must exceed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--out", "res#1"),
    ("--out", "x\nmode = incompressible"),
    ("--out", " res"),
    ("--grids", "32#,64"),
    ("--eps", "1.0\r0.01"),
    ("--mode", "incompressible\n"),
], ids=["out-hash", "out-newline", "out-space", "grids-hash", "eps-CR",
        "mode-newline"])
def test_cli_override_that_would_not_read_back_is_config_error(
        flag, value, capsys):
    # each override is read as one config line: a '#' would cut it short, a
    # line break would add an assignment and surrounding whitespace would
    # be stripped, so such a value is refused, naming its flag
    assert cli.main(["run", flag, value, "--print-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {flag}: ")


def test_cli_partial_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fake(cfg):
        return OutputBundle(outdir=Path(cfg.outdir), config_hash="h",
                            failures=["comp k=8 eps=0.01: boom"])

    monkeypatch.setattr(cli, "run_experiment", fake)
    rc = cli.main(["run", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "failed: comp k=8" in capsys.readouterr().err


def test_cli_print_defaults_and_config(tmp_path, capsys):
    # without a config file the effective config is the defaults
    assert cli.main(["run", "--print-config"]) == 0
    defaults = capsys.readouterr().out
    assert defaults == render_config(ExperimentConfig())
    # the flag that printed them alone is gone: a usage error
    assert cli.main(["run", "--print-defaults"]) == 1
    capsys.readouterr()

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = incompressible\n" + SMALLEST, encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file), "--mode", "compressible",
                   "--workers", "2", "--print-config"])
    assert rc == 0
    effective = parse_config_text(capsys.readouterr().out)
    # command-line overrides win over the file
    assert effective.mode == "compressible"
    assert effective.workers == 2
    assert effective.grids == (4,)


# ---------------------------------------------------------------------------
# benchmark tracer
# ---------------------------------------------------------------------------

def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps apeuler functions by name; a renamed or
    # deleted one would silently drop out of the benchmark's traced mode
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{layer}"), name, None))]
    assert tracer.TARGETS and not missing


def test_bench_bundle_configs_parse(monkeypatch):
    # perfbench/bench.py drives its study_bundle workload from config texts;
    # a key cut from the config would otherwise only fail inside a benchmark
    here = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))    # as perfbench/run.py sets it
    spec = importlib.util.spec_from_file_location("perfbench_bench",
                                                  here / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    assert bench.BUNDLE_CONFIGS
    for name, text in bench.BUNDLE_CONFIGS.items():
        parse_config_text(text, source=f"BUNDLE_CONFIGS[{name!r}]")
    # the study_bundle digests are of the benchmark's own config, not of a
    # copy that a later edit of either could leave stale
    assert STUDY_BUNDLE == bench.BUNDLE_CONFIGS["full"]
