"""Sweep orchestration and CLI: file layout, manifest completeness, one run
per sweep cell, determinism across reruns and worker counts, failure
isolation, exit codes, and the package names the benchmark tracer wraps."""

import concurrent.futures
import faulthandler
import importlib.util
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import apeuler.cli as cli
import apeuler.harness as harness
from apeuler.config import config_hash, parse_config_text
from apeuler.harness import OutputBundle, run_experiment

TINY = ("grids = 4,8\nref_grid = 16\neps = 1.0,0.01\n"
        "t_final = 0.001\noutput_count = 2\n")
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
    assert bundle.ok
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
    assert bundle.ok
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
    assert bundle.ok
    for sub, tables_fn in (("comp", harness._comp_tables),
                           ("incomp", harness._incomp_tables)):
        tables = dict(tables_fn(cfg, swept["results"]))
        tabledir = bundle.outdir / sub / "tables"
        assert sorted(p.name for p in tabledir.iterdir()) == sorted(tables)
        for name, (columns, rows) in tables.items():
            lines = (tabledir / name).read_text().splitlines()
            assert lines[1].split(",") == columns
            parsed = [[float(v) for v in line.split(",")] for line in lines[2:]]
            assert rows
            np.testing.assert_array_equal(np.array(parsed, dtype=float),
                                          np.array(rows, dtype=float))


def test_run_experiment_dispatch(tmp_path):
    cfg = _cfg(SMALLEST, tmp_path / "c", extra="mode = convergence_study\n")
    bundle = run_experiment(cfg)
    assert bundle.ok
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


def test_convergence_study_runs_each_cell_once(tmp_path, monkeypatch):
    # both studies need the limit runs on every grid and the compressible
    # run on the finest sweep grid; each cell still runs once
    calls = Counter()
    real_comp, real_incomp = harness._comp_job, harness._incomp_job

    def comp(cfg, grid, eps):
        calls[("comp", grid, eps)] += 1
        return real_comp(cfg, grid, eps)

    def incomp(cfg, grid):
        calls[("incomp", grid)] += 1
        return real_incomp(cfg, grid)

    monkeypatch.setattr(harness, "_comp_job", comp)
    monkeypatch.setattr(harness, "_incomp_job", incomp)
    bundle = run_experiment(_cfg(SMALLEST, tmp_path / "n",
                                 extra="mode = convergence_study\n"))
    assert bundle.ok
    assert calls == {("incomp", 4): 1, ("incomp", 8): 1,
                     ("comp", 4, 1.0): 1, ("comp", 8, 1.0): 1}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["compressible", "convergence_study"])
def test_rerun_is_byte_identical(tmp_path, mode):
    cfg = _cfg(SMALLEST, tmp_path / "d", extra=f"mode = {mode}\n")
    first = run_experiment(cfg)
    snapshot = {p: p.read_bytes() for p in first.files}
    second = run_experiment(cfg)
    assert set(second.files) == set(snapshot)
    for p, payload in snapshot.items():
        assert p.read_bytes() == payload


@pytest.mark.parametrize("mode", ["compressible", "convergence_study"])
def test_worker_count_does_not_change_results(tmp_path, mode):
    # neither outdir nor workers enters the config hash, so whole files match
    b1 = run_experiment(_cfg(TINY, tmp_path / "w1",
                             extra=f"mode = {mode}\nworkers = 1\n"))
    b3 = run_experiment(_cfg(TINY, tmp_path / "w3",
                             extra=f"mode = {mode}\nworkers = 3\n"))
    assert b1.ok and b3.ok
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
    # its finest sweep grid; each bundle lists the failures of its own cells
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
    real = harness._comp_job

    def flaky(cfg, grid, eps):
        if eps < 0.1:
            raise RuntimeError("synthetic cell failure")
        return real(cfg, grid, eps)

    monkeypatch.setattr(harness, "_comp_job", flaky)
    cfg = _cfg(TINY, tmp_path / "f",
               extra=f"mode = {mode}\nworkers = {workers}\n")
    bundle = run_experiment(cfg)

    assert not bundle.ok
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


def test_dead_worker_fails_its_cells_and_leaves_no_process(tmp_path,
                                                          monkeypatch):
    # a worker that dies outright fails its own cell and every cell still
    # pending with BrokenProcessPool; the sweep returns and reaps the pool
    real = harness._comp_job

    def dying(cfg, grid, eps):
        if (grid, eps) == (8, 0.01):
            os._exit(1)
        return real(cfg, grid, eps)

    monkeypatch.setattr(harness, "_comp_job", dying)
    faulthandler.dump_traceback_later(120, exit=True)   # a hang fails loudly
    try:
        bundle = run_experiment(_cfg(TINY, tmp_path / "x",
                                     extra="workers = 2\n"))
    finally:
        faulthandler.cancel_dump_traceback_later()

    assert any(f.startswith("comp k=8 eps=0.01: ") for f in bundle.failures)
    assert (bundle.outdir / "manifest.csv").exists()
    assert multiprocessing.active_children() == []


def test_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # the fork context starts every worker at the first submit
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    cfg = _cfg(SMALLEST, tmp_path / "p", extra="workers = 8\n")
    results, failures = harness._sweep(cfg, [("incomp", 4), ("incomp", 8)])
    assert sizes == [2]
    assert sorted(results) == [("incomp", 4), ("incomp", 8)] and not failures


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
    # cfl_fraction > 1 is rejected by the per-run configs: the CLI reports
    # a config error before any sweep cell runs
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("mode = incompressible\ncfl_fraction = 1.5\n"
                        + SMALLEST, encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cfl_fraction must lie in (0,1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_partial_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fake(cfg):
        return OutputBundle(outdir=Path(cfg.outdir), config_hash="h",
                            failures=["comp k=8 eps=0.01: boom"])

    monkeypatch.setattr(cli, "run_experiment", fake)
    rc = cli.main(["run", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "failed: comp k=8" in capsys.readouterr().err


def test_cli_print_defaults_and_config(tmp_path, capsys):
    assert cli.main(["run", "--print-defaults"]) == 0
    defaults = capsys.readouterr().out
    assert parse_config_text(defaults) == parse_config_text("")

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
