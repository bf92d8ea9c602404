"""Self-test of the benchmark at tiny problem sizes.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that injected defects are counted as failures without aborting the run,
and that the tracer sees calls made through every importing module.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracer  # noqa: E402
from apeuler import compressible, linsolve, operators  # noqa: E402
from apeuler.linsolve import SolveReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(name: str, trace: bool, scratch: Path):
    outcome = bench.run_workload(name, seed=3, seconds=0.5, trace=trace,
                                 scratch=scratch, size="tiny")
    result, gate = outcome.result, outcome.gate
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, gate


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, gate = run_tiny(name, trace, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert result["correct"], gate.failures
    if not trace:
        assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_unconverged_transport_solve_is_counted(tmp_path):
    def unconverged(A, b, *args, **kwargs):
        return np.zeros_like(b), SolveReport(1, 1.0, False)

    undo = tracer.rebind(linsolve.solve_transport, unconverged)
    try:
        result, gate = run_tiny("comp_mach", False, tmp_path)
    finally:
        tracer.restore(undo)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any("transport solve failed" in f for f in gate.failures)


def test_sign_flipped_operator_is_counted(tmp_path):
    original = operators.div_values

    def flipped(mesh, w):
        return -original(mesh, w)

    undo = tracer.rebind(original, flipped)
    try:
        result, gate = run_tiny("limit_projection", False, tmp_path)
    finally:
        tracer.restore(undo)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_tracer_rebinds_every_importing_module_and_restores():
    original = operators.grad_values
    with tracer.Tracer() as t:
        assert compressible.grad_values is operators.grad_values
        assert compressible.grad_values is not original
        mesh = bench.square_mesh(4)
        compressible.grad_values(mesh, np.arange(16.0))
        operators.laplace_values(mesh, np.arange(16.0))
    assert operators.grad_values is original
    assert compressible.grad_values is original
    names = [s.name for s in t.spans]
    assert names.count("operators.grad_values") == 2
    laplace = next(s for s in t.spans if s.name == "operators.laplace_values")
    children = [s for s in t.spans if s.parent == laplace.sid]
    assert sorted(s.name for s in children) == ["operators.div_values",
                                                "operators.grad_values"]
    assert laplace.self_s == pytest.approx(
        laplace.duration - sum(s.duration for s in children), abs=1e-12)


def test_same_seed_gives_same_inputs():
    workload = bench.make_workload("stats_ensemble", "tiny")
    a, b = workload.setup(7), workload.setup(7)
    assert all(np.array_equal(x.data, y.data)
               for seq_a, seq_b in zip(a, b) for x, y in zip(seq_a, seq_b))
    assert bench.shear_phases(7) == bench.shear_phases(7)
    assert bench.shear_phases(7) != bench.shear_phases(8)


def test_w1_reference_matches_scipy_for_unequal_counts():
    from scipy.stats import wasserstein_distance
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 1, 5)), rng.standard_normal((4, 1, 5))
    got = bench.w1_reference(a, b)[0]
    want = [wasserstein_distance(a[:, 0, k], b[:, 0, k]) for k in range(5)]
    assert got == pytest.approx(want, rel=1e-13)


def test_unshifted_comp_mach_reproduces_step_and_sweep_counts():
    workload = bench.make_workload("comp_mach")
    ctx = workload.setup(0, phases=(0.0, 0.0))
    with tracer.Tracer() as t:
        out = workload.body(ctx)
    trajs = [traj for _, _, traj, err in out]
    assert [len(traj.diagnostics) for traj in trajs] == [160, 56, 55]
    assert [sum(d.picard_iters for d in traj.diagnostics)
            for traj in trajs] == [474, 117, 56]
    # the per-step field keeps only the accepting sweep's Krylov count
    recorded = sum(d.transport_iters for traj in trajs for d in traj.diagnostics)
    assert t.counters["linsolve.solve_transport.iters"] > recorded


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comp_mach",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
