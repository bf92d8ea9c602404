"""Ensemble statistics and error functionals: restriction, Cesaro averages,
first variances, Wasserstein distances (cross-checked against the transport
LP), and convergence rates."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeuler.analysis import (
    DeviationSeries,
    Ensemble,
    ErrorReport,
    Snapshot,
    cesaro,
    comp_snapshot,
    density_deviation,
    eoc,
    error_suite,
    first_variance,
    incomp_snapshot,
    make_ensemble,
    restrict_snapshot,
    restrict_values,
    w1_empirical,
)
from apeuler.compressible import CompState, Trajectory
from apeuler.incompressible import IncompState
from apeuler.mesh import Mesh, MeshSpec
from conftest import cell_scalar, cell_vector, w1_lp


def _const_snapshot(mesh, value):
    return Snapshot(mesh, np.full((1, mesh.ncells), float(value)), ("q",))


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_validation(mesh4):
    with pytest.raises(ValueError):
        Snapshot(mesh4, np.zeros((2, mesh4.ncells - 1)), ("a", "b"))
    with pytest.raises(ValueError):
        Snapshot(mesh4, np.zeros((2, mesh4.ncells)), ("a",))
    with pytest.raises(ValueError):
        Snapshot(mesh4, np.zeros(mesh4.ncells), ("a",))


def test_comp_snapshot_carries_momentum(mesh4):
    state = CompState(0.0, cell_scalar(mesh4, 2.0), cell_vector(mesh4, (3.0, 4.0)))
    snap = comp_snapshot(state)
    assert snap.labels == ("rho", "m1", "m2")
    np.testing.assert_array_equal(snap.data[0], 2.0)
    np.testing.assert_array_equal(snap.data[1], 6.0)
    np.testing.assert_array_equal(snap.data[2], 8.0)


def test_incomp_snapshot_labels(mesh4):
    state = IncompState(0.0, cell_vector(mesh4, (1.0, -2.0)),
                        cell_scalar(mesh4, 0.0))
    snap = incomp_snapshot(state)
    assert snap.labels == ("v1", "v2")
    np.testing.assert_array_equal(snap.data[0], 1.0)
    np.testing.assert_array_equal(snap.data[1], -2.0)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_block_means(mesh2, mesh4):
    coarse = restrict_values(np.arange(16.0), mesh4, mesh2)
    np.testing.assert_array_equal(coarse, [2.5, 4.5, 10.5, 12.5])


def test_restrict_identity_factor_one(mesh4, rng):
    q = rng.standard_normal(mesh4.ncells)
    np.testing.assert_array_equal(restrict_values(q, mesh4, mesh4), q)


@pytest.mark.parametrize("nf", [8, 16, 32])
def test_restrict_preserves_mean(nf, mesh4, rng):
    fine = Mesh(MeshSpec(nf, nf))
    q = rng.standard_normal(fine.ncells)
    coarse = restrict_values(q, fine, mesh4)
    assert float(np.dot(mesh4.cell_vol, coarse)) == pytest.approx(
        float(np.dot(fine.cell_vol, q)), abs=1e-14)


def test_restrict_rejects_non_nested():
    with pytest.raises(ValueError):
        restrict_values(np.zeros(36), Mesh(MeshSpec(6, 6)), Mesh(MeshSpec(4, 4)))
    with pytest.raises(ValueError):
        restrict_values(np.zeros(32), Mesh(MeshSpec(8, 4)), Mesh(MeshSpec(4, 4)))


def _block_means(q, fine, coarse):
    """Explicit loop over coarse cells: mean of the r x r fine block."""
    r = fine.nx // coarse.nx
    grid = np.asarray(q).reshape(fine.ny, fine.nx)
    out = np.empty(coarse.ncells)
    for jc in range(coarse.ny):
        for ic in range(coarse.nx):
            block = grid[jc * r:(jc + 1) * r, ic * r:(ic + 1) * r]
            out[jc * coarse.nx + ic] = block.mean()
    return out


@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_restrict_matches_explicit_block_means(r, rng):
    # nx != ny, so a swapped row/column order would not fit; the kernel's
    # summation order differs from the explicit mean by a few ulp at most
    coarse = Mesh(MeshSpec(6, 3))
    fine = Mesh(MeshSpec(6 * r, 3 * r))
    q = rng.standard_normal(fine.ncells)
    np.testing.assert_allclose(restrict_values(q, fine, coarse),
                               _block_means(q, fine, coarse),
                               rtol=1e-15, atol=1e-15)
    # integers, and their sums, are exact in float64: exact block means
    ints = rng.integers(-1000, 1000, fine.ncells).astype(np.float64)
    np.testing.assert_array_equal(restrict_values(ints, fine, coarse),
                                  _block_means(ints, fine, coarse))


@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_restrict_snapshot_is_rowwise_restrict_values(r, rng):
    coarse = Mesh(MeshSpec(4, 2))
    fine = Mesh(MeshSpec(4 * r, 2 * r))
    snap = Snapshot(fine, rng.standard_normal((3, fine.ncells)),
                    ("rho", "m1", "m2"))
    got = restrict_snapshot(snap, coarse)
    assert got.mesh is coarse and got.labels == snap.labels
    for row, values in zip(got.data, snap.data):
        np.testing.assert_array_equal(
            row, restrict_values(values, fine, coarse))


# ---------------------------------------------------------------------------
# ensembles and their statistics
# ---------------------------------------------------------------------------

def test_make_ensemble_restricts_to_coarsest(mesh2, mesh4):
    coarse = _const_snapshot(mesh2, 1.0)
    fine = Snapshot(mesh4, np.arange(16.0)[None, :], ("q",))
    ens = make_ensemble([coarse, fine], time=0.5)
    assert ens.time == 0.5
    assert all(m.mesh is mesh2 for m in ens.members)
    np.testing.assert_array_equal(ens.members[1].data[0], [2.5, 4.5, 10.5, 12.5])


def test_make_ensemble_validation(mesh2, mesh4):
    with pytest.raises(ValueError):
        make_ensemble([], time=0.0)
    with pytest.raises(ValueError):
        make_ensemble([_const_snapshot(mesh4, 0.0), _const_snapshot(mesh2, 0.0)],
                      time=0.0)
    with pytest.raises(ValueError):
        make_ensemble([_const_snapshot(mesh2, 0.0),
                       Snapshot(mesh4, np.zeros((1, 16)), ("other",))], time=0.0)


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        Ensemble((), 0.0)


def test_ensemble_rejects_members_on_different_grids(mesh4):
    # 4x4 and 8x2 both have 16 cells, but their cells do not correspond
    wide = Mesh(MeshSpec(8, 2))
    with pytest.raises(ValueError):
        Ensemble((_const_snapshot(mesh4, 0.0), _const_snapshot(wide, 1.0)), 0.0)


def test_ensemble_rejects_members_with_different_labels(mesh2):
    other = Snapshot(mesh2, np.zeros((1, 4)), ("z",))
    with pytest.raises(ValueError):
        Ensemble((_const_snapshot(mesh2, 0.0), other), 0.0)


def test_ensemble_statistics_are_read_only(mesh2, rng):
    snaps = tuple(Snapshot(mesh2, rng.standard_normal((2, 4)), ("a", "b"))
                  for _ in range(3))
    ens = Ensemble(snaps, 0.0)
    ref = Ensemble(tuple(Snapshot(mesh2, rng.standard_normal((2, 4)),
                                  ("a", "b")) for _ in range(2)), 0.0)
    before = error_suite(ens, ref)
    for stat in (cesaro(ens), first_variance(ens)):
        with pytest.raises(ValueError):
            stat.data[0, 0] = 1e9
    for arr in (ens.samples, ens.sorted_samples):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1e9
    assert error_suite(ens, ref) == before


@pytest.mark.parametrize("n", range(1, 10))
def test_sorted_samples_equal_np_sort(n, rng):
    # every (component, cell) is one column of n member values: integers
    # with ties and repeats, negatives and signed zeros in the first
    # component, general floats in the second; cell 0 holds n-1, ..., 0,
    # the order the sorting network needs all n passes for
    mesh = Mesh(MeshSpec(8, 8))
    data = np.empty((n, 2, mesh.ncells))
    data[:, 0] = rng.integers(-3, 4, (n, mesh.ncells))
    data[:, 0][data[:, 0] == 0.0] = -0.0
    data[:, 0][rng.random((n, mesh.ncells)) < 0.1] = 0.0
    data[:, 1] = rng.standard_normal((n, mesh.ncells))
    data[:, :, 0] = np.arange(n - 1, -1, -1)[:, None]
    ens = Ensemble(tuple(Snapshot(mesh, d, ("a", "b")) for d in data), 0.0)
    np.testing.assert_array_equal(ens.sorted_samples, np.sort(data, axis=0))
    with pytest.raises(ValueError):
        ens.sorted_samples[0, 0, 0] = 1e9


def test_error_suite_e4_is_summed_w1_empirical(rng):
    # E4 sorts with the network, w1_empirical with np.sort: the same bits
    # for unequal member counts, ties included
    mesh = Mesh(MeshSpec(5, 3))
    labels = ("a", "b")

    def snap(data):
        return Snapshot(mesh, data, labels)

    ref_data = rng.integers(-2, 3, (5, 2, mesh.ncells)).astype(np.float64)
    ref_data[:, 1] += rng.standard_normal((5, mesh.ncells))
    ref = Ensemble(tuple(snap(d) for d in ref_data), 0.0)
    data = rng.integers(-2, 3, (4, 2, mesh.ncells)).astype(np.float64)
    data[:, 1] += rng.standard_normal((4, mesh.ncells))
    for k in range(1, 5):
        ens = Ensemble(tuple(snap(d) for d in data[:k]), 0.0)
        w1 = w1_empirical(data[:k], ref_data)
        assert error_suite(ens, ref).E4 == float((w1 @ mesh.cell_vol).sum())

    # a member holding a NaN still gives a NaN E4
    data[1, 0, 7] = np.nan
    ens = Ensemble(tuple(snap(d) for d in data), 0.0)
    assert np.isnan(error_suite(ens, ref).E4)


def test_cesaro_and_first_variance_oracle(mesh2):
    ens = Ensemble((_const_snapshot(mesh2, 0.0), _const_snapshot(mesh2, 2.0)),
                   time=0.0)
    np.testing.assert_array_equal(cesaro(ens).data, 1.0)
    np.testing.assert_array_equal(first_variance(ens).data, 1.0)
    solo = Ensemble((_const_snapshot(mesh2, 3.0),), time=0.0)
    np.testing.assert_array_equal(first_variance(solo).data, 0.0)


def test_cesaro_commutes_with_restriction(mesh2, mesh4, rng):
    snaps = [Snapshot(mesh4, rng.standard_normal((2, 16)), ("a", "b"))
             for _ in range(3)]
    fine_ens = Ensemble(tuple(snaps), time=0.0)
    a = restrict_snapshot(cesaro(fine_ens), mesh2)
    b = cesaro(Ensemble(tuple(restrict_snapshot(s, mesh2) for s in snaps),
                        time=0.0))
    np.testing.assert_allclose(a.data, b.data, atol=1e-15)


def test_first_variance_does_not_commute_with_restriction(mesh2, mesh4):
    # two members that differ inside one coarse block but share its mean:
    # the fine variance restricts to 1/2 there, the restricted ensemble has
    # variance 0 -- ordering the statistics before restriction matters
    m1 = np.zeros((1, 16))
    m2 = np.zeros((1, 16))
    m1[0, 0], m1[0, 1] = 0.0, 2.0
    m2[0, 0], m2[0, 1] = 2.0, 0.0
    snaps = (Snapshot(mesh4, m1, ("q",)), Snapshot(mesh4, m2, ("q",)))
    fine_var = restrict_snapshot(first_variance(Ensemble(snaps, 0.0)), mesh2)
    coarse_var = first_variance(
        Ensemble(tuple(restrict_snapshot(s, mesh2) for s in snaps), 0.0))
    assert fine_var.data[0, 0] == pytest.approx(0.5)
    assert coarse_var.data[0, 0] == 0.0


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------

def test_w1_frozen_values():
    assert w1_empirical([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert w1_empirical([0.0], [5.0]) == pytest.approx(5.0)
    assert w1_empirical([0.0, 0.0, 4.0], [1.0]) == pytest.approx(5.0 / 3.0)
    assert w1_empirical([1.0, 2.0], [2.0, 1.0]) == 0.0


def test_w1_rejects_empty():
    with pytest.raises(ValueError):
        w1_empirical([], [1.0])
    with pytest.raises(ValueError):
        w1_empirical([1.0], [])


def test_w1_matches_transport_lp(rng):
    for _ in range(50):
        n, m = rng.integers(1, 7, size=2)
        a = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        b = rng.standard_normal(m) * rng.uniform(0.1, 10.0)
        assert w1_empirical(a, b) == pytest.approx(w1_lp(a, b), abs=1e-10)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_w1_batched_matches_columnwise(n, m, rng):
    a = rng.standard_normal((n, 3, 7)) * rng.uniform(0.1, 10.0)
    b = rng.standard_normal((m, 3, 7)) * rng.uniform(0.1, 10.0)
    got = w1_empirical(a, b)
    assert got.shape == (3, 7)
    for i in range(3):
        for j in range(7):
            col = w1_empirical(a[:, i, j], b[:, i, j])
            assert got[i, j] == pytest.approx(col, rel=1e-14)
            assert got[i, j] == pytest.approx(w1_lp(a[:, i, j], b[:, i, j]),
                                              abs=1e-10)


def test_w1_one_dimensional_input_gives_float():
    assert type(w1_empirical(np.array([0.0, 2.0]), np.array([1.0]))) is float


def test_w1_rejects_mismatched_trailing_shapes():
    with pytest.raises(ValueError):
        w1_empirical(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        w1_empirical(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        w1_empirical(np.zeros((0, 3)), np.zeros((2, 3)))


_finite = st.floats(-100.0, 100.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_finite, min_size=1, max_size=6),
       b=st.lists(_finite, min_size=1, max_size=6),
       c=_finite, seed=st.integers(0, 2**32 - 1))
def test_w1_properties(a, b, c, seed):
    a, b = np.array(a), np.array(b)
    w = w1_empirical(a, b)
    assert w1_empirical(b, a) == pytest.approx(w, rel=1e-14, abs=1e-14)
    perm = np.random.default_rng(seed).permutation(a.size)
    assert w1_empirical(a[perm], b) == pytest.approx(w, rel=1e-14, abs=1e-14)
    assert w1_empirical(a, a + c) == pytest.approx(abs(c), rel=1e-12,
                                                   abs=1e-12)


def test_runtime_imports_leave_scipy_out():
    # scipy is a test-only dependency: importing the package and its CLI
    # must not load it, nor the process pool, which only a sweep starts
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import apeuler, apeuler.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_analysis_import_leaves_the_study_modules_out():
    # the package is its modules: importing one loads only what it imports
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import apeuler.analysis, sys; "
            "print(sorted(m for m in sys.modules if m in ("
            "'apeuler.harness', 'apeuler.config', 'apeuler.cli', "
            "'apeuler.output')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# error suite
# ---------------------------------------------------------------------------

def test_error_suite_e4_matches_transport_lp_loop(rng):
    # non-square grid: the cell volume is hx * hy with hx != hy, and E4
    # sums the volume-weighted W1 over cells and components
    mesh = Mesh(MeshSpec(3, 5))
    labels = ("a", "b")
    ens = Ensemble(tuple(Snapshot(mesh, rng.standard_normal((2, 15)), labels)
                         for _ in range(2)), 0.0)
    ref = Ensemble(tuple(Snapshot(mesh, rng.standard_normal((2, 15)), labels)
                         for _ in range(3)), 0.0)
    expect = 0.0
    for k in range(mesh.ncells):
        for c in range(len(labels)):
            expect += mesh.cell_vol[k] * w1_lp(
                [m.data[c, k] for m in ens.members],
                [m.data[c, k] for m in ref.members])
    assert error_suite(ens, ref).E4 == pytest.approx(expect, rel=1e-12)


def test_error_suite_identical_is_zero(mesh2, rng):
    snaps = tuple(Snapshot(mesh2, rng.standard_normal((2, 4)), ("a", "b"))
                  for _ in range(3))
    ens = Ensemble(snaps, time=0.0)
    rep = error_suite(ens, ens)
    assert (rep.E1, rep.E2, rep.E3, rep.E4) == (0.0, 0.0, 0.0, 0.0)


def test_error_suite_constant_oracle(mesh2):
    # members {0, 2} vs reference {1, 3} on the unit square:
    # E1 = |2-3| = 1, E2 = |1-2| = 1, E3 = |1-1| = 0, E4 = W1 = 1
    ens = Ensemble((_const_snapshot(mesh2, 0.0), _const_snapshot(mesh2, 2.0)), 0.0)
    ref = Ensemble((_const_snapshot(mesh2, 1.0), _const_snapshot(mesh2, 3.0)), 0.0)
    rep = error_suite(ens, ref)
    assert rep.E1 == pytest.approx(1.0)
    assert rep.E2 == pytest.approx(1.0)
    assert rep.E3 == pytest.approx(0.0, abs=1e-15)
    assert rep.E4 == pytest.approx(1.0)


def test_error_suite_single_member_vs_pair(mesh2):
    # a single-member sequence has zero variance; the quantile form of W1
    # still applies with unequal counts
    ens = Ensemble((_const_snapshot(mesh2, 2.0),), 0.0)
    ref = Ensemble((_const_snapshot(mesh2, 1.0), _const_snapshot(mesh2, 3.0)), 0.0)
    rep = error_suite(ens, ref)
    assert rep.E1 == pytest.approx(1.0)
    assert rep.E2 == pytest.approx(0.0, abs=1e-15)
    assert rep.E3 == pytest.approx(1.0)
    assert rep.E4 == pytest.approx(1.0)


def test_error_suite_validation(mesh2, mesh4):
    ens2 = Ensemble((_const_snapshot(mesh2, 0.0),), 0.0)
    ens4 = Ensemble((_const_snapshot(mesh4, 0.0),), 0.0)
    with pytest.raises(ValueError):
        error_suite(ens2, ens4)
    other = Ensemble((Snapshot(mesh2, np.zeros((1, 4)), ("z",)),), 0.0)
    with pytest.raises(ValueError):
        error_suite(ens2, other)


def _from_scratch_report(ens, ref):
    """E1--E4 by the from-scratch formulas: stack the members, take the
    mean and the mean absolute deviation, and W1 from the sorted samples at
    the merged quantile breakpoints."""
    cell_vol = ens.mesh.cell_vol
    s = np.stack([m.data for m in ens.members])
    rs = np.stack([m.data for m in ref.members])
    mean, ref_mean = s.mean(axis=0), rs.mean(axis=0)
    var = np.abs(s - mean).mean(axis=0)
    ref_var = np.abs(rs - ref_mean).mean(axis=0)
    n, m = len(s), len(rs)
    t = np.union1d(np.arange(n + 1) / n, np.arange(m + 1) / m)
    mid = 0.5 * (t[:-1] + t[1:])
    ia = np.minimum((mid * n).astype(np.intp), n - 1)
    ib = np.minimum((mid * m).astype(np.intp), m - 1)
    gap = np.abs(np.sort(s, axis=0)[ia] - np.sort(rs, axis=0)[ib])
    w1 = np.tensordot(np.diff(t), gap, axes=1)

    def l1(diff):
        return float((np.abs(diff) @ cell_vol).sum())

    report = ErrorReport(E1=l1(s[-1] - rs[-1]), E2=l1(mean - ref_mean),
                         E3=l1(var - ref_var),
                         E4=float((w1 @ cell_vol).sum()))
    return report, mean, var


@pytest.mark.parametrize("stats_first", [False, True])
def test_cached_statistics_equal_from_scratch_formulas(stats_first, rng):
    meshes = [Mesh(MeshSpec(6 * 2**j, 3 * 2**j)) for j in range(4)]
    labels = ("rho", "m1", "m2")

    def sequence():
        return [Snapshot(mesh, rng.standard_normal((3, mesh.ncells)), labels)
                for mesh in meshes]

    seq = sequence()
    ref = make_ensemble(sequence(), 0.5)     # reused for every prefix
    for k in range(1, len(seq) + 1):
        ens = make_ensemble(seq[:k], 0.5)
        expect, mean, var = _from_scratch_report(ens, ref)
        if stats_first:
            np.testing.assert_array_equal(cesaro(ens).data, mean)
            np.testing.assert_array_equal(first_variance(ens).data, var)
        assert error_suite(ens, ref) == expect
        np.testing.assert_array_equal(cesaro(ens).data, mean)
        np.testing.assert_array_equal(first_variance(ens).data, var)
        assert error_suite(ens, ref) == expect


# ---------------------------------------------------------------------------
# convergence rates and deviation series
# ---------------------------------------------------------------------------

def test_eoc_exact_rates():
    assert eoc([1.0, 0.5], [1.0, 0.5]) == pytest.approx([1.0])
    assert eoc([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25]) == pytest.approx([2.0, 2.0])


def test_eoc_near_first_order_table():
    # measured L2 velocity errors over a halving sequence: rates just
    # below one, approaching it on the finest pairs
    errors = [2.21e-2, 1.25e-2, 6.44e-3, 3.28e-3, 1.64e-3]
    hs = [1.0 / n for n in (32, 64, 128, 256, 512)]
    rates = eoc(errors, hs)
    np.testing.assert_allclose(rates, [0.8236, 0.9611, 0.9721, 0.9955],
                               atol=5e-3)
    assert all(0.75 <= r <= 1.1 for r in rates)


def test_eoc_validation():
    with pytest.raises(ValueError):
        eoc([1.0], [1.0])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        eoc([1.0, -0.5], [1.0, 0.5])


def test_density_deviation_constant_offsets(mesh4):
    # |rho - 1| = c: the L^gamma distance on the unit square is exactly c
    states = [CompState(t, cell_scalar(mesh4, 1.0 + c),
                        cell_vector(mesh4, (0.0, 0.0)), step=i)
              for i, (t, c) in enumerate([(0.0, 0.5), (1.0, 0.25)])]
    traj = Trajectory(mesh=mesh4, times=[0.0, 1.0], states=states,
                      diagnostics=[])
    series = density_deviation(traj, eps=0.1, gamma=2.0)
    np.testing.assert_allclose(series.values, [0.5, 0.25], rtol=1e-14)
    assert series.sup == pytest.approx(0.5)
    assert series.eps == 0.1
    np.testing.assert_array_equal(series.times, [0.0, 1.0])
