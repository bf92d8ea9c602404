"""Ensemble statistics over mesh-refinement sequences, the E1--E4 error
suite, the compressible relative energy, and convergence-rate helpers.

A refinement sequence of solutions is treated as an equal-weight empirical
measure per cell; its Cesaro average and first variance are the objects
whose convergence the statistics probe.  Cross-grid comparisons restrict
the finer field by exact cell averaging (the adjoint of piecewise-constant
injection, so means are preserved): the r fine rows of each coarse row are
summed first, over contiguous memory, then the r columns of each block,
and the sums divided by r^2.  The four errors against a reference sequence
are volume-weighted L1 quantities:

    E1  finest member vs reference solution,
    E2  Cesaro average vs reference Cesaro average,
    E3  first variance vs reference first variance,
    E4  L1 norm of the per-cell 1-D Wasserstein distance between the two
        member samples, summed over state components.

An ``Ensemble`` computes its stacked samples, Cesaro mean, first variance
and sorted samples once, on first use, as read-only arrays; ``cesaro``,
``first_variance`` and ``error_suite`` read them, so a reference sequence
compared against every prefix is stacked and sorted once.  The sorted
samples come from a min/max sorting network over whole member slices:
O(N^2) slice passes for N members, faster than ``np.sort`` up to about 10
members, and a refinement sequence has one member per grid level.  W1 is
batched: one quantile-gap evaluation over every cell and component of two
sorted stacks gives E4, and ``w1_empirical``, which takes any number of
samples, sorts them with ``np.sort`` and runs the same kernel.

``rel_energy_comp`` measures the arrays of a compressible state against the
unit-density state of a limit velocity, with the Pi_gamma of each step's
entropy variant (``compressible.pi_gamma_values``); between two limit
velocities it is ``incompressible.kinetic_energy`` of their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compressible import (CompState, Trajectory, eos_values,
                           pi_gamma_values)
from .incompressible import IncompState
from .mesh import Mesh

__all__ = [
    "Snapshot",
    "Ensemble",
    "ErrorReport",
    "DeviationSeries",
    "comp_snapshot",
    "incomp_snapshot",
    "restrict_values",
    "restrict_snapshot",
    "make_ensemble",
    "cesaro",
    "first_variance",
    "w1_empirical",
    "error_suite",
    "rel_energy_comp",
    "eoc",
    "density_deviation",
]


@dataclass(frozen=True)
class Snapshot:
    """A solution's state variables at one time: rows of ``data`` are the
    components named by ``labels``, columns follow the mesh cell order."""

    mesh: Mesh
    data: np.ndarray            # (ncomp, ncells)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.mesh.ncells:
            raise ValueError(
                f"snapshot data must be (ncomp, {self.mesh.ncells}), "
                f"got {data.shape}")
        if data.shape[0] != len(self.labels):
            raise ValueError("one label per component required")
        object.__setattr__(self, "data", data)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _sort_members(samples: np.ndarray) -> np.ndarray:
    """A copy of ``samples`` sorted along axis 0 by odd-even transposition.

    Pass p compare-exchanges the member slices (i, i+1) for i = p mod 2,
    p mod 2 + 2, ...; N passes sort N members (Knuth, TAOCP Vol. 3,
    section 5.3.4).  Min and max only pick values, so the result holds the values
    ``np.sort`` gives, for O(N^2) slice operations.  A refinement sequence
    has one member per grid level, and up to about 10 members this beats
    ``np.sort``'s one short sort per trailing index.
    """
    out = samples.copy()
    n = out.shape[0]
    for p in range(n):
        for i in range(p % 2, n - 1, 2):
            a, b = out[i], out[i + 1]
            lo = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = lo
    return out


@dataclass(frozen=True)
class Ensemble:
    """Members of a refinement sequence, coarse to fine, all restricted to
    the common (coarsest) comparison grid.

    The statistics below are computed on first use and kept, read-only;
    the members' data are taken to stay unchanged after that.
    """

    members: tuple[Snapshot, ...]
    time: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        grid, labels = (self.mesh.nx, self.mesh.ny), self.labels
        if any((m.mesh.nx, m.mesh.ny) != grid for m in self.members):
            raise ValueError("members live on different grids")
        if any(m.labels != labels for m in self.members):
            raise ValueError("members carry different state components")

    @property
    def mesh(self) -> Mesh:
        return self.members[0].mesh

    @property
    def labels(self) -> tuple[str, ...]:
        return self.members[0].labels

    @cached_property
    def samples(self) -> np.ndarray:
        """Member axis first: (nmembers, ncomp, ncells)."""
        return _read_only(np.stack([m.data for m in self.members]))

    @cached_property
    def mean(self) -> np.ndarray:
        """Cesaro average, (ncomp, ncells)."""
        return _read_only(self.samples.mean(axis=0))

    @cached_property
    def variance(self) -> np.ndarray:
        """First variance: mean |sample - Cesaro average|, (ncomp, ncells)."""
        return _read_only(np.abs(self.samples - self.mean).mean(axis=0))

    @cached_property
    def sorted_samples(self) -> np.ndarray:
        """``samples`` sorted along the member axis, by ``_sort_members``.

        Members are expected to be finite: a NaN spreads along its column
        here, where ``np.sort`` would put it last (E4 is NaN either way).
        """
        return _read_only(_sort_members(self.samples))


@dataclass(frozen=True)
class ErrorReport:
    """The four refinement-sequence errors on one comparison grid."""

    E1: float
    E2: float
    E3: float
    E4: float


@dataclass(frozen=True)
class DeviationSeries:
    """Time series of a density's distance from the constant state."""

    times: np.ndarray
    values: np.ndarray
    sup: float
    eps: float


def comp_snapshot(state: CompState) -> Snapshot:
    """Conservative variables (density and momentum) of a compressible state."""
    m = state.rho.values[:, None] * state.u.values
    data = np.stack([state.rho.values, m[:, 0], m[:, 1]])
    return Snapshot(state.mesh, data, ("rho", "m1", "m2"))


def incomp_snapshot(state: IncompState) -> Snapshot:
    """Velocity components of an incompressible state."""
    return Snapshot(state.mesh, state.v.values.T.copy(), ("v1", "v2"))


def _refinement_factor(fine: Mesh, coarse: Mesh) -> int:
    """Validate that ``fine`` is an exact 2^j refinement of ``coarse``."""
    if fine.nx % coarse.nx or fine.ny % coarse.ny:
        raise ValueError(
            f"grid {fine.nx}x{fine.ny} is not nested in {coarse.nx}x{coarse.ny}")
    rx, ry = fine.nx // coarse.nx, fine.ny // coarse.ny
    if rx != ry or rx & (rx - 1):
        raise ValueError(
            f"refinement ratio must be a power of two in both directions, "
            f"got {rx}x{ry}")
    return rx


def restrict_values(values: np.ndarray, fine: Mesh, coarse: Mesh) -> np.ndarray:
    """Cell-average a flat fine-grid array onto a nested coarser grid.

    The r fine rows of each coarse row are summed first, whole rows at a
    time, then the r columns of each block, one strided column at a time;
    a reduction over an inner axis only r long, once per coarse cell, is
    several times slower.  r^2 is a power of two, so the division is exact.
    """
    r = _refinement_factor(fine, coarse)
    if r == 1:
        return np.array(values, dtype=np.float64)
    rows = np.asarray(values, dtype=np.float64).reshape(
        coarse.ny, r, coarse.nx, r).sum(axis=1)
    block = rows[..., 0].copy()
    for k in range(1, r):
        block += rows[..., k]
    return block.reshape(coarse.ncells) / (r * r)


def restrict_snapshot(snap: Snapshot, coarse: Mesh) -> Snapshot:
    rows = [restrict_values(row, snap.mesh, coarse) for row in snap.data]
    return Snapshot(coarse, np.stack(rows), snap.labels)


def make_ensemble(snapshots, time: float) -> Ensemble:
    """Assemble a refinement sequence, restricting every member to the
    coarsest grid present.  Members must be ordered coarse to fine."""
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("ensemble needs at least one member")
    sizes = [s.mesh.ncells for s in snapshots]
    if sizes != sorted(sizes):
        raise ValueError("members must be ordered coarse to fine")
    base = snapshots[0].mesh
    members = tuple(restrict_snapshot(s, base) for s in snapshots)
    return Ensemble(members=members, time=float(time))


def cesaro(ensemble: Ensemble) -> Snapshot:
    """Pointwise arithmetic mean over the members (read-only data)."""
    return Snapshot(ensemble.mesh, ensemble.mean, ensemble.labels)


def first_variance(ensemble: Ensemble) -> Snapshot:
    """Pointwise mean absolute deviation from the Cesaro average (read-only
    data)."""
    return Snapshot(ensemble.mesh, ensemble.variance, ensemble.labels)


def w1_empirical(a, b) -> float | np.ndarray:
    """1-D Wasserstein distance between equal-weight empirical samples.

    The samples lie on axis 0 of ``a`` (N values) and ``b`` (M values); any
    trailing shape, which must match, indexes independent distributions, and
    the result has that trailing shape.  1-D input gives a Python float.

    W1 is the integral over (0, 1) of the quantile gap |F_a^-1 - F_b^-1|,
    which ``_sorted_w1`` evaluates on the samples sorted along axis 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empirical samples must be nonempty along axis 0")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(
            f"trailing shapes differ: {a.shape[1:]} vs {b.shape[1:]}")
    w1 = _sorted_w1(np.sort(a, axis=0), np.sort(b, axis=0))
    return float(w1) if w1.ndim == 0 else w1


def _sorted_w1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W1 of samples already sorted along axis 0, one per trailing index.

    Both quantile functions are constant between the breakpoints
    {i/N} u {j/M}, which depend only on N and M, so every distribution
    shares them: read both sorted samples at the segment midpoints and sum
    the gaps weighted by the segment lengths.
    """
    n, m = a.shape[0], b.shape[0]
    # equal rationals i/N == j/M divide to the same float, so the union
    # needs no tolerance
    t = np.union1d(np.arange(n + 1) / n, np.arange(m + 1) / m)
    mid = 0.5 * (t[:-1] + t[1:])
    ia = np.minimum((mid * n).astype(np.intp), n - 1)
    ib = np.minimum((mid * m).astype(np.intp), m - 1)
    return np.tensordot(np.diff(t), np.abs(a[ia] - b[ib]), axes=1)


def _l1(mesh: Mesh, diff: np.ndarray) -> float:
    """Volume-weighted L1 of a (ncomp, ncells) difference, summed over
    components."""
    return float((np.abs(diff) @ mesh.cell_vol).sum())


def error_suite(ensemble: Ensemble, ref_ensemble: Ensemble) -> ErrorReport:
    """E1--E4 of a refinement sequence against a reference sequence.

    The finest member plays the solution in E1; the reference sequence
    normally extends the ensemble's grid list by the reference grid, so its
    statistics are the cumulative ones.
    """
    mesh = ensemble.mesh
    ref_mesh = ref_ensemble.mesh
    if (mesh.nx, mesh.ny) != (ref_mesh.nx, ref_mesh.ny):
        raise ValueError(
            f"comparison grids differ: {mesh.nx}x{mesh.ny} vs "
            f"{ref_mesh.nx}x{ref_mesh.ny}")
    if ensemble.labels != ref_ensemble.labels:
        raise ValueError("state components differ between ensembles")

    e1 = _l1(mesh, ensemble.members[-1].data - ref_ensemble.members[-1].data)
    e2 = _l1(mesh, ensemble.mean - ref_ensemble.mean)
    e3 = _l1(mesh, ensemble.variance - ref_ensemble.variance)
    w1 = _sorted_w1(ensemble.sorted_samples, ref_ensemble.sorted_samples)
    e4 = float((w1 @ mesh.cell_vol).sum())

    return ErrorReport(E1=e1, E2=e2, E3=e3, E4=e4)


def rel_energy_comp(mesh: Mesh, rho: np.ndarray, m: np.ndarray,
                    v: np.ndarray, eps: float, gamma: float) -> float:
    """Relative energy of the density ``rho`` (ncells,) and momentum ``m``
    (ncells, 2) against the unit-density state with velocity ``v``
    (ncells, 2): sum |K| [ (rho/2)|m/rho - v|^2 + Pi_gamma(rho) / eps^2 ]."""
    # eos_values checks the density positive before m / rho divides
    pi = pi_gamma_values(rho, eos_values(rho, gamma), gamma)
    du = m / rho[:, None] - v
    kin = 0.5 * rho * np.einsum("kc,kc->k", du, du)
    return float(np.dot(mesh.cell_vol, kin + pi / eps**2))


def eoc(errors, hs) -> list[float]:
    """Experimental orders of convergence from consecutive error/mesh pairs."""
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error and mesh-size lists, length >= 2")
    if any(e <= 0.0 for e in errors) or any(h <= 0.0 for h in hs):
        raise ValueError("errors and mesh sizes must be positive")
    return [math.log(errors[j - 1] / errors[j]) / math.log(hs[j - 1] / hs[j])
            for j in range(1, len(errors))]


def density_deviation(traj: Trajectory, eps: float,
                      gamma: float) -> DeviationSeries:
    """L^gamma distance of the density from 1 at each recorded output time,
    and its sup over the trajectory."""
    mesh = traj.mesh
    values = np.empty(len(traj.states))
    for idx, state in enumerate(traj.states):
        dev = np.abs(state.rho.values - 1.0) ** gamma
        values[idx] = float(np.dot(mesh.cell_vol, dev)) ** (1.0 / gamma)
    return DeviationSeries(times=np.asarray(traj.times, dtype=np.float64),
                           values=values, sup=float(values.max()), eps=eps)
