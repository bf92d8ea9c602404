"""Ensemble statistics over mesh-refinement sequences, the E1--E4 error
suite, relative-energy functionals, and convergence-rate helpers.

A refinement sequence of solutions is treated as an equal-weight empirical
measure per cell; its Cesaro average and first variance are the objects
whose convergence the statistics probe.  Cross-grid comparisons restrict
the finer field by exact cell averaging (the adjoint of piecewise-constant
injection, so means are preserved).  The four errors against a reference
sequence are volume-weighted L1 quantities:

    E1  finest member vs reference solution,
    E2  Cesaro average vs reference Cesaro average,
    E3  first variance vs reference first variance,
    E4  L1 norm of the per-cell 1-D Wasserstein distance between the two
        member samples, summed over state components.

``w1_empirical`` is batched: it takes the member samples of every cell and
component at once, on axis 0, so E4 is one call on the stacked ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressible import CompState, Trajectory, psi_values
from .fields import CellScalar, CellVector
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
    "rel_energy_incomp",
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


@dataclass(frozen=True)
class Ensemble:
    """Members of a refinement sequence, coarse to fine, all restricted to
    the common (coarsest) comparison grid."""

    members: tuple[Snapshot, ...]
    time: float

    @property
    def mesh(self) -> Mesh:
        return self.members[0].mesh

    @property
    def labels(self) -> tuple[str, ...]:
        return self.members[0].labels


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
    """Cell-average a flat fine-grid array onto a nested coarser grid."""
    r = _refinement_factor(fine, coarse)
    if r == 1:
        return np.array(values, dtype=np.float64)
    blocks = np.asarray(values, dtype=np.float64).reshape(
        coarse.ny, r, coarse.nx, r)
    return blocks.mean(axis=(1, 3)).reshape(coarse.ncells)


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
    labels = snapshots[0].labels
    if any(s.labels != labels for s in snapshots):
        raise ValueError("members carry different state components")
    base = snapshots[0].mesh
    members = tuple(restrict_snapshot(s, base) for s in snapshots)
    return Ensemble(members=members, time=float(time))


def _stack(ensemble: Ensemble) -> np.ndarray:
    """Member axis first: (nmembers, ncomp, ncells)."""
    return np.stack([m.data for m in ensemble.members])


def cesaro(ensemble: Ensemble) -> Snapshot:
    """Pointwise arithmetic mean over the members."""
    if not ensemble.members:
        raise ValueError("empty ensemble")
    return Snapshot(ensemble.mesh, _stack(ensemble).mean(axis=0),
                    ensemble.labels)


def _mean_abs_dev(stacked: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of |stacked - mean|."""
    return np.abs(stacked - mean).mean(axis=0)


def first_variance(ensemble: Ensemble) -> Snapshot:
    """Pointwise mean absolute deviation from the Cesaro average."""
    if not ensemble.members:
        raise ValueError("empty ensemble")
    stacked = _stack(ensemble)
    return Snapshot(ensemble.mesh,
                    _mean_abs_dev(stacked, stacked.mean(axis=0)),
                    ensemble.labels)


def w1_empirical(a, b) -> float | np.ndarray:
    """1-D Wasserstein distance between equal-weight empirical samples.

    The samples lie on axis 0 of ``a`` (N values) and ``b`` (M values); any
    trailing shape, which must match, indexes independent distributions, and
    the result has that trailing shape.  1-D input gives a Python float.

    W1 is the integral over (0, 1) of the quantile gap |F_a^-1 - F_b^-1|.
    Both quantile functions are constant between the breakpoints
    {i/N} u {j/M}, which depend only on N and M, so every distribution
    shares them: sort along axis 0, read both sorted samples at the segment
    midpoints and sum the gaps weighted by the segment lengths.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empirical samples must be nonempty along axis 0")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(
            f"trailing shapes differ: {a.shape[1:]} vs {b.shape[1:]}")
    n, m = a.shape[0], b.shape[0]
    # equal rationals i/N == j/M divide to the same float, so the union
    # needs no tolerance
    t = np.union1d(np.arange(n + 1) / n, np.arange(m + 1) / m)
    mid = 0.5 * (t[:-1] + t[1:])
    ia = np.minimum((mid * n).astype(np.intp), n - 1)
    ib = np.minimum((mid * m).astype(np.intp), m - 1)
    gap = np.abs(np.sort(a, axis=0)[ia] - np.sort(b, axis=0)[ib])
    w1 = np.tensordot(np.diff(t), gap, axes=1)
    return float(w1) if w1.ndim == 0 else w1


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

    samples = _stack(ensemble)          # (N, ncomp, ncells)
    ref_samples = _stack(ref_ensemble)  # (M, ncomp, ncells)
    mean = samples.mean(axis=0)
    ref_mean = ref_samples.mean(axis=0)

    e1 = _l1(mesh, samples[-1] - ref_samples[-1])
    e2 = _l1(mesh, mean - ref_mean)
    e3 = _l1(mesh, _mean_abs_dev(samples, mean)
             - _mean_abs_dev(ref_samples, ref_mean))
    e4 = float((w1_empirical(samples, ref_samples) @ mesh.cell_vol).sum())

    return ErrorReport(E1=e1, E2=e2, E3=e3, E4=e4)


def rel_energy_comp(rho: CellScalar, m: CellVector, r: CellScalar,
                    U: CellVector, eps: float, gamma: float) -> float:
    """Relative energy of (rho, m) against a smooth state (r, U):
    sum |K| [ (rho/2)|m/rho - U|^2
              + (psi(rho) - psi(r) - psi'(r)(rho - r)) / eps^2 ]."""
    mesh = rho.mesh
    if not (np.all(rho.values > 0.0) and np.all(r.values > 0.0)):
        raise ValueError("densities must be positive")
    du = m.values / rho.values[:, None] - U.values
    kin = 0.5 * rho.values * np.einsum("kc,kc->k", du, du)
    dpsi = gamma / (gamma - 1.0) * r.values ** (gamma - 1.0)
    bregman = (psi_values(rho.values, gamma) - psi_values(r.values, gamma)
               - dpsi * (rho.values - r.values))
    return float(np.dot(mesh.cell_vol, kin + bregman / eps**2))


def rel_energy_incomp(v: CellVector, V: CellVector) -> float:
    """(1/2) sum |K| |v_K - V_K|^2."""
    if v.mesh is not V.mesh and (v.mesh.nx, v.mesh.ny) != (V.mesh.nx, V.mesh.ny):
        raise ValueError("velocity fields live on different grids")
    d = v.values - V.values
    return 0.5 * float(np.dot(v.mesh.cell_vol, np.einsum("kc,kc->k", d, d)))


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
