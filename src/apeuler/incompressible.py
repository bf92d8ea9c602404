"""Semi-implicit limit scheme for the incompressible Euler system on the
collocated periodic grid.

Each step enforces the stabilized divergence constraint through a pressure
Poisson system, eta dt (div grad) pi^{n+1} = div v^n, then updates the
velocity explicitly with the upwind flux of the corrected advective field
w = v^n - dv^{n+1}, dv^{n+1} = eta dt grad pi^{n+1}:

    v^{n+1} = v^n - dt div_up(v^n, split(w)) - dt grad pi^{n+1}.

The composed central-difference Laplacian decouples the four point parities
of an even periodic grid, so its kernel contains the three checkerboard modes
besides the constants.  The pressure is one direct spectral solve,
``operators._laplace_solve``, that maps those kernel modes to zero; the
returned pressure is orthogonal to them.
``pressure_kernel_basis`` spans the kernel explicitly; with
``linsolve.solve_deflated_spd`` it is the test reference for the spectral
solve.  Kinetic energy is non-increasing under the sufficient time-step bound
(beta = 1/8 in 2-D), which is evaluated explicitly at t^n with the previous
step's pressure gradient: the pressure solve returns grad pi^{n+1}, the step
uses it and carries it in ``IncompState.gp`` to the next bound.
``kinetic_energy`` takes the mesh and a per-cell velocity array; of the
difference of two limit velocities it is their relative energy
(``rel_energy_refine.csv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressible import (SchemeConfig, Trajectory, _energy_check, _eta,
                           _march, face_dt_bound, upwind_momentum)
from .fields import CellScalar, CellVector
from .linsolve import _norm
from .mesh import Mesh
from .operators import (
    _face_divergence,
    _laplace_solve,
    div_values,
    edge_normal_values,
    grad_values,
    lp_norm,
    project_vector,
    split_advective_velocity,
)

__all__ = [
    "IncompConfig",
    "IncompState",
    "IncompStepDiagnostics",
    "BETA_2D",
    "ETA",
    "init_incomp",
    "pressure_kernel_basis",
    "pressure_solve",
    "incomp_dt",
    "incomp_step",
    "run_incomp",
    "kinetic_energy",
]

#: sufficient time-step constant of the energy bound in two dimensions
BETA_2D = 1.0 / 8.0
#: relative residual the spectral pressure solve must reach
PRESSURE_TOL = 1e-10
#: stabilization 1.5 * ETA_MARGIN: the compressible rule at min rho = 1, the
#: eps -> 0 value of the compressible coefficient
ETA = _eta(1.0)

#: a limit run has no parameters beyond those both schemes share
IncompConfig = SchemeConfig


@dataclass
class IncompState:
    """Velocity and mean-zero pressure at one time level."""

    t: float
    v: CellVector
    pi: CellScalar
    step: int = 0
    # kinetic energy of v, carried into the next step's energy check;
    # None: computed there
    ke: float | None = None
    # grad pi, (ncells, 2), carried into the next step's time-step bound;
    # None: computed there
    gp: np.ndarray | None = None

    @property
    def mesh(self) -> Mesh:
        return self.v.mesh


@dataclass(frozen=True)
class IncompStepDiagnostics:
    """Per-step scalars: the fields without a default are the columns of a
    run's ``diagnostics.csv``, in order; the rest are in-memory extras."""

    step: int
    t: float
    dt: float
    kinetic_energy: float
    div_residual: float
    energy_ok: bool
    # not part of the CSV schema:
    dt_bound: float = math.nan


def kinetic_energy(mesh: Mesh, v: np.ndarray) -> float:
    """(1/2) sum |K| |v_K|^2 of per-cell velocities ``v`` (ncells, 2)."""
    sq = np.einsum("kc,kc->k", v, v)
    return 0.5 * float(np.dot(mesh.cell_vol, sq))


def init_incomp(v0, mesh: Mesh) -> IncompState:
    """Project pointwise initial velocity; pressure starts at zero.

    The projection is not re-projected onto the discrete constraint — the
    first pressure solve absorbs whatever divergence it carries.
    """
    v = project_vector(v0[0], v0[1], mesh)
    pi = CellScalar(mesh, np.zeros(mesh.ncells))
    return IncompState(t=0.0, v=v, pi=pi, step=0)


def pressure_kernel_basis(mesh: Mesh) -> np.ndarray:
    """Orthonormal kernel of the composed Laplacian: constants plus the
    checkerboard modes the long-stencil differences cannot see."""
    i = np.tile(np.arange(mesh.nx), mesh.ny)
    j = np.repeat(np.arange(mesh.ny), mesh.nx)
    cols = [np.ones(mesh.ncells)]
    if mesh.nx % 2 == 0:
        cols.append(np.where(i % 2 == 0, 1.0, -1.0))
    if mesh.ny % 2 == 0:
        cols.append(np.where(j % 2 == 0, 1.0, -1.0))
    if mesh.nx % 2 == 0 and mesh.ny % 2 == 0:
        cols.append(np.where((i + j) % 2 == 0, 1.0, -1.0))
    basis = np.column_stack(cols)
    return basis / math.sqrt(mesh.ncells)


def _parity_deflate(q: np.ndarray) -> np.ndarray:
    """``q`` (ny, nx) minus its mean over each parity class, flattened.

    The classes are ``q[a::ky, c::kx]`` with ky = 2 - ny % 2 and
    kx = 2 - nx % 2: four on an even grid, two or one when a side is odd.
    The composed Laplacian's kernel is exactly the grid functions constant
    on each class, and the classes have equal sizes, so this is the
    orthogonal projection off that kernel.
    """
    ny, nx = q.shape
    ky, kx = 2 - ny % 2, 2 - nx % 2
    # rows of ky grid rows: their sum holds each class in every kx-th entry
    rows = q.reshape(ny // ky, ky * nx)
    mean = rows.sum(axis=0).reshape(ky, nx // kx, kx).sum(axis=1)
    mean *= ky * kx / q.size
    return (rows - np.tile(mean, nx // kx).reshape(-1)).reshape(-1)


def pressure_solve(mesh: Mesh, un: np.ndarray, eta: float,
                   dt: float) -> tuple[CellScalar, np.ndarray]:
    """Solve eta dt (div grad) pi = div v^n directly in Fourier space;
    returns pi and its cell gradient grad pi, (ncells, 2).

    ``un`` is the face-averaged normal velocity of v^n
    (``edge_normal_values``), (2, ny, nx); it is left unchanged.  The
    solve is ``operators._laplace_solve`` with shift 0, which maps the
    kernel modes to zero, so the returned pressure has zero mean and zero
    checkerboard components.  The residual
    ||b_defl + eta dt div(grad pi)|| is recomputed, where b_defl is
    b = -div v^n minus its mean over each parity class (its kernel
    component); a residual above PRESSURE_TOL ||b_defl|| raises.  The
    gradient the check builds is the one returned.
    """
    if not (eta > 0.0 and dt > 0.0):
        raise ValueError("eta and dt must be positive")
    coeff = eta * dt
    b = -_face_divergence(mesh, un.copy()).reshape(mesh.ny, mesh.nx)
    b_defl = _parity_deflate(b)
    bnorm = _norm(b_defl)

    x = _laplace_solve(mesh, b, 0.0, coeff)
    gx = grad_values(mesh, x)
    residual = _norm(b_defl + coeff * div_values(mesh, gx))
    if not residual <= PRESSURE_TOL * bnorm:
        raise RuntimeError(
            f"pressure solve missed its tolerance: residual {residual:.3e} "
            f"against {PRESSURE_TOL * bnorm:.3e}")
    return CellScalar(mesh, x), gx


def incomp_dt(state: IncompState, config: IncompConfig) -> float:
    """Largest admissible dt from ``face_dt_bound`` at t^n with coef = ETA,
    g = grad pi^n (the previous step's pressure, carried in ``state.gp``;
    computed when that is None) and right-hand side BETA_2D."""
    mesh = state.mesh
    gp = state.gp
    if gp is None:
        gp = grad_values(mesh, state.pi.values)
    return face_dt_bound(mesh, state.v.values, gp, ETA, BETA_2D,
                         config.dt_max)


def incomp_step(state: IncompState, config: IncompConfig,
                dt_cap: float | None = None) -> tuple[IncompState, IncompStepDiagnostics]:
    """Advance one step: pressure solve, then explicit upwind momentum update."""
    mesh = state.mesh
    dt_bound = incomp_dt(state, config)
    dt = dt_bound if dt_cap is None else min(dt_bound, dt_cap)

    ke_prev = state.ke
    if ke_prev is None:
        ke_prev = kinetic_energy(mesh, state.v.values)
    un = edge_normal_values(mesh, state.v.values)
    pi_new, gpi = pressure_solve(mesh, un, ETA, dt)

    dn = edge_normal_values(mesh, (ETA * dt) * gpi)
    split = split_advective_velocity(mesh, un, dn)

    v_new = CellVector(mesh, upwind_momentum(state.v.values, state.v.values,
                                             gpi, split, dt, dt))

    # divergence of the face velocity un - dn that the upwind flux transports
    div_residual = lp_norm(mesh, _face_divergence(mesh, un - dn), 2)

    ke = kinetic_energy(mesh, v_new.values)
    energy_ok = _energy_check(ke, ke_prev, state.step)

    new_state = IncompState(t=state.t + dt, v=v_new, pi=pi_new,
                            step=state.step + 1, ke=ke, gp=gpi)
    diag = IncompStepDiagnostics(
        step=new_state.step, t=new_state.t, dt=dt,
        kinetic_energy=ke, div_residual=div_residual, energy_ok=energy_ok,
        dt_bound=dt_bound,
    )
    return new_state, diag


def run_incomp(config: IncompConfig, mesh: Mesh, ic: IncompState,
               output_times=None) -> Trajectory:
    """March to t_final, landing exactly on each output time.  The output
    times must start at ``ic.t``, strictly increase and be finite, else
    ValueError.  The recorded states hold no pressure gradient (``gp`` is
    None)."""
    return _march(incomp_step, config, ic, output_times)
