"""Semi-implicit velocity-stabilized scheme for the compressible barotropic
Euler system with pressure law p(rho) = rho^gamma and Mach number eps.

One step advances (rho^n, u^n) -> (rho^{n+1}, u^{n+1}):

1.  the density solves the implicit upwind balance
    rho^{n+1} + dt * div_up(rho^{n+1}, w^n) = rho^n, where the advective
    velocity w^n = u^n - du^{n+1} is stabilized by the pressure-gradient
    correction du^{n+1} = (eta dt / eps^2) grad p(rho^{n+1}); the nonlinear
    coupling is resolved by Picard iteration on frozen split velocities;
2.  the momentum update is explicit, with the upwind flux carrying the
    product rho^{n+1} u^n of the donor cell and the stiff pressure gradient
    scaled by 1/eps^2.

Under the sufficient time-step bound (evaluated explicitly at t^n) the total
energy and its entropy variant are non-increasing; both are tracked per step
together with the stabilization dissipation entering the global bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import CellScalar, CellVector
from .linsolve import SolveReport, solve_transport
from .mesh import Mesh
from .operators import (
    EdgeSplit,
    _face_difference,
    _face_sum,
    _laplace_symbol,
    _neighbour,
    _upwind_flux,
    div_upwind_values,
    edge_normal_values,
    face_gradient_values,
    grad_values,
    project,
    project_vector,
    split_advective_velocity,
)

log = logging.getLogger(__name__)

__all__ = [
    "SchemeConfig",
    "CompConfig",
    "CompState",
    "StepDiagnostics",
    "Trajectory",
    "eos_values",
    "psi_values",
    "pi_gamma_values",
    "init_comp",
    "stabilization",
    "eta_rule",
    "face_dt_bound",
    "comp_dt",
    "density_picard",
    "upwind_momentum",
    "velocity_update",
    "comp_step",
    "run_comp",
    "total_energy",
    "total_entropy",
    "default_output_times",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters the compressible and limit schemes share."""

    eta_margin: float = 1.01
    cfl_fraction: float = 0.9
    t_final: float = 0.02
    dt_max: float | None = None          # default: t_final / 50

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl_fraction <= 1.0:
            raise ValueError(f"cfl_fraction must lie in (0,1], got {self.cfl_fraction}")
        if not self.eta_margin >= 1.0:
            raise ValueError(f"eta_margin must be >= 1, got {self.eta_margin}")
        if self.dt_max is None:
            object.__setattr__(self, "dt_max", self.t_final / 50.0)
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")


@dataclass(frozen=True)
class CompConfig(SchemeConfig):
    """Scheme parameters for one compressible run."""

    gamma: float = 2.0
    eps: float = 1.0
    picard_tol: float = 1e-11
    picard_max_iter: int = 50
    rho_lo: float = 1e-6
    rho_hi: float = 1e6
    transport_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        super().__post_init__()
        if not 0.0 < self.rho_lo < self.rho_hi:
            raise ValueError("density window must satisfy 0 < rho_lo < rho_hi")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")


@dataclass
class CompState:
    """Discrete solution at one time level."""

    t: float
    rho: CellScalar
    u: CellVector
    step: int = 0
    # total energy under the (eps, gamma) of the step that made this state,
    # carried into the next step's energy check; None: computed there
    energy: float | None = None

    def __post_init__(self) -> None:
        if np.any(self.rho.values <= 0.0):
            raise ValueError("density must be positive everywhere")

    @property
    def mesh(self) -> Mesh:
        return self.rho.mesh


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step scalars; the CSV columns plus in-memory extras."""

    step: int
    t: float
    dt: float
    picard_iters: int
    energy: float
    entropy_pi: float
    mass: float
    rho_min: float
    rho_max: float
    stab_dissipation: float
    energy_ok: bool
    # not part of the CSV schema:
    dt_bound: float = math.nan       # CFL value before any output-time clipping
    transport_iters: int = 0


@dataclass
class Trajectory:
    """States recorded at output times plus the full diagnostics series."""

    mesh: Mesh
    times: list
    states: list
    diagnostics: list


@dataclass(frozen=True)
class PicardReport(SolveReport):
    """Transport-solve report of the accepting sweep, plus the sweep count."""

    sweeps: int = 0


# ---------------------------------------------------------------------------
# equation of state and energies
# ---------------------------------------------------------------------------

def _check_positive(rho: np.ndarray) -> None:
    if np.any(rho <= 0.0):
        raise ValueError("non-positive density")


def eos_values(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Pressure p = rho^gamma."""
    _check_positive(rho)
    return rho ** gamma


def psi_values(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Pressure potential (internal energy density) rho^gamma/(gamma-1)."""
    _check_positive(rho)
    return rho ** gamma / (gamma - 1.0)


def pi_gamma_values(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Relative internal energy: psi minus its affine part at rho = 1."""
    _check_positive(rho)
    # psi(rho) - psi(1) - psi'(1)(rho - 1) with psi'(1) = gamma/(gamma-1)
    return (rho ** gamma - 1.0 - gamma * (rho - 1.0)) / (gamma - 1.0)


def total_energy(rho: CellScalar, u: CellVector, eps: float, gamma: float) -> float:
    """E = sum |K| (rho |u|^2 / 2 + psi(rho)/eps^2)."""
    vol = rho.mesh.cell_vol
    ke = 0.5 * rho.values * np.einsum("kc,kc->k", u.values, u.values)
    return float(np.dot(vol, ke + psi_values(rho.values, gamma) / eps**2))


def total_entropy(rho: CellScalar, u: CellVector, eps: float, gamma: float) -> float:
    """Entropy variant with the relative internal energy Pi_gamma."""
    vol = rho.mesh.cell_vol
    ke = 0.5 * rho.values * np.einsum("kc,kc->k", u.values, u.values)
    return float(np.dot(vol, ke + pi_gamma_values(rho.values, gamma) / eps**2))


# ---------------------------------------------------------------------------
# scheme building blocks
# ---------------------------------------------------------------------------

def init_comp(rho0, u0, mesh: Mesh, eps: float,
              gamma: float = 2.0) -> CompState:
    """Project pointwise initial data (rho0, u0) onto the mesh.

    ``u0`` is a pair of pointwise component functions.  The initial total
    energy (bounded uniformly in eps for well-prepared data) is logged.
    """
    rho = project(rho0, mesh)
    if np.any(rho.values <= 0.0):
        raise ValueError("projected initial density is not positive")
    u = project_vector(u0[0], u0[1], mesh)
    state = CompState(t=0.0, rho=rho, u=u, step=0)
    log.info("initial data on %dx%d: energy %.12e (eps=%g), max|rho-1|=%.3e",
             mesh.nx, mesh.ny, total_energy(rho, u, eps, gamma), eps,
             float(np.abs(rho.values - 1.0).max()))
    return state


def eta_rule(rho_n: CellScalar, eta_margin: float = 1.01) -> float:
    """Stabilization coefficient eta = margin * 3 / (2 min_K rho^n_K)."""
    rho_min = float(rho_n.values.min())
    if rho_min <= 0.0:
        raise ValueError("non-positive density")
    return eta_margin * 1.5 / rho_min


def stabilization(mesh: Mesh, rho: np.ndarray, dt: float, eta: float,
                  eps: float, gamma: float = 2.0) -> np.ndarray:
    """Face-normal velocity correction dn = du . nu per face, where
    du = (eta dt / eps^2) grad p(rho), from the fused face-gradient stencil;
    (2, ny, nx)."""
    dn = face_gradient_values(mesh, eos_values(rho, gamma))
    dn *= eta * dt / eps**2
    return dn


def face_dt_bound(mesh: Mesh, u: np.ndarray, g: np.ndarray, coef: float,
                  rhs, config) -> float:
    """Largest dt with the sufficient per-face energy bound of both schemes.

    Per face sigma = K|L the bound reads
    dt * max(|bd K|/|K|, |bd L|/|L|) * (|{{u}}| + sqrt(coef |{{g}}|)) <= rhs,
    where ``u`` and ``g`` are per-cell (ncells, 2) arrays averaged onto the
    face and ``rhs > 0`` is a scalar or one value per face, (2, ny, nx).
    The result is scaled by cfl_fraction and capped at dt_max.
    """
    # max(|bd K|/|K|, |bd L|/|L|), the same for every face of the uniform grid
    geo = 2.0 * (mesh.hx + mesh.hy) / (mesh.hx * mesh.hy)

    denom = _face_magnitude(mesh, g)
    denom *= coef
    np.sqrt(denom, out=denom)
    denom += _face_magnitude(mesh, u)
    denom *= geo
    # 1 / max(denom / rhs) rather than min(rhs / denom): no mask for faces at
    # rest, and a power-of-two rhs scales exactly
    denom /= rhs
    worst = float(denom.max())
    if worst == 0.0:
        return float(config.dt_max)
    return float(min(config.cfl_fraction * (1.0 / worst), config.dt_max))


def _face_magnitude(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """|{{w}}| per face of per-cell vectors ``w`` (ncells, 2); (2, ny, nx).

    sqrt(normal^2 + tangential^2), the tangential part being the normal one
    of the swapped components; the face averages stay far from overflow, so
    the plain square root is safe and several times cheaper than a hypot.
    """
    sq = edge_normal_values(mesh, w)
    sq *= sq
    tangential = edge_normal_values(mesh, w[:, ::-1])
    tangential *= tangential
    sq += tangential
    return np.sqrt(sq, out=sq)


def comp_dt(state: CompState, config: CompConfig) -> float:
    """Largest admissible dt from ``face_dt_bound`` at t^n with
    coef = eta/eps^2, g = grad p(rho^n) and the density-ratio right-hand side
    min(1, min(rho_K, rho_L) / (3 max(rho_K, rho_L))), all explicit at t^n.

    The min with 1 never binds: for positive densities the ratio min/max is
    at most 1, so the right-hand side is at most 1/3 and is passed as is."""
    mesh = state.mesh
    eta = eta_rule(state.rho, config.eta_margin)
    gp = grad_values(mesh, eos_values(state.rho.values, config.gamma))

    rk = state.rho.values.reshape(mesh.ny, mesh.nx)
    rl = _neighbour(rk, rk)
    ratio = np.minimum(rk, rl) / np.maximum(rk, rl)
    return face_dt_bound(mesh, state.u.values, gp, eta / config.eps**2,
                         ratio / 3.0, config)


def density_picard(rho_n: CellScalar, u_n: CellVector, dt: float,
                   config: CompConfig) -> tuple[CellScalar, EdgeSplit, float, SolveReport]:
    """Solve the implicit mass balance by a stabilized Picard iteration.

    Each sweep freezes the upwind split at the current density iterate and
    solves a linear system for the next one.  The pressure-gradient shift is
    kept *inside* that linear system — linearized through p'(rho) at the
    iterate, with the upwind coefficient and sign pattern frozen — because a
    sweep that treats the shift explicitly contracts only for time steps of
    order eps*h, defeating the Mach-uniform step bound.  The linearization
    changes nothing about the fixed point: on convergence the density, the
    returned split, and the mass balance are those of the original scheme.
    Sweeps stop when consecutive iterates agree to picard_tol in the max
    norm.  Returns the converged density, the final frozen split (so the
    momentum update reuses the identical flux), the eta used, and the last
    linear solve report.
    """
    mesh = rho_n.mesh
    grid = (mesh.ny, mesh.nx)
    eta = eta_rule(rho_n, config.eta_margin)
    rho_l = rho_n.values.copy()
    coef = eta * dt * dt / config.eps**2
    un = edge_normal_values(mesh, u_n.values)
    symbol = _laplace_symbol(mesh)
    # per-family factors folded into each sweep's face coefficients, so one
    # face sum serves both: ``_face_divergence``'s 1/h, the stencil's 1/(4h)
    h = np.array([mesh.hx, mesh.hy])[:, None, None]
    upwind_scale = dt / h
    shift_scale = coef / (4.0 * h * h)

    report = None
    for it in range(1, config.picard_max_iter + 1):
        _check_positive(rho_l)
        dn = stabilization(mesh, rho_l, dt, eta, config.eps, config.gamma)
        # the sweep needs the split only scaled, so it is scaled in place;
        # the unscaled split of the last sweep is rebuilt after the loop
        scaled = split_advective_velocity(mesh, un, dn)
        wplus, wminus = scaled.wplus, scaled.wminus
        wplus *= upwind_scale
        wminus *= upwind_scale

        # upwind coefficient of the shift flux, frozen at this iterate:
        # the donor density attached to the active half of du per face
        rk = rho_l.reshape(grid)
        rl = _neighbour(rk, rk)
        c = np.where(dn > 0.0, rl, np.where(dn < 0.0, rk, 0.5 * (rk + rl)))
        c *= shift_scale
        pp = config.gamma * rho_l ** (config.gamma - 1.0)

        def shift_flux(x: np.ndarray) -> np.ndarray:
            """Linearized pressure-gradient shift per face:
            coef (|sigma|/|K|) c_sigma {{grad (p' x)}}_sigma . nu."""
            f = _face_difference((pp * x).reshape(grid))
            f *= c
            return f

        def apply(x: np.ndarray) -> np.ndarray:
            """x + dt div_up(x) - coef * shift(x): one face flux and one
            net outflow."""
            f = _upwind_flux(x.reshape(grid), wplus, wminus)
            f -= shift_flux(x)
            out = _face_sum(f)
            out += x
            return out

        shift_l = _face_sum(shift_flux(rho_l))
        b = rho_n.values - shift_l

        # solve for the correction off the current iterate: the Krylov loop
        # then only has to shrink the (small) sweep residual down to the
        # tolerance of the full system, which stays reachable in float64
        # even when the shift terms carry h^-2/eps^2 scales
        target = config.transport_tol * float(np.linalg.norm(b))
        r0 = b - (rho_l + _face_sum(_upwind_flux(rk, wplus, wminus))
                  - shift_l)
        r0_norm = float(np.linalg.norm(r0))
        if r0_norm <= target:
            rho_next, report = rho_l, SolveReport(0, r0_norm, True)
        else:
            # right preconditioner (I - beta div grad)^{-1}: the composed
            # central Laplacian is diagonal in rfft2 space, and beta >= 0
            # keeps the shifted operator positive definite
            rho_bar = float(np.dot(mesh.cell_vol, rho_l))   # mean, area 1
            beta = coef * config.gamma * rho_bar ** config.gamma
            denom = 1.0 + beta * symbol

            def minv(q: np.ndarray) -> np.ndarray:
                spec = np.fft.rfft2(q.reshape(grid)) / denom
                return np.fft.irfft2(spec, s=grid).reshape(-1)

            x, report = solve_transport(apply, r0, tol=target / r0_norm,
                                        M=minv)
            if not report.converged:
                raise RuntimeError(
                    f"transport solve failed in Picard sweep {it}: "
                    f"residual {report.residual:.3e}")
            rho_next = rho_l + x
        if np.any(rho_next <= 0.0):
            raise RuntimeError(f"density lost positivity in Picard sweep {it}")

        delta = float(np.abs(rho_next - rho_l).max())
        scale = float(np.abs(rho_l).max())
        rho_l = rho_next
        if delta <= config.picard_tol * scale:
            break
    else:
        raise RuntimeError(
            f"Picard iteration did not converge in {config.picard_max_iter} "
            f"sweeps (last update {delta:.3e})")

    lo, hi = float(rho_l.min()), float(rho_l.max())
    if lo < config.rho_lo or hi > config.rho_hi:
        raise RuntimeError(
            f"density [{lo:.3e}, {hi:.3e}] left the admissible window "
            f"[{config.rho_lo:g}, {config.rho_hi:g}]")
    split = split_advective_velocity(mesh, un, dn)
    report = PicardReport(iterations=report.iterations,
                          residual=report.residual,
                          converged=report.converged, sweeps=it)
    return CellScalar(mesh, rho_l), split, eta, report


def upwind_momentum(m: np.ndarray, q: np.ndarray, g: np.ndarray,
                    split: EdgeSplit, dt: float, coef: float) -> np.ndarray:
    """Explicit upwind momentum balance of both schemes, per component:
    m - dt * div_up(q, split) - coef * g.

    ``m`` is the old momentum, ``q`` the donor-cell quantity the upwind flux
    transports and ``g`` the pressure gradient, all (ncells, 2) arrays.
    """
    out = np.empty_like(m)
    for c in range(2):
        conv = div_upwind_values(split.mesh, q[:, c], split.wplus, split.wminus)
        out[:, c] = m[:, c] - dt * conv - coef * g[:, c]
    return out


def velocity_update(rho_n: CellScalar, u_n: CellVector, rho_new: CellScalar,
                    gp: np.ndarray, split_w: EdgeSplit, dt: float,
                    eps: float) -> CellVector:
    """Explicit momentum balance, then division by the new density.

    ``gp`` is grad p(rho^{n+1}) as an (ncells, 2) array.  The upwind flux
    transports the donor-cell product rho^{n+1} u^n with the same frozen
    split the density solve used, so the pair satisfies the discrete
    mass/momentum balances with one common flux.
    """
    m_new = upwind_momentum(rho_n.values[:, None] * u_n.values,
                            rho_new.values[:, None] * u_n.values,
                            gp, split_w, dt, dt / eps**2)
    return CellVector(rho_n.mesh, m_new / rho_new.values[:, None])


def comp_step(state: CompState, config: CompConfig,
              dt_cap: float | None = None) -> tuple[CompState, StepDiagnostics]:
    """Advance one step; never aborts on an energy-inequality violation."""
    mesh = state.mesh
    eps, gamma = config.eps, config.gamma

    dt_bound = comp_dt(state, config)
    dt = dt_bound if dt_cap is None else min(dt_bound, dt_cap)

    e_prev = state.energy
    if e_prev is None:
        e_prev = total_energy(state.rho, state.u, eps, gamma)
    rho_new, split, eta, report = density_picard(state.rho, state.u, dt, config)
    gp_new = grad_values(mesh, eos_values(rho_new.values, gamma))
    u_new = velocity_update(state.rho, state.u, rho_new, gp_new, split, dt, eps)

    energy = total_energy(rho_new, u_new, eps, gamma)
    entropy = total_entropy(rho_new, u_new, eps, gamma)
    gp_sq = np.einsum("kc,kc->k", gp_new, gp_new)
    stab = (dt**2 / eps**4) * float(
        np.dot(mesh.cell_vol, (eta - 1.0 / rho_new.values) * gp_sq))
    energy_ok = bool(energy <= e_prev * (1.0 + 1e-10))
    if not energy_ok:
        log.warning("energy inequality violated at step %d: %.15e -> %.15e",
                    state.step, e_prev, energy)

    new_state = CompState(t=state.t + dt, rho=rho_new, u=u_new,
                          step=state.step + 1, energy=energy)
    diag = StepDiagnostics(
        step=new_state.step, t=new_state.t, dt=dt,
        picard_iters=report.sweeps,
        energy=energy, entropy_pi=entropy,
        mass=float(np.dot(mesh.cell_vol, rho_new.values)),
        rho_min=float(rho_new.values.min()),
        rho_max=float(rho_new.values.max()),
        stab_dissipation=stab, energy_ok=energy_ok,
        dt_bound=dt_bound, transport_iters=report.iterations,
    )
    return new_state, diag


def default_output_times(t_final: float, count: int = 10) -> np.ndarray:
    """Initial and final time plus equispaced intermediates."""
    if t_final == 0.0 or count < 2:
        return np.array([0.0])
    return np.linspace(0.0, t_final, count)


def _march(step, config, ic, output_times) -> Trajectory:
    """Advance ``ic`` with ``step(state, config, dt_cap=...)`` to each output
    time in turn (default: ``default_output_times(config.t_final)``), landing
    exactly on it."""
    if output_times is None:
        output_times = default_output_times(config.t_final)
    output_times = np.asarray(output_times, dtype=np.float64)

    state = ic
    times = [state.t]
    states = [state]
    diagnostics = []
    tiny = 1e-12 * max(config.t_final, 1.0)

    for t_out in output_times[1:]:
        while state.t < t_out - tiny:
            state, diag = step(state, config, dt_cap=float(t_out - state.t))
            diagnostics.append(diag)
        state = replace(state, t=float(t_out))
        times.append(state.t)
        states.append(state)
    return Trajectory(mesh=ic.mesh, times=times, states=states,
                      diagnostics=diagnostics)


def run_comp(config: CompConfig, mesh: Mesh, ic: CompState,
             output_times=None) -> Trajectory:
    """March the scheme to t_final, landing exactly on each output time."""
    return _march(comp_step, config, ic, output_times)
