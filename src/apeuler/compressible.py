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
from .linsolve import _norm, solve_transport
from .mesh import Mesh
from .operators import (
    EdgeSplit,
    _face_difference,
    _face_sum,
    _laplace_solve,
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

#: Picard sweeps after which ``density_picard`` gives up, its relative stop
#: on consecutive iterates and each sweep's relative transport residual
PICARD_MAX_ITER = 50
PICARD_TOL = 1e-11
TRANSPORT_TOL = 1e-12
#: admissible density window of an accepted Picard iterate
RHO_LO = 1e-6
RHO_HI = 1e6
#: stabilization margin over the 3 / (2 min rho) of the stability rule, and
#: the fraction of the sufficient time-step bound a step takes; both schemes
ETA_MARGIN = 1.01
CFL_FRACTION = 0.9


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters the compressible and limit schemes share: the
    whole of a limit run's config (``incompressible.IncompConfig``)."""

    t_final: float = 0.02
    dt_max: float | None = None          # default: t_final / 50

    def __post_init__(self) -> None:
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(
                f"t_final must be positive and finite, got {self.t_final}")
        if self.dt_max is None:
            object.__setattr__(self, "dt_max", self.t_final / 50.0)
        if not 0.0 < self.dt_max < math.inf:
            raise ValueError(
                f"dt_max must be positive and finite, got {self.dt_max}")


@dataclass(frozen=True)
class CompConfig(SchemeConfig):
    """Scheme parameters for one compressible run."""

    gamma: float = 2.0
    eps: float = 1.0

    def __post_init__(self) -> None:
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must exceed 1 and be finite, got {self.gamma}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(
                f"eps must be positive and finite, got {self.eps}")
        super().__post_init__()


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
    # grad p(rho) under the gamma of the step that made this state, (ncells,
    # 2), carried into the next step's time-step bound; None: computed there
    gp: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_positive(self.rho.values)

    @property
    def mesh(self) -> Mesh:
        return self.rho.mesh


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step scalars: the fields without a default are the columns of a
    run's ``diagnostics.csv``, in order; the rest are in-memory extras."""

    step: int
    t: float
    dt: float
    picard_iters: int
    energy: float
    entropy: float
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


# ---------------------------------------------------------------------------
# equation of state and energies
# ---------------------------------------------------------------------------

def _check_positive(rho: np.ndarray) -> None:
    """Raise unless every density value is positive; a NaN fails too."""
    if not (rho > 0.0).all():
        raise ValueError("density must be positive everywhere")


def eos_values(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Pressure p = rho^gamma."""
    _check_positive(rho)
    return rho ** gamma


def pi_gamma_values(rho: np.ndarray, p: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Relative internal energy against unit density, Pi_gamma(rho) =
    psi(rho) - psi(1) - psi'(1)(rho - 1), of densities ``rho`` with
    pressures p = rho^gamma; psi(rho) = rho^gamma/(gamma-1) is the pressure
    potential and psi'(1) = gamma/(gamma-1)."""
    return (p - 1.0 - gamma * (rho - 1.0)) / (gamma - 1.0)


def _energies(vol: np.ndarray, rho: np.ndarray, u: np.ndarray, p: np.ndarray,
              eps: float, gamma: float) -> tuple[float, float]:
    """(total energy, entropy variant) of a positive density ``rho`` with
    p = rho^gamma and velocity ``u`` (ncells, 2): the kinetic-energy density
    is formed once for both; the energy takes psi = p/(gamma-1) and the
    entropy variant Pi_gamma."""
    ke = 0.5 * rho * np.einsum("kc,kc->k", u, u)
    energy = float(np.dot(vol, ke + p / (gamma - 1.0) / eps**2))
    pi = pi_gamma_values(rho, p, gamma)
    return energy, float(np.dot(vol, ke + pi / eps**2))


def total_energy(rho: CellScalar, u: CellVector, eps: float, gamma: float) -> float:
    """E = sum |K| (rho |u|^2 / 2 + psi(rho)/eps^2)."""
    return _energies(rho.mesh.cell_vol, rho.values, u.values,
                     eos_values(rho.values, gamma), eps, gamma)[0]


def total_entropy(rho: CellScalar, u: CellVector, eps: float, gamma: float,
                  v: CellVector | None = None) -> float:
    """Relative energy against the unit-density state with velocity ``v``,
    sum |K| (rho |u - v|^2 / 2 + Pi_gamma(rho)/eps^2); without ``v``, the
    state at rest, it is each step's entropy variant."""
    du = u.values if v is None else u.values - v.values
    return _energies(rho.mesh.cell_vol, rho.values, du,
                     eos_values(rho.values, gamma), eps, gamma)[1]


# ---------------------------------------------------------------------------
# scheme building blocks
# ---------------------------------------------------------------------------

def init_comp(rho0, u0, mesh: Mesh, eps: float,
              gamma: float = CompConfig.gamma) -> CompState:
    """Project pointwise initial data (rho0, u0) onto the mesh.

    ``u0`` is a pair of pointwise component functions.  The initial total
    energy (bounded uniformly in eps for well-prepared data) is logged.
    """
    rho = project(rho0, mesh)
    u = project_vector(u0[0], u0[1], mesh)
    state = CompState(t=0.0, rho=rho, u=u, step=0)
    log.info("initial data on %dx%d: energy %.12e (eps=%g), max|rho-1|=%.3e",
             mesh.nx, mesh.ny, total_energy(rho, u, eps, gamma), eps,
             float(np.abs(rho.values - 1.0).max()))
    return state


def _eta(rho_min: float) -> float:
    """eta = ETA_MARGIN * 3 / (2 rho_min), the stability rule of both
    schemes."""
    return ETA_MARGIN * 1.5 / rho_min


def eta_rule(rho_n: CellScalar) -> float:
    """Stabilization coefficient eta = ETA_MARGIN * 3 / (2 min_K rho^n_K)."""
    _check_positive(rho_n.values)
    return _eta(float(rho_n.values.min()))


def stabilization(mesh: Mesh, rho: np.ndarray, dt: float, eta: float,
                  eps: float, gamma: float = CompConfig.gamma) -> np.ndarray:
    """Face-normal velocity correction dn = du . nu per face, where
    du = (eta dt / eps^2) grad p(rho), from the fused face-gradient stencil;
    (2, ny, nx)."""
    dn = face_gradient_values(mesh, eos_values(rho, gamma))
    dn *= eta * dt / eps**2
    return dn


def face_dt_bound(mesh: Mesh, u: np.ndarray, g: np.ndarray, coef: float,
                  rhs, dt_max: float) -> float:
    """Largest dt with the sufficient per-face energy bound of both schemes.

    Per face sigma = K|L the bound reads
    dt * max(|bd K|/|K|, |bd L|/|L|) * (|{{u}}| + sqrt(coef |{{g}}|)) <= rhs,
    where ``u`` and ``g`` are per-cell (ncells, 2) arrays averaged onto the
    face and ``rhs > 0`` is a scalar or one value per face, (2, ny, nx).
    The result is scaled by CFL_FRACTION and capped at ``dt_max``.
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
        return float(dt_max)
    return float(min(CFL_FRACTION * (1.0 / worst), dt_max))


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


def comp_dt(state: CompState, eta: float, config: CompConfig) -> float:
    """Largest admissible dt from ``face_dt_bound`` at t^n with
    coef = eta/eps^2, g = grad p(rho^n) and the density-ratio right-hand side
    min(1, min(rho_K, rho_L) / (3 max(rho_K, rho_L))), all explicit at t^n;
    ``eta`` is ``eta_rule(state.rho)``.

    The min with 1 never binds: for positive densities the ratio min/max is
    at most 1, so the right-hand side is at most 1/3 and is passed as is."""
    mesh = state.mesh
    gp = state.gp
    if gp is None:
        gp = grad_values(mesh, eos_values(state.rho.values, config.gamma))

    rk = state.rho.values.reshape(mesh.ny, mesh.nx)
    rl = _neighbour(rk, rk)
    ratio = np.minimum(rk, rl) / np.maximum(rk, rl)
    return face_dt_bound(mesh, state.u.values, gp, eta / config.eps**2,
                         ratio / 3.0, config.dt_max)


def density_picard(rho_n: CellScalar, u_n: CellVector, dt: float, eta: float,
                   config: CompConfig) -> tuple[CellScalar, EdgeSplit, int, int]:
    """Solve the implicit mass balance by a stabilized Picard iteration.

    Each sweep freezes the upwind split at the current density iterate and
    solves a linear system for the next one.  The pressure-gradient shift is
    kept *inside* that linear system — linearized through p'(rho) at the
    iterate, with the upwind coefficient and sign pattern frozen — because a
    sweep that treats the shift explicitly contracts only for time steps of
    order eps*h, defeating the Mach-uniform step bound.  The linearization
    changes nothing about the fixed point: on convergence the density, the
    returned split, and the mass balance are those of the original scheme.
    Sweeps stop when consecutive iterates agree to PICARD_TOL * max rho in
    the max norm, or when the iterate already meets the sweep's residual
    target TRANSPORT_TOL ||b||, accepted unchanged without a linear solve;
    a converged reference run monkeypatches both constants, e.g. to 1e-14.
    A solve is right-preconditioned by (I - beta Lap)^{-1}, Lap the composed
    central Laplacian and beta from the mean density, which
    ``operators._laplace_solve`` inverts in Fourier space, only where the
    shift is stiff, beta * max(symbol of -Lap) >= 1;
    below that the inverse is within a factor 2 of the identity and the
    sweep solves unpreconditioned, which at eps ~ 1 is every sweep.
    ``eta`` is ``eta_rule(rho_n)``.  Returns the converged density, the
    frozen split of the accepting sweep (so the momentum update reuses the
    identical flux), the sweep count, and the Krylov iterations of the
    accepting sweep (0 when it accepted without a solve).  A failed
    transport solve, a loss of positivity, an exhausted sweep budget and a
    density outside [RHO_LO, RHO_HI] raise.
    """
    mesh = rho_n.mesh
    grid = (mesh.ny, mesh.nx)
    rho_l = rho_n.values.copy()
    coef = eta * dt * dt / config.eps**2
    un = edge_normal_values(mesh, u_n.values)
    symbol_max = float(_laplace_symbol(mesh).max())
    # per-family factors folded into each sweep's face coefficients, so one
    # face sum serves both: ``_face_divergence``'s 1/h, the stencil's 1/(4h)
    h = np.array([mesh.hx, mesh.hy])[:, None, None]
    upwind_scale = dt / h
    shift_scale = coef / (4.0 * h * h)

    for it in range(1, PICARD_MAX_ITER + 1):
        # stabilization checks the iterate positive (eos_values)
        dn = stabilization(mesh, rho_l, dt, eta, config.eps, config.gamma)
        # the unscaled split is kept for the momentum update; the sweep's
        # operator takes copies scaled by dt/h
        split = split_advective_velocity(mesh, un, dn)
        wplus = split.wplus * upwind_scale
        wminus = split.wminus * upwind_scale

        # upwind coefficient of the shift flux, frozen at this iterate:
        # the donor density attached to the active half of du per face
        rk = rho_l.reshape(grid)
        rl = _neighbour(rk, rk)
        c = np.where(dn > 0.0, rl, rk)
        # a face at rest (dn == 0) takes the average; there are none unless
        # the pressure is flat across a face's stencil, so average only when
        # some are
        rest = dn == 0.0
        if rest.any():
            np.copyto(c, 0.5 * (rk + rl), where=rest)
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
        target = TRANSPORT_TOL * _norm(b)
        # _upwind_flux(rk, wplus, wminus) on the neighbour grid built above
        flux = rl * wminus
        flux += rk * wplus
        r0 = b - (rho_l + _face_sum(flux) - shift_l)
        r0_norm = _norm(r0)
        if r0_norm <= target:
            # the iterate solves this sweep's system: no update to test
            iterations = 0
            break

        # right preconditioner (I - beta div grad)^{-1} where the shift is
        # stiff: the composed central Laplacian is diagonal in rfft2 space,
        # and beta >= 0 keeps the shifted operator positive definite
        rho_bar = float(np.dot(mesh.cell_vol, rho_l))   # mean, area 1
        beta = coef * config.gamma * rho_bar ** config.gamma
        M = None
        # below 1, 1 + beta * symbol < 2 on every mode: that close to the
        # identity, its FFTs cost more than the iterations they save
        if beta * symbol_max >= 1.0:
            M = lambda q: _laplace_solve(mesh, q, 1.0, beta)
        x, report = solve_transport(apply, r0, tol=target / r0_norm, M=M)
        if not report.converged:
            raise RuntimeError(
                f"transport solve failed in Picard sweep {it}: "
                f"residual {report.residual:.3e}")
        iterations = report.iterations
        rho_next = rho_l + x
        if not (rho_next > 0.0).all():
            raise RuntimeError(f"density lost positivity in Picard sweep {it}")

        delta = float(np.abs(rho_next - rho_l).max())
        # max|rho_l|: the iterate is positive
        scale = float(rho_l.max())
        rho_l = rho_next
        if delta <= PICARD_TOL * scale:
            break
    else:
        raise RuntimeError(
            f"Picard iteration did not converge in {PICARD_MAX_ITER} "
            f"sweeps (last update {delta:.3e})")

    lo, hi = float(rho_l.min()), float(rho_l.max())
    if not (RHO_LO <= lo and hi <= RHO_HI):
        raise RuntimeError(
            f"density [{lo:.3e}, {hi:.3e}] left the admissible window "
            f"[{RHO_LO:g}, {RHO_HI:g}]")
    return CellScalar(mesh, rho_l), split, it, iterations


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


def _energy_check(energy: float, prev: float, step: int) -> bool:
    """Energy inequality of a step of either scheme, ``energy <= prev`` up to
    a 1e-10 relative roundoff slack; a violation is logged, never raised."""
    ok = bool(energy <= prev * (1.0 + 1e-10))
    if not ok:
        log.warning("energy inequality violated at step %d: %.15e -> %.15e",
                    step, prev, energy)
    return ok


def comp_step(state: CompState, config: CompConfig,
              dt_cap: float | None = None) -> tuple[CompState, StepDiagnostics]:
    """Advance one step; never aborts on an energy-inequality violation."""
    mesh = state.mesh
    eps, gamma = config.eps, config.gamma

    # one eta for the bound, the density solve and the dissipation
    eta = eta_rule(state.rho)
    dt_bound = comp_dt(state, eta, config)
    dt = dt_bound if dt_cap is None else min(dt_bound, dt_cap)

    e_prev = state.energy
    if e_prev is None:
        e_prev = total_energy(state.rho, state.u, eps, gamma)
    rho_new, split, picard_iters, transport_iters = density_picard(
        state.rho, state.u, dt, eta, config)
    # rho^gamma once, for grad p and both energies
    p_new = eos_values(rho_new.values, gamma)
    gp_new = grad_values(mesh, p_new)
    u_new = velocity_update(state.rho, state.u, rho_new, gp_new, split, dt, eps)

    energy, entropy = _energies(mesh.cell_vol, rho_new.values, u_new.values,
                                p_new, eps, gamma)
    gp_sq = np.einsum("kc,kc->k", gp_new, gp_new)
    stab = (dt**2 / eps**4) * float(
        np.dot(mesh.cell_vol, (eta - 1.0 / rho_new.values) * gp_sq))
    energy_ok = _energy_check(energy, e_prev, state.step)

    new_state = CompState(t=state.t + dt, rho=rho_new, u=u_new,
                          step=state.step + 1, energy=energy, gp=gp_new)
    diag = StepDiagnostics(
        step=new_state.step, t=new_state.t, dt=dt,
        picard_iters=picard_iters,
        energy=energy, entropy=entropy,
        mass=float(np.dot(mesh.cell_vol, rho_new.values)),
        rho_min=float(rho_new.values.min()),
        rho_max=float(rho_new.values.max()),
        stab_dissipation=stab, energy_ok=energy_ok,
        dt_bound=dt_bound, transport_iters=transport_iters,
    )
    return new_state, diag


def default_output_times(t_final: float, count: int = 10) -> np.ndarray:
    """Initial and final time plus equispaced intermediates."""
    return np.linspace(0.0, t_final, count)


def _march(step, config, ic, output_times) -> Trajectory:
    """Advance ``ic`` with ``step(state, config, dt_cap=...)`` to each output
    time in turn (default: ``default_output_times(config.t_final)``), landing
    exactly on it.  The output times must start at ``ic.t``, within
    1e-12 max(t_final, 1), strictly increase and be finite; a ValueError
    names the first entry that does not.  A recorded state holds no pressure
    gradient: ``gp``, which only the next step's time-step bound reads, is
    None in it, while the march goes on with the gradient the step carried.

    Before the first step it allocates and frees one 4 MB block whose pages
    are never touched, which keeps glibc from handing the heap top back to
    the kernel after every step (see below).
    """
    # A step allocates and frees about 1 MB of numpy temporaries.  glibc
    # trims the heap top back to the kernel once more than its trim
    # threshold (128 kB by default) lies free there, so every step would
    # fault those pages in again.  Freeing a block that malloc had to mmap
    # raises glibc's dynamic mmap threshold to the block's size and its trim
    # threshold to twice that (mallopt(3)), here 4 MB and 8 MB; the block is
    # mapped and unmapped untouched, so it costs no resident memory.  Other
    # allocators ignore it.  A larger block keeps more freed memory resident:
    # 8 and 16 MB blocks raised the peak RSS of the 64^2 compressible
    # benchmark by 1-3 MB.
    np.empty(1 << 19)
    if output_times is None:
        output_times = default_output_times(config.t_final)
    output_times = np.asarray(output_times, dtype=np.float64)
    tiny = 1e-12 * max(config.t_final, 1.0)
    if output_times.ndim != 1 or output_times.size == 0:
        raise ValueError("output_times must be a non-empty 1-D sequence")
    ok = np.append(abs(output_times[0] - ic.t) <= tiny,
                   np.diff(output_times) > 0.0) & np.isfinite(output_times)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"output_times[{i}] = {float(output_times[i])!r}: output times "
            f"must start at the initial time {ic.t!r}, strictly increase "
            f"and be finite")

    state = ic
    times = [state.t]
    states = [replace(state, gp=None)]
    diagnostics = []

    for t_out in output_times[1:]:
        while state.t < t_out - tiny:
            state, diag = step(state, config, dt_cap=float(t_out - state.t))
            diagnostics.append(diag)
        state = replace(state, t=float(t_out))
        times.append(state.t)
        states.append(replace(state, gp=None))
    return Trajectory(mesh=ic.mesh, times=times, states=states,
                      diagnostics=diagnostics)


def run_comp(config: CompConfig, mesh: Mesh, ic: CompState,
             output_times=None) -> Trajectory:
    """March the scheme to t_final, landing exactly on each output time.
    The output times must start at ``ic.t``, strictly increase and be
    finite, else ValueError.  The recorded states hold no pressure gradient (``gp`` is
    None)."""
    return _march(comp_step, config, ic, output_times)
