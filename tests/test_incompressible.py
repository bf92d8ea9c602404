"""Limit scheme: pressure kernel deflation, the Poisson solve against an
eigenmode oracle, the time-step bound, and per-step energy/constraint
diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeuler import incompressible
from apeuler.cases import incomp_initial_data
from apeuler.compressible import (CFL_FRACTION, CompConfig, CompState,
                                  comp_dt, eta_rule)
from apeuler.fields import CellScalar, CellVector
from apeuler.incompressible import (
    BETA_2D,
    ETA,
    IncompConfig,
    IncompState,
    incomp_dt,
    incomp_step,
    init_incomp,
    kinetic_energy,
    pressure_kernel_basis,
    pressure_solve,
    run_incomp,
)
from apeuler.linsolve import solve_deflated_spd
from apeuler.mesh import Mesh, MeshSpec
from apeuler.analysis import eoc
from apeuler.operators import (
    _laplace_symbol,
    div_values,
    edge_normal_values,
    grad_values,
    laplace_values,
    lp_norm,
)
from conftest import cell_scalar, cell_vector


def _shear_state(mesh):
    return init_incomp(incomp_initial_data(), mesh)


def _mean(q: CellScalar) -> float:
    """Volume-weighted mean over the unit square."""
    return float(np.dot(q.mesh.cell_vol, q.values))


def _solve(v: CellVector, eta: float, dt: float):
    """``pressure_solve`` for v^n, from its face-averaged normal velocity,
    which it must leave unchanged."""
    un = edge_normal_values(v.mesh, v.values)
    out = pressure_solve(v.mesh, un, eta, dt)
    np.testing.assert_array_equal(un, edge_normal_values(v.mesh, v.values))
    return out


def _deflated_rhs(v: CellVector) -> np.ndarray:
    """b = -div v with its kernel component B B^T b removed, B the
    ``pressure_kernel_basis``."""
    b = -div_values(v.mesh, v.values)
    basis = pressure_kernel_basis(v.mesh)
    return b - basis @ (basis.T @ b)


def _residual(pi: CellScalar, v: CellVector, eta: float, dt: float) -> float:
    """||b_defl + eta dt laplace(pi)||, recomputed here rather than taken
    from the solver."""
    lap = laplace_values(pi.mesh, pi.values)
    return float(np.linalg.norm(_deflated_rhs(v) + eta * dt * lap))


def _pressure(v: CellVector, eta: float, dt: float) -> CellScalar:
    """``pressure_solve`` with its residual held to 1e-12 ||div v||."""
    pi = _solve(v, eta, dt)
    div_norm = float(np.linalg.norm(div_values(v.mesh, v.values)))
    assert _residual(pi, v, eta, dt) <= 1e-12 * div_norm
    return pi


# ---------------------------------------------------------------------------
# configuration and invariants
# ---------------------------------------------------------------------------

def test_config_validation():
    for kwargs in ({"t_final": math.inf}, {"dt_max": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            IncompConfig(**kwargs)
    assert IncompConfig(t_final=1.0).dt_max == pytest.approx(0.02)
    # the compressible rule at rho = 1
    assert ETA == pytest.approx(1.515)
    assert ETA == eta_rule(cell_scalar(Mesh(MeshSpec(2, 2)), 1.0))


def test_beta_constants():
    assert BETA_2D == 0.125


def test_kinetic_energy_oracle(mesh4):
    v = cell_vector(mesh4, (3.0, 4.0))
    assert kinetic_energy(mesh4, v.values) == pytest.approx(12.5, rel=1e-14)
    assert kinetic_energy(mesh4, cell_vector(mesh4, (0.0, 0.0)).values) == 0.0


def test_init_incomp_zero_pressure(mesh16):
    state = _shear_state(mesh16)
    assert state.t == 0.0 and state.step == 0
    np.testing.assert_array_equal(state.pi.values, 0.0)
    # the diagonal shear has equal and opposite central differences in x and
    # y, so the projected field is discretely divergence-free up to roundoff
    assert float(np.abs(div_values(mesh16, state.v.values)).max()) <= 1e-11


# ---------------------------------------------------------------------------
# kernel basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nx,ny,ncols", [(4, 4, 4), (3, 4, 2), (5, 5, 1),
                                         (4, 3, 2), (8, 6, 4)])
def test_kernel_basis_shape_and_orthonormality(nx, ny, ncols):
    mesh = Mesh(MeshSpec(nx, ny))
    basis = pressure_kernel_basis(mesh)
    assert basis.shape == (mesh.ncells, ncols)
    np.testing.assert_allclose(basis.T @ basis, np.eye(ncols), atol=1e-14)


@pytest.mark.parametrize("nx,ny", [(4, 4), (3, 4), (5, 5), (8, 6)])
def test_kernel_basis_annihilated_exactly(nx, ny):
    # the long-stencil Laplacian differences equal values two cells apart,
    # so every kernel column maps to exact floating-point zero
    mesh = Mesh(MeshSpec(nx, ny))
    basis = pressure_kernel_basis(mesh)
    for k in range(basis.shape[1]):
        np.testing.assert_array_equal(laplace_values(mesh, basis[:, k]), 0.0)


# ---------------------------------------------------------------------------
# pressure solve
# ---------------------------------------------------------------------------

def test_pressure_solve_eigenmode_oracle():
    # v = (sin(2 pi x), 0): div v = shat cos(2 pi x) with shat = sin(2 pi h)/h,
    # and the composed Laplacian sees that mode as -shat^2, so
    # pi = -cos(2 pi x) / (eta dt shat)
    mesh = Mesh(MeshSpec(8, 8))
    x = mesh.cell_x[:, 0]
    v = CellVector(mesh, np.column_stack([np.sin(2.0 * np.pi * x),
                                          np.zeros(mesh.ncells)]))
    eta, dt = 1.5, 0.01
    pi = _pressure(v, eta, dt)
    shat = math.sin(2.0 * math.pi * mesh.hx) / mesh.hx
    expect = -np.cos(2.0 * np.pi * x) / (eta * dt * shat)
    np.testing.assert_allclose(pi.values, expect, rtol=1e-9, atol=1e-11)


def test_pressure_scales_inversely_with_eta(mesh16, rng):
    v = CellVector(mesh16, rng.standard_normal((mesh16.ncells, 2)))
    pi1 = _pressure(v, 1.2, 0.01)
    pi2 = _pressure(v, 2.4, 0.01)
    np.testing.assert_allclose(pi2.values, 0.5 * pi1.values,
                               rtol=1e-8, atol=1e-12)


def test_pressure_is_kernel_orthogonal(mesh16, rng):
    v = CellVector(mesh16, rng.standard_normal((mesh16.ncells, 2)))
    pi = _pressure(v, 1.515, 0.005)
    assert _mean(pi) == pytest.approx(0.0, abs=1e-12)
    comps = pressure_kernel_basis(mesh16).T @ pi.values
    np.testing.assert_allclose(comps, 0.0, atol=1e-11)


def test_pressure_solve_argument_validation(mesh4):
    v = cell_vector(mesh4, (1.0, 0.0))
    with pytest.raises(ValueError):
        _solve(v, 0.0, 0.01)
    with pytest.raises(ValueError):
        _solve(v, 1.5, -0.01)


def test_pressure_solve_nonconvergence_raises(mesh16, rng, monkeypatch):
    # a wrong symbol gives a wrong inverse; the recomputed true residual
    # against the stencil Laplacian must catch it
    v = CellVector(mesh16, rng.standard_normal((mesh16.ncells, 2)))
    monkeypatch.setattr(incompressible, "_laplace_symbol",
                        lambda mesh: 2.0 * _laplace_symbol(mesh))
    with pytest.raises(RuntimeError, match="pressure"):
        _solve(v, 1.5, 0.01)


# ids nx-ny-1.0 name the unit box height as the ids did when it was a
# parameter, so a row keeps its id
@pytest.mark.parametrize("nx,ny", [
    pytest.param(nx, ny, id=f"{nx}-{ny}-1.0")
    for nx, ny in [(3, 5), (8, 6), (33, 32), (32, 20)]])
def test_spectral_pressure_matches_deflated_cg(nx, ny, rng):
    mesh = Mesh(MeshSpec(nx, ny))
    v = CellVector(mesh, rng.standard_normal((mesh.ncells, 2)))
    eta, dt = 1.515, 0.003
    pi = _solve(v, eta, dt)

    b = -div_values(mesh, v.values)
    basis = pressure_kernel_basis(mesh)
    ref, ref_report = solve_deflated_spd(
        lambda q: -eta * dt * laplace_values(mesh, q), b, basis, tol=1e-13)
    assert ref_report.converged
    scale = float(np.linalg.norm(ref))
    assert float(np.linalg.norm(pi.values - ref)) <= 1e-10 * scale

    b_defl = _deflated_rhs(v)
    assert _residual(pi, v, eta, dt) <= 1e-12 * float(np.linalg.norm(b_defl))
    # b lies in the range of div, so its kernel component is roundoff
    assert (float(np.linalg.norm(b - b_defl))
            <= 1e-12 * float(np.linalg.norm(b)))
    np.testing.assert_allclose(basis.T @ pi.values, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# time step and stepping
# ---------------------------------------------------------------------------

def test_incomp_dt_uniform_flow_oracle(mesh4):
    # |bd K|/|K| = 16, |{{v}}| = 1, zero pressure: dt = 0.9 * (1/8) / 16
    cfg = IncompConfig(t_final=1.0, dt_max=1.0)
    state = IncompState(0.0, cell_vector(mesh4, (1.0, 0.0)),
                        cell_scalar(mesh4, 0.0))
    dt = incomp_dt(state, cfg)
    assert dt == pytest.approx(0.9 / 128.0, rel=1e-14)


@pytest.mark.parametrize("eps", [None, 1.0, 1e-2, 1e-4],
                         ids=["limit", "comp-eps1", "comp-eps0.01",
                              "comp-eps0.0001"])
def test_incomp_dt_matches_hypot_formula(rng, eps):
    # the per-face bound of each scheme written with np.hypot, faces as mean
    # of K and L: the limit scheme with grad pi, eta and BETA_2D, the
    # compressible one with grad p, eta/eps^2 and the density-ratio bound
    mesh = Mesh(MeshSpec(33, 20))
    u = rng.standard_normal((mesh.ncells, 2))
    if eps is None:
        cfg = IncompConfig(t_final=1.0, dt_max=1.0)
        state = IncompState(0.0, CellVector(mesh, u),
                            CellScalar(mesh, rng.standard_normal(mesh.ncells)))
        g = grad_values(mesh, state.pi.values)
        coef, rhs = ETA, (BETA_2D, BETA_2D)
        dt = incomp_dt(state, cfg)
    else:
        cfg = CompConfig(eps=eps, t_final=1.0, dt_max=1.0)
        state = CompState(0.0, CellScalar(mesh, rng.uniform(0.5, 2.0,
                                                            mesh.ncells)),
                          CellVector(mesh, u))
        g = grad_values(mesh, state.rho.values ** cfg.gamma)
        eta = eta_rule(state.rho)
        coef = eta / eps**2
        r = state.rho.values.reshape(mesh.ny, mesh.nx)
        rhs = [np.minimum(1.0, np.minimum(r, rn) / (3.0 * np.maximum(r, rn)))
               for rn in (np.roll(r, -1, axis=1), np.roll(r, -1, axis=0))]
        dt = comp_dt(state, eta, cfg)
    v = u.reshape(mesh.ny, mesh.nx, 2)
    g = g.reshape(mesh.ny, mesh.nx, 2)
    geo = 2.0 * (mesh.hx + mesh.hy) / (mesh.hx * mesh.hy)
    bounds = []
    for axis, r in zip((1, 0), rhs):
        va = 0.5 * (v + np.roll(v, -1, axis=axis))
        ga = 0.5 * (g + np.roll(g, -1, axis=axis))
        speed = np.hypot(va[..., 0], va[..., 1]) + np.sqrt(
            coef * np.hypot(ga[..., 0], ga[..., 1]))
        bounds.append(np.min(r / (geo * speed)))
    expect = CFL_FRACTION * min(bounds)
    assert dt == pytest.approx(expect, rel=1e-14)


def test_incomp_dt_rest_state_returns_cap(mesh4):
    cfg = IncompConfig(t_final=1.0, dt_max=0.25)
    state = IncompState(0.0, cell_vector(mesh4, (0.0, 0.0)),
                        cell_scalar(mesh4, 0.0))
    assert incomp_dt(state, cfg) == 0.25


def test_incomp_step_energy_and_constraint(mesh16):
    cfg = IncompConfig(t_final=0.02)
    state = _shear_state(mesh16)
    ke_prev = kinetic_energy(mesh16, state.v.values)
    for _ in range(5):
        state, diag = incomp_step(state, cfg)
        assert diag.energy_ok
        assert diag.kinetic_energy <= ke_prev * (1.0 + 1e-10)
        assert diag.div_residual <= 1e-9
        assert diag.dt <= diag.dt_bound
        assert _mean(state.pi) == pytest.approx(0.0, abs=1e-12)
        ke_prev = diag.kinetic_energy
    assert state.step == 5


@given(nx=st.integers(3, 12), ny=st.integers(3, 12),
       solenoidal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_incomp_step_invariants_on_random_grids(nx, ny, solenoidal, seed):
    # seeded velocity, either the perpendicular central gradient of a random
    # stream function (discretely divergence-free) or plain random; the
    # energy inequality, the constraint and the mean-zero pressure must hold
    # on every step of every grid shape
    mesh = Mesh(MeshSpec(nx, ny))
    rng = np.random.default_rng(seed)
    if solenoidal:
        g = grad_values(mesh, rng.standard_normal(mesh.ncells))
        v = np.column_stack((-g[:, 1], g[:, 0]))
    else:
        v = rng.standard_normal((mesh.ncells, 2))
    state = IncompState(0.0, CellVector(mesh, v / np.abs(v).max()),
                        cell_scalar(mesh, 0.0))
    cfg = IncompConfig(t_final=1.0, dt_max=1.0)
    for _ in range(4):
        state, diag = incomp_step(state, cfg)
        assert diag.energy_ok
        assert diag.div_residual <= 1e-12
        assert _mean(state.pi) == pytest.approx(0.0, abs=1e-12)


def test_incomp_step_honours_dt_cap(mesh16):
    cfg = IncompConfig(t_final=0.02)
    state = _shear_state(mesh16)
    new_state, diag = incomp_step(state, cfg, dt_cap=1e-6)
    assert diag.dt == 1e-6
    assert new_state.t == pytest.approx(1e-6)


def test_incomp_step_carries_its_kinetic_energy(mesh16):
    cfg = IncompConfig(t_final=0.02)
    s1, d1 = incomp_step(_shear_state(mesh16), cfg)
    assert s1.ke == d1.kinetic_energy == kinetic_energy(mesh16, s1.v.values)
    s2, d2 = incomp_step(s1, cfg)
    s2_fresh, d2_fresh = incomp_step(replace(s1, ke=None), cfg)
    assert d2 == d2_fresh and s2.ke == s2_fresh.ke
    _, d_zero = incomp_step(replace(s1, ke=0.0), cfg)
    assert not d_zero.energy_ok


def test_run_incomp_lands_on_output_times(mesh16):
    cfg = IncompConfig(t_final=0.004)
    state = _shear_state(mesh16)
    times = np.array([0.0, 0.002, 0.004])
    traj = run_incomp(cfg, mesh16, state, output_times=times)
    np.testing.assert_array_equal(traj.times, times)
    assert [s.t for s in traj.states] == list(times)
    assert len(traj.diagnostics) >= 2
    assert all(d.energy_ok for d in traj.diagnostics)


def test_first_order_decay_of_steady_shear():
    # the shear is a stationary Euler solution, so the only evolution is the
    # upwind dissipation of the scheme; the L2 distance from the (exact)
    # initial profile at T must shrink at first order in h
    errors, hs = [], []
    for n in (32, 64, 128):
        mesh = Mesh(MeshSpec(n, n))
        traj = run_incomp(IncompConfig(t_final=0.02), mesh,
                          _shear_state(mesh),
                          output_times=np.array([0.0, 0.02]))
        errors.append(lp_norm(mesh, traj.states[-1].v.values
                              - traj.states[0].v.values, 2))
        hs.append(mesh.h)
    # frozen from the implementation (regression pins, 2% slack):
    # first-order decay with rates approaching 1 from below
    np.testing.assert_allclose(
        errors, [2.1575e-2, 1.1611e-2, 5.9939e-3], rtol=2e-2)
    for rate in eoc(errors, hs):
        assert 0.75 <= rate <= 1.1
