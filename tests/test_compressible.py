"""Compressible scheme: equation of state, time-step bound, implicit density
solve, explicit momentum update, and the per-step energy/entropy monotonicity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeuler import compressible
from apeuler.cases import comp_initial_data, incomp_initial_data
from apeuler.compressible import (
    CompConfig,
    CompState,
    comp_dt,
    comp_step,
    default_output_times,
    density_picard,
    eos_values,
    eta_rule,
    face_dt_bound,
    init_comp,
    pi_gamma_values,
    run_comp,
    stabilization,
    total_energy,
    total_entropy,
    upwind_momentum,
    velocity_update,
)
from apeuler.fields import CellScalar, CellVector
from apeuler.incompressible import (ETA, IncompConfig, incomp_step,
                                   init_incomp, run_incomp)
from apeuler.mesh import Mesh, MeshSpec
from apeuler.operators import (
    div_upwind_values,
    edge_normal_values,
    grad_values,
    lp_norm,
    project,
    split_advective_velocity,
)
from conftest import cell_scalar, cell_vector, taylor_green


def _well_prepared_state(mesh, eps):
    rho0, u0 = comp_initial_data(eps)
    return init_comp(rho0, u0, mesh, eps)


# ---------------------------------------------------------------------------
# equation of state and energies
# ---------------------------------------------------------------------------

def test_eos_psi_pi_gamma_at_gamma_two(mesh2):
    rho = np.array([1.0, 2.0, 0.5, 3.0])
    np.testing.assert_allclose(eos_values(rho, 2.0), [1.0, 4.0, 0.25, 9.0])
    np.testing.assert_allclose(pi_gamma_values(rho, rho**2, 2.0),
                               [0.0, 1.0, 0.25, 4.0])
    # for gamma = 2: Pi(rho) = (rho - 1)^2, so at rest the entropy variant
    # is sum |K| (rho - 1)^2 / eps^2
    u = cell_vector(mesh2, (0.0, 0.0))
    for eps in (1.0, 0.5):
        assert total_entropy(CellScalar(mesh2, rho), u, eps, 2.0) == \
            pytest.approx(np.dot(mesh2.cell_vol, (rho - 1.0) ** 2) / eps**2,
                          rel=1e-14)


def test_pi_gamma_nonnegative_general_gamma(mesh2, rng):
    # at rest on a constant density r the entropy variant is |Omega| Pi(r)
    u = cell_vector(mesh2, (0.0, 0.0))
    for r in rng.uniform(0.1, 5.0, mesh2.ncells):
        assert total_entropy(cell_scalar(mesh2, r), u, 1.0, 1.4) >= 0.0
    rho = CellScalar(mesh2, rng.uniform(0.1, 5.0, mesh2.ncells))
    assert total_entropy(rho, u, 1.0, 1.4) >= 0.0
    assert total_entropy(cell_scalar(mesh2, 1.0), u, 1.0, 1.4) == \
        pytest.approx(0.0, abs=1e-15)


def test_eos_rejects_nonpositive():
    with pytest.raises(ValueError):
        eos_values(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        eos_values(np.array([-1.0, 1.0, 1.0, 1.0]), 2.0)
    # a NaN density is not positive either
    with pytest.raises(ValueError):
        eos_values(np.array([1.0, np.nan]), 2.0)


def test_total_energy_constant_state(mesh4):
    # rho = 1, u = 0: E = |Omega| psi(1)/eps^2 = 1/((gamma-1) eps^2)
    rho = cell_scalar(mesh4, 1.0)
    u = cell_vector(mesh4, (0.0, 0.0))
    assert total_energy(rho, u, 0.5, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert total_energy(rho, u, 1.0, 1.5) == pytest.approx(2.0, rel=1e-14)
    # the entropy variant vanishes at the reference state
    assert total_entropy(rho, u, 0.5, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_total_energy_kinetic_part(mesh4):
    rho = cell_scalar(mesh4, 2.0)
    u = cell_vector(mesh4, (3.0, 4.0))
    # KE = |Omega| * (1/2) * 2 * 25 = 25; internal = 4/eps^2
    assert total_energy(rho, u, 1.0, 2.0) == pytest.approx(29.0, rel=1e-14)


def test_total_entropy_bregman_oracle(mesh4):
    # rho = 2 against the unit density at rest, gamma = 2, eps = 1:
    # psi(2) - psi(1) - psi'(1) = 4 - 1 - 2 = 1 per unit volume
    zero = cell_vector(mesh4, (0.0, 0.0))
    assert total_entropy(cell_scalar(mesh4, 2.0), zero, 1.0, 2.0, zero) == \
        pytest.approx(1.0, rel=1e-14)


def test_total_entropy_kinetic_oracle(mesh4):
    # unit density, velocity gap (4, 6) - (1, 2) = (3, 4): (rho/2)|u - v|^2
    # = 12.5 per volume, whatever eps
    one = cell_scalar(mesh4, 1.0)
    u = cell_vector(mesh4, (4.0, 6.0))
    v = cell_vector(mesh4, (1.0, 2.0))
    for eps in (1.0, 1e-3):
        assert total_entropy(one, u, eps, 2.0, v) == \
            pytest.approx(12.5, rel=1e-14)


def test_total_entropy_zero_at_reference(mesh4, rng):
    one = cell_scalar(mesh4, 1.0)
    v = CellVector(mesh4, rng.standard_normal((mesh4.ncells, 2)))
    for gamma in (1.4, 2.0):
        assert total_entropy(one, v, 0.1, gamma, v) == 0.0


@pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
def test_total_entropy_against_rest_is_the_entropy_variant(mesh16, rng,
                                                           gamma):
    # a zero reference velocity gives the step's entropy variant bit for bit
    rho = CellScalar(mesh16, 1.0 + 0.1 * rng.uniform(-1.0, 1.0, mesh16.ncells))
    u = CellVector(mesh16, rng.standard_normal((mesh16.ncells, 2)))
    zero = cell_vector(mesh16, (0.0, 0.0))
    for eps in (1.0, 0.1):
        assert total_entropy(rho, u, eps, gamma, zero) == \
            total_entropy(rho, u, eps, gamma)


def test_total_entropy_rejects_bad_density(mesh4):
    zero = cell_vector(mesh4, (0.0, 0.0))
    with pytest.raises(ValueError):
        total_entropy(cell_scalar(mesh4, -1.0), zero, 1.0, 2.0, zero)
    # a NaN density is rejected, not summed into a NaN energy
    nan = CellScalar(mesh4, np.where(np.arange(16) == 3, np.nan, 1.0))
    with pytest.raises(ValueError):
        total_entropy(nan, zero, 1.0, 2.0, zero)


# ---------------------------------------------------------------------------
# configuration and initial data
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        CompConfig(gamma=1.0)
    with pytest.raises(ValueError):
        CompConfig(eps=0.0)
    # a non-finite value would march no steps or solve on NaN
    for kwargs in ({"gamma": math.inf}, {"eps": math.inf},
                   {"t_final": math.inf}, {"t_final": math.nan},
                   {"dt_max": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            CompConfig(**kwargs)


@pytest.mark.parametrize("scheme", [CompConfig, IncompConfig],
                         ids=["CompConfig", "IncompConfig"])
@pytest.mark.parametrize("kwargs, field", [
    pytest.param({"dt_max": 0.0}, "dt_max", id="0.0"),
    pytest.param({"dt_max": -1e-3}, "dt_max", id="-0.001"),
    # the default dt_max = t_final / 50 would be nonpositive too; the end
    # time is rejected first, by name
    pytest.param({"t_final": 0.0}, "t_final", id="t_final=0.0"),
    pytest.param({"t_final": -1.0}, "t_final", id="t_final=-1.0"),
])
def test_scheme_config_rejects_nonpositive_dt_max(scheme, kwargs, field):
    # a zero cap would march with dt = 0 forever
    with pytest.raises(ValueError, match=field):
        scheme(**kwargs)


@pytest.mark.parametrize("scheme", [CompConfig, IncompConfig],
                         ids=["CompConfig", "IncompConfig"])
@pytest.mark.parametrize("t_final", [0.0, -1.0],
                         ids=["t_final=0.0", "t_final=-1.0"])
def test_scheme_config_rejects_nonpositive_t_final(scheme, t_final):
    # with an explicit cap a negative end time would march no steps and
    # stamp the output states with negative times
    with pytest.raises(ValueError, match="t_final"):
        scheme(t_final=t_final, dt_max=0.1)


def test_config_default_dt_max():
    assert CompConfig(t_final=1.0).dt_max == pytest.approx(0.02)
    assert CompConfig(t_final=1.0, dt_max=0.5).dt_max == 0.5


def test_init_comp_rejects_nonpositive_density(mesh4):
    with pytest.raises(ValueError):
        init_comp(lambda x, y: 0.0 * x - 1.0,
                  (lambda x, y: 0.0 * x, lambda x, y: 0.0 * x), mesh4, 1.0)


def test_init_comp_well_prepared(mesh16):
    state = _well_prepared_state(mesh16, 1e-3)
    assert state.t == 0.0 and state.step == 0
    np.testing.assert_allclose(state.rho.values, 1.0, atol=2e-6)
    assert float(np.abs(state.rho.values - 1.0).max()) > 0.0


def test_state_rejects_nonpositive_density(mesh4):
    with pytest.raises(ValueError):
        CompState(t=0.0, rho=cell_scalar(mesh4, 0.0),
                  u=cell_vector(mesh4, (0.0, 0.0)))
    rho = np.ones(mesh4.ncells)
    rho[1] = np.nan
    with pytest.raises(ValueError):
        CompState(t=0.0, rho=CellScalar(mesh4, rho),
                  u=cell_vector(mesh4, (0.0, 0.0)))


def test_eta_rule_values(mesh4, monkeypatch):
    assert eta_rule(cell_scalar(mesh4, 1.0)) == pytest.approx(1.515)
    assert eta_rule(cell_scalar(mesh4, 2.0)) == pytest.approx(0.7575)
    # eta * rho_min > 3/2 strictly with ETA_MARGIN
    assert eta_rule(cell_scalar(mesh4, 1.0)) * 1.0 > 1.5
    # a density that is not positive has no eta, NaN included
    rho = np.ones(mesh4.ncells)
    for bad in (0.0, np.nan):
        rho[1] = bad
        with pytest.raises(ValueError):
            eta_rule(CellScalar(mesh4, rho))
    # the margin is read at call time
    monkeypatch.setattr(compressible, "ETA_MARGIN", 1.0)
    assert eta_rule(cell_scalar(mesh4, 1.0)) == 1.5


def test_stabilization_scaling(mesh16):
    # dn = (eta dt/eps^2) grad(rho^gamma) . nu per face; doubling dt
    # doubles it
    rho = CellScalar(mesh16, 1.0 + 0.1 * np.sin(
        2.0 * np.pi * mesh16.cell_x[:, 0]))
    a = stabilization(mesh16, rho.values, 0.01, 1.5, 0.1)
    b = stabilization(mesh16, rho.values, 0.02, 1.5, 0.1)
    assert a.shape == (2, 16, 16)
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-14)
    scale = float(np.abs(a).max())
    assert scale > 0.0
    # the fused face stencil is the face average of the cell gradient
    composed = edge_normal_values(mesh16, grad_values(mesh16, rho.values ** 2))
    np.testing.assert_allclose(a, (1.5 * 0.01 / 0.01) * composed,
                               rtol=1e-14, atol=1e-14 * scale)


# ---------------------------------------------------------------------------
# time-step bound
# ---------------------------------------------------------------------------

def test_comp_dt_uniform_flow_oracle(mesh4):
    # rho = 1, u = (1,0), grad p = 0 on the 4x4 unit mesh:
    # |bd K|/|K| = 1/0.0625 = 16, speed = 1, rhs = 1/3
    # => bound = 1/48, scaled by CFL_FRACTION 0.9
    cfg = CompConfig(t_final=1.0, dt_max=1.0)
    state = CompState(0.0, cell_scalar(mesh4, 1.0), cell_vector(mesh4, (1.0, 0.0)))
    dt = comp_dt(state, eta_rule(state.rho), cfg)
    assert dt == pytest.approx(0.9 / 48.0, rel=1e-14)


def test_comp_dt_rest_state_returns_cap(mesh4):
    cfg = CompConfig(t_final=1.0, dt_max=0.125)
    state = CompState(0.0, cell_scalar(mesh4, 1.0), cell_vector(mesh4, (0.0, 0.0)))
    assert comp_dt(state, eta_rule(state.rho), cfg) == 0.125


def test_comp_dt_stiff_pressure_scales_like_eps(mesh16):
    # with u = 0 the bound is ~ eps/sqrt(eta |grad p|), so a 10x smaller eps
    # shrinks dt by 10 -- the explicit-at-t^n evaluation, not the AP step
    rho = CellScalar(mesh16, 1.0 + 0.1 * np.sin(
        2.0 * np.pi * mesh16.cell_x[:, 0]))
    u = cell_vector(mesh16, (0.0, 0.0))
    dts = [comp_dt(CompState(0.0, rho, u), eta_rule(rho),
                   CompConfig(eps=e, t_final=1e3, dt_max=1e3))
           for e in (1e-1, 1e-2)]
    assert dts[0] / dts[1] == pytest.approx(10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# implicit density solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
def test_density_picard_solves_original_scheme(mesh16, eps):
    # the converged iterate satisfies the *nonlinear* balance
    # rho' - rho + dt div_up(rho', w(rho')) = 0 with the split recomputed
    # from rho' itself, i.e. the linearized sweeps share its fixed point
    cfg = CompConfig(eps=eps, t_final=1.0, dt_max=1.0)
    state = _well_prepared_state(mesh16, eps)
    eta = eta_rule(state.rho)
    dt = comp_dt(state, eta, cfg)
    rho_new, split, sweeps, _ = density_picard(state.rho, state.u, dt, eta,
                                               cfg)

    assert sweeps <= 5
    dn = stabilization(mesh16, rho_new.values, dt, eta, eps, cfg.gamma)
    recomputed = split_advective_velocity(
        mesh16, edge_normal_values(mesh16, state.u.values), dn)
    resid = (rho_new.values - state.rho.values
             + dt * div_upwind_values(mesh16, rho_new.values,
                                      recomputed.wplus, recomputed.wminus))
    rel = np.linalg.norm(resid) / np.linalg.norm(state.rho.values)
    assert rel <= 1e-10
    # the returned split is the converged one
    assert float(np.abs(recomputed.wplus - split.wplus).max()) <= 1e-8
    # positivity survives the solve
    assert float(rho_new.values.min()) > 0.0


@pytest.mark.parametrize("eps", [1.0, 1e-4])
def test_density_picard_conserves_mass(mesh16, eps):
    cfg = CompConfig(eps=eps, t_final=1.0, dt_max=1.0)
    state = _well_prepared_state(mesh16, eps)
    eta = eta_rule(state.rho)
    dt = comp_dt(state, eta, cfg)
    rho_new, _, _, _ = density_picard(state.rho, state.u, dt, eta, cfg)
    m0 = float(np.dot(mesh16.cell_vol, state.rho.values))
    m1 = float(np.dot(mesh16.cell_vol, rho_new.values))
    assert abs(m1 - m0) <= 1e-13 * m0


def test_density_picard_constant_state_is_fixed_point(mesh4):
    # the first sweep's residual is an exact zero, so that sweep accepts the
    # input as it is: no Krylov solve, and the split of that sweep
    cfg = CompConfig(eps=1e-2, t_final=1.0, dt_max=1.0)
    rho = cell_scalar(mesh4, 1.3)
    u = cell_vector(mesh4, (0.7, -0.2))
    dt, eta = 0.01, eta_rule(rho)
    rho_new, split, sweeps, iterations = density_picard(rho, u, dt, eta, cfg)
    assert (sweeps, iterations) == (1, 0)
    np.testing.assert_array_equal(rho_new.values, rho.values)
    expect = split_advective_velocity(
        mesh4, edge_normal_values(mesh4, u.values),
        stabilization(mesh4, rho.values, dt, eta, cfg.eps, cfg.gamma))
    np.testing.assert_array_equal(split.wplus, expect.wplus)
    np.testing.assert_array_equal(split.wminus, expect.wminus)


@pytest.mark.parametrize("picard_tol, accepted_by_solve", [
    (1e-11, False),   # sweeps solving in 3 and 1 iterations, then one without
    (1e-8, True),     # the second sweep's update already meets the stop
])
def test_comp_step_records_picard_counts(mesh16, monkeypatch, picard_tol,
                                         accepted_by_solve):
    # picard_iters counts the sweeps (one stabilization each) and
    # transport_iters the Krylov iterations of the accepting sweep only
    monkeypatch.setattr(compressible, "PICARD_TOL", picard_tol)
    # per sweep, the solves made before it; per solve, its iterations
    sweeps, solves = [], []
    stab, solve = compressible.stabilization, compressible.solve_transport

    def counting_stabilization(*args, **kwargs):
        sweeps.append(len(solves))
        return stab(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        solves.append(report.iterations)
        return x, report

    monkeypatch.setattr(compressible, "stabilization", counting_stabilization)
    monkeypatch.setattr(compressible, "solve_transport", counting_solve)
    _, diag = comp_step(_well_prepared_state(mesh16, 1.0),
                        CompConfig(eps=1.0, t_final=1.0, dt_max=1.0))

    assert diag.picard_iters == len(sweeps) >= 2
    assert (len(solves) == len(sweeps)) == accepted_by_solve
    if accepted_by_solve:
        assert diag.transport_iters == solves[-1] > 0
        assert diag.transport_iters < sum(solves)
    else:
        # the last sweep started after the last solve and made none
        assert sweeps[-1] == len(solves) and solves
        assert diag.transport_iters == 0


@pytest.mark.parametrize("nx,ny", [(20, 33), (33, 20), (7, 9)])
def test_spectral_divide_matches_rfft2(nx, ny):
    # the preconditioner's one-axis transforms are those of rfft2/irfft2,
    # bit for bit, on even, odd and mixed grids
    rng = np.random.default_rng(nx * ny)
    q = rng.standard_normal((ny, nx))
    denom = 1.0 + rng.random((ny, nx // 2 + 1))
    expect = np.fft.irfft2(np.fft.rfft2(q) / denom, s=(ny, nx)).reshape(-1)
    np.testing.assert_array_equal(compressible._spectral_divide(q, denom),
                                  expect)


def _count_preconditioning(monkeypatch) -> dict:
    """Count, from here on, the transport solves with and without the
    spectral preconditioner and its applies."""
    calls = {"plain": 0, "preconditioned": 0, "applies": 0}
    spectral_divide = compressible._spectral_divide
    solve = compressible.solve_transport

    def counting_divide(q, denom):
        calls["applies"] += 1
        return spectral_divide(q, denom)

    def counting_solve(A, b, tol, M=None):
        calls["plain" if M is None else "preconditioned"] += 1
        return solve(A, b, tol=tol, M=M)

    monkeypatch.setattr(compressible, "_spectral_divide", counting_divide)
    monkeypatch.setattr(compressible, "solve_transport", counting_solve)
    return calls


@pytest.mark.parametrize("eps, dt_share, stiff", [
    (1.0, 1.0, False),      # beta * max(symbol) = 9.3e-4
    (1e-2, 1.0, True),      # 10.2
    (1e-4, 1.0, True),      # 1.0e5
    (1e-2, 0.25, False),    # 0.64
])
def test_density_picard_preconditions_only_a_stiff_shift(
        mesh16, monkeypatch, eps, dt_share, stiff):
    # the FFT preconditioner runs only where 1 + beta * symbol reaches 2 on
    # some mode; the solve converges to the same tolerance either way
    cfg = CompConfig(eps=eps, t_final=1.0, dt_max=1.0)
    state = _well_prepared_state(mesh16, eps)
    eta = eta_rule(state.rho)
    dt = dt_share * comp_dt(state, eta, cfg)
    calls = _count_preconditioning(monkeypatch)
    density_picard(state.rho, state.u, dt, eta, cfg)

    solves = calls["plain"] + calls["preconditioned"]
    assert solves >= 1
    if stiff:
        assert calls["preconditioned"] == solves
        assert calls["applies"] >= solves
    else:
        assert calls["plain"] == solves
        assert calls["applies"] == 0


def test_run_comp_takes_both_solve_paths(monkeypatch):
    # at eps = 0.03 on 32^2 the shift turns stiff as dt grows to dt_max, so
    # one run solves both with and without the preconditioner, and keeps
    # the scheme's invariants across the switch
    mesh = Mesh(MeshSpec(32, 32))
    eps = 0.03
    state = _well_prepared_state(mesh, eps)
    calls = _count_preconditioning(monkeypatch)
    traj = run_comp(CompConfig(eps=eps), mesh, state)

    assert calls["plain"] > 0 and calls["preconditioned"] > 0
    diags = traj.diagnostics
    assert all(d.energy_ok for d in diags)
    assert all(d.rho_min > 0.0 for d in diags)
    m0 = float(np.dot(mesh.cell_vol, state.rho.values))
    assert max(abs(d.mass - m0) for d in diags) <= 1e-13 * m0


def test_density_picard_window_violation_raises(mesh16, monkeypatch):
    monkeypatch.setattr(compressible, "RHO_HI", 1.0 + 1e-6)
    cfg = CompConfig(eps=1.0, t_final=1.0, dt_max=1.0)
    state = _well_prepared_state(mesh16, 1.0)  # max rho ~ 2
    with pytest.raises(RuntimeError, match="window"):
        density_picard(state.rho, state.u, 1e-3, eta_rule(state.rho), cfg)


def test_density_picard_sweep_budget_raises(mesh16, monkeypatch):
    monkeypatch.setattr(compressible, "PICARD_MAX_ITER", 1)
    monkeypatch.setattr(compressible, "PICARD_TOL", 1e-15)
    cfg = CompConfig(eps=1e-2, t_final=1.0, dt_max=1.0)
    state = _well_prepared_state(mesh16, 1e-2)
    with pytest.raises(RuntimeError, match="Picard"):
        density_picard(state.rho, state.u, 8e-4, eta_rule(state.rho), cfg)


def test_face_dt_bound_matches_interleaved_reference():
    # the component-grid kernel against the bound written on interleaved
    # (ny, nx, 2) grids with np.roll, bit for bit, for C- and F-ordered
    # inputs on a non-square grid
    mesh = Mesh(MeshSpec(33, 20))
    rng = np.random.default_rng(11)
    u, g = rng.standard_normal((2, mesh.ncells, 2))
    rhs = 0.1 + rng.random((2, mesh.ny, mesh.nx))
    dt_max = 1.0
    coef = 3.0

    def face_avg(w):
        w = w.reshape(mesh.ny, mesh.nx, 2)
        avg = np.stack([np.roll(w, -1, axis=1 - a) for a in (0, 1)])
        avg = 0.5 * (w + avg)
        return np.sqrt(avg[..., 0] * avg[..., 0] + avg[..., 1] * avg[..., 1])

    geo = 2.0 * (mesh.hx + mesh.hy) / (mesh.hx * mesh.hy)
    denom = geo * (face_avg(u) + np.sqrt(coef * face_avg(g)))
    expect = min(compressible.CFL_FRACTION
                 * (1.0 / float((denom / rhs).max())), dt_max)
    for order in ("C", "F"):
        got = face_dt_bound(mesh, np.asarray(u, order=order),
                            np.asarray(g, order=order), coef, rhs, dt_max)
        assert got == expect


# ---------------------------------------------------------------------------
# momentum update and full step
# ---------------------------------------------------------------------------

def test_upwind_momentum_is_layout_independent():
    mesh = Mesh(MeshSpec(33, 32))
    rng = np.random.default_rng(12)
    m, q, g = rng.standard_normal((3, mesh.ncells, 2))
    un, dn = rng.standard_normal((2, 2, mesh.ny, mesh.nx))
    split = split_advective_velocity(mesh, un, dn)
    ref = upwind_momentum(m, q, g, split, 0.01, 0.5)
    for c in range(2):
        expect = (m[:, c] - 0.01 * div_upwind_values(
            mesh, q[:, c], split.wplus, split.wminus) - 0.5 * g[:, c])
        assert np.array_equal(ref[:, c], expect)
    out = upwind_momentum(*(np.asfortranarray(a) for a in (m, q, g)),
                          split, 0.01, 0.5)
    assert out.T.flags.c_contiguous
    assert np.array_equal(out, ref)


def test_velocity_update_constant_state_exact(mesh4):
    rho = cell_scalar(mesh4, 1.5)
    u = cell_vector(mesh4, (0.8, -0.3))
    un = edge_normal_values(mesh4, u.values)
    split = split_advective_velocity(mesh4, un, np.zeros_like(un))
    gp = grad_values(mesh4, eos_values(rho.values, 2.0))
    u_new = velocity_update(rho, u, rho, gp, split, 0.01, 1.0)
    # zero flux sum and zero pressure gradient; only the rho*u/rho round trip
    # is allowed to produce an ulp
    np.testing.assert_allclose(u_new.values, u.values, rtol=1e-15)


def test_velocity_update_pressure_gradient_only(mesh16):
    # u = 0 and frozen zero split: du/dt = -(1/(eps^2 rho)) grad p exactly
    rho = CellScalar(mesh16, 1.0 + 0.1 * np.sin(
        2.0 * np.pi * mesh16.cell_x[:, 0]))
    u = cell_vector(mesh16, (0.0, 0.0))
    un = edge_normal_values(mesh16, u.values)
    split = split_advective_velocity(mesh16, un, un)
    dt, eps = 1e-3, 0.5
    gp = grad_values(mesh16, eos_values(rho.values, 2.0))
    u_new = velocity_update(rho, u, rho, gp, split, dt, eps)
    expect = -(dt / eps**2) * gp / rho.values[:, None]
    np.testing.assert_allclose(u_new.values, expect, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("eps", [1.0, 1e-2])
def test_comp_step_energy_and_entropy_monotone(mesh16, eps):
    cfg = CompConfig(eps=eps, t_final=0.02)
    state = _well_prepared_state(mesh16, eps)
    e_prev = total_energy(state.rho, state.u, eps, cfg.gamma)
    s_prev = total_entropy(state.rho, state.u, eps, cfg.gamma)
    mass0 = float(np.dot(mesh16.cell_vol, state.rho.values))
    for _ in range(5):
        state, diag = comp_step(state, cfg)
        assert diag.energy_ok
        assert diag.energy <= e_prev * (1.0 + 1e-10)
        assert diag.entropy <= s_prev * (1.0 + 1e-10)
        assert diag.mass == pytest.approx(mass0, rel=1e-12)
        assert diag.rho_min > 0.0
        assert diag.dt <= diag.dt_bound
        assert diag.picard_iters >= 1
        e_prev, s_prev = diag.energy, diag.entropy
    assert state.step == 5


@given(nx=st.integers(3, 12), ny=st.integers(3, 12),
       gamma=st.floats(1.0, 3.0, exclude_min=True),
       log_eps=st.floats(-8.0, 0.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_comp_step_invariants_on_random_grids(nx, ny, gamma, log_eps, seed):
    # well-prepared seeded data: density 1 + O(eps^2) and a velocity that is
    # the perpendicular central gradient of a random stream function, hence
    # discretely divergence-free; mass, momentum, positivity and the energy
    # inequality must hold on every step of every grid shape
    eps = 10.0 ** log_eps
    mesh = Mesh(MeshSpec(nx, ny))
    rng = np.random.default_rng(seed)
    rho = CellScalar(mesh, 1.0 + eps**2 * rng.uniform(0.0, 1.0, mesh.ncells))
    g = grad_values(mesh, rng.standard_normal(mesh.ncells))
    u = np.column_stack((-g[:, 1], g[:, 0]))
    state = CompState(0.0, rho, CellVector(mesh, u / np.abs(u).max()))
    cfg = CompConfig(gamma=gamma, eps=eps, t_final=1.0, dt_max=1.0)
    mass0 = float(np.dot(mesh.cell_vol, rho.values))
    mom0 = mesh.cell_vol @ (rho.values[:, None] * state.u.values)
    for _ in range(4):
        state, diag = comp_step(state, cfg)
        assert abs(diag.mass - mass0) <= 1e-13 * mass0
        m = state.rho.values[:, None] * state.u.values
        assert np.all(np.abs(mesh.cell_vol @ m - mom0)
                      <= 1e-13 * (mesh.cell_vol @ np.abs(m)))
        assert diag.rho_min > 0.0
        assert diag.energy_ok


def test_comp_step_honours_dt_cap(mesh16):
    cfg = CompConfig(eps=1.0, t_final=0.02)
    state = _well_prepared_state(mesh16, 1.0)
    new_state, diag = comp_step(state, cfg, dt_cap=1e-5)
    assert diag.dt == 1e-5
    assert diag.dt_bound > 1e-5
    assert new_state.t == pytest.approx(1e-5)


def test_comp_step_carries_its_energy(mesh16):
    # the next step's energy check reads the carried value, which is the
    # energy a state built without it computes, bit for bit; so is the
    # step's entropy
    cfg = CompConfig(eps=1e-2, t_final=0.02)
    state = _well_prepared_state(mesh16, 1e-2)
    s1, d1 = comp_step(state, cfg)
    assert s1.energy == d1.energy == total_energy(s1.rho, s1.u, 1e-2, cfg.gamma)
    assert d1.entropy == total_entropy(s1.rho, s1.u, 1e-2, cfg.gamma)
    s2, d2 = comp_step(s1, cfg)
    s2_fresh, d2_fresh = comp_step(replace(s1, energy=None), cfg)
    assert d2 == d2_fresh and s2.energy == s2_fresh.energy
    _, d_zero = comp_step(replace(s1, energy=0.0), cfg)
    assert not d_zero.energy_ok


def test_comp_step_carries_its_pressure_gradient(mesh16):
    # the next step's time-step bound reads the carried grad p(rho^{n+1}),
    # which is the gradient a state built without it computes, bit for bit
    cfg = CompConfig(eps=1e-2, t_final=0.02)
    state = _well_prepared_state(mesh16, 1e-2)
    assert state.gp is None
    s1, _ = comp_step(state, cfg)
    np.testing.assert_array_equal(
        s1.gp, grad_values(mesh16, eos_values(s1.rho.values, cfg.gamma)))
    fresh = replace(s1, gp=None)
    eta = eta_rule(s1.rho)
    assert comp_dt(s1, eta, cfg) == comp_dt(fresh, eta, cfg)
    s2, d2 = comp_step(s1, cfg)
    s2_fresh, d2_fresh = comp_step(fresh, cfg)
    assert d2 == d2_fresh
    np.testing.assert_array_equal(s2.u.values, s2_fresh.u.values)
    np.testing.assert_array_equal(s2.gp, s2_fresh.gp)
    # the bound reads the carried value: a steeper gradient, a smaller dt
    assert comp_dt(replace(s1, gp=1e6 * s1.gp), eta, cfg) < \
        comp_dt(s1, eta, cfg)


def test_default_output_times():
    np.testing.assert_allclose(default_output_times(1.0, 5),
                               [0.0, 0.25, 0.5, 0.75, 1.0])


def test_run_comp_lands_on_output_times(mesh16):
    cfg = CompConfig(eps=1.0, t_final=0.004)
    state = _well_prepared_state(mesh16, 1.0)
    times = np.array([0.0, 0.002, 0.004])
    traj = run_comp(cfg, mesh16, state, output_times=times)
    np.testing.assert_array_equal(traj.times, times)
    # the carried pressure gradient is not kept in the recorded states
    assert all(s.gp is None for s in traj.states)
    assert [s.t for s in traj.states] == list(times)
    assert len(traj.diagnostics) >= 2
    steps = [d.step for d in traj.diagnostics]
    assert steps == list(range(1, len(steps) + 1))
    assert traj.diagnostics[-1].t == pytest.approx(0.004, abs=1e-12)


def test_velocity_gap_to_limit_is_order_eps_squared():
    # with both schemes on the same dt_max the final-time L1 velocity gap to
    # the limit scheme falls by ~100 per decade of eps (the asymptotic-
    # preserving property), the same window as the density asymptotics;
    # with unequal steps it would flatten at a time-step floor instead
    mesh = Mesh(MeshSpec(32, 32))
    t_final, dt_max = 0.02, 1e-4
    limit = run_incomp(IncompConfig(t_final=t_final, dt_max=dt_max), mesh,
                       init_incomp(incomp_initial_data(), mesh))
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = CompConfig(eps=eps, t_final=t_final, dt_max=dt_max)
        u = run_comp(cfg, mesh, _well_prepared_state(mesh, eps)).states[-1].u
        gaps.append(lp_norm(mesh, u.values - limit.states[-1].v.values, 1))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 50.0 <= coarse / fine <= 200.0, gaps


def test_one_step_tends_to_the_limit_step(monkeypatch):
    # the discrete AP limit at fixed h and dt (README, "The one-step AP
    # limit"): two limit steps give v^1, pi^1 and v^2; one compressible step
    # from p(rho) = 1 + eps^2 pi^1, u = v^1 lands at L1 distance
    # C |v^2 - v^1| eps^2 / (eps^2 + kappa dt^2) from v^2, kappa = eta gamma
    # (4 pi)^2 on the pressure mode; C is read off the eps = 0.1 step
    monkeypatch.setattr(compressible, "PICARD_TOL", 1e-14)
    monkeypatch.setattr(compressible, "TRANSPORT_TOL", 1e-14)
    mesh = Mesh(MeshSpec(32, 32))
    dt, gamma = 5e-5, 2.0
    limit_cfg = IncompConfig(t_final=1.0, dt_max=dt)
    s1, d1 = incomp_step(init_incomp(taylor_green(), mesh), limit_cfg)
    s2, d2 = incomp_step(s1, limit_cfg)
    assert d1.dt == d2.dt == dt
    step = lp_norm(mesh, s2.v.values - s1.v.values, 1)
    kappa = ETA * gamma * (4.0 * math.pi) ** 2

    def prefactor(eps):
        rho = (1.0 + eps**2 * s1.pi.values) ** (1.0 / gamma)
        state = CompState(0.0, CellScalar(mesh, rho), s1.v)
        new, diag = comp_step(state, CompConfig(t_final=1.0, dt_max=dt,
                                                eps=eps, gamma=gamma))
        assert diag.dt == dt
        gap = lp_norm(mesh, new.u.values - s2.v.values, 1)
        return gap / (step * eps**2 / (eps**2 + kappa * dt**2))

    c = prefactor(1e-1)
    assert c == pytest.approx(1.835, rel=1e-2)
    ratios = [prefactor(eps) / c for eps in (1e-3, 1e-4, 1e-5)]
    assert all(1.0 / 1.5 <= r <= 1.5 for r in ratios), ratios


#: Picard sweeps per step that no eps may exceed on the run below; 3.00 is
#: the largest measured, at eps = 1
SWEEPS_PER_STEP_CAP = 3.5


def test_cost_per_unit_time_is_mach_uniform():
    # the scheme's reason to exist: with dt_max out of the way, the step
    # bound sets the step count, and neither it nor the Picard sweeps per
    # step grow as eps -> 0.  Measured on 32^2 (steps/sweeps): 78/234,
    # 44/131, 16/34, 14/20, 13/14, 13/14, 13/13 from eps = 1 to 1e-6
    mesh = Mesh(MeshSpec(32, 32))
    counts = {}
    for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        traj = run_comp(CompConfig(eps=eps, t_final=0.02, dt_max=1.0), mesh,
                        _well_prepared_state(mesh, eps), [0.0, 0.02])
        counts[eps] = (len(traj.diagnostics),
                       sum(d.picard_iters for d in traj.diagnostics))
    assert all(steps <= counts[1.0][0] for steps, _ in counts.values()), counts
    assert all(sweeps <= SWEEPS_PER_STEP_CAP * steps
               for steps, sweeps in counts.values()), counts


def _taylor_green_pressure(x, y):
    """The limit pressure (cos 4 pi x + cos 4 pi y)/4 of ``taylor_green``."""
    return (np.cos(4.0 * np.pi * x) + np.cos(4.0 * np.pi * y)) / 4.0


def _distance_to_taylor_green(grid, eps):
    """Run well-prepared Taylor-Green data, rho = 1 + eps^2 (pi + 1/2)/2 at
    gamma = 2, to t = 0.05 in one output interval; returns the final state's
    kinetic part 1/2 sum |K| rho |u - V|^2 of the relative energy against
    the steady solution V (the projected initial velocity), its internal
    part sum |K| (rho - 1)^2 / eps^2, and the L1 gap of (p - 1)/eps^2 to
    the cell averages of pi, both means removed."""
    mesh = Mesh(MeshSpec(grid, grid))
    ic = init_comp(lambda x, y: 1.0 + eps**2 * (
                       _taylor_green_pressure(x, y) + 0.5) / 2.0,
                   taylor_green(), mesh, eps)
    final = run_comp(CompConfig(eps=eps, t_final=0.05, dt_max=1.0), mesh, ic,
                     [0.0, 0.05]).states[-1]
    rho, u, v = final.rho.values, final.u.values, ic.u.values
    kinetic = 0.5 * np.dot(mesh.cell_vol,
                           rho * np.einsum("kc,kc->k", u - v, u - v))
    internal = np.dot(mesh.cell_vol, (rho - 1.0) ** 2) / eps**2
    q = (eos_values(rho, 2.0) - 1.0) / eps**2
    pi = project(_taylor_green_pressure, mesh).values
    gap = lp_norm(mesh, (q - q.mean()) - (pi - pi.mean()), 1)
    return kinetic, internal, gap


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_compressible_runs_approach_the_incompressible_solution(eps):
    # the AP diagram against the exact solution: as h falls at fixed eps the
    # kinetic part of the relative energy to the steady Taylor-Green flow
    # falls at first order in L2 (measured 3.47 and 3.57 per halving), the
    # internal part stays the data's own 5/64 eps^2 (measured 0.93-1.15
    # times it), and the pressure is the limit pressure (measured gaps
    # 0.023-0.066)
    coarse, fine = (_distance_to_taylor_green(grid, eps) for grid in (16, 32))
    assert coarse[0] >= 3.0 * fine[0], (coarse, fine)
    for kinetic, internal, gap in (coarse, fine):
        assert 1.0 / 1.3 <= internal / (5.0 / 64.0 * eps**2) <= 1.3, internal
        assert gap <= 0.1, gap
