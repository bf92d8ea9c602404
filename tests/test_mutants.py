"""A gate that can fail: each row plants a named defect (a mutant) by
monkeypatching, runs a case, applies an acceptance criterion's own check
and expects a verdict.  A mutant the check catches is killed; one it lets
through survives, and a survivor stays listed with the reason no run of
that case can show it.  The README's mutant table lists the same rows.

Each check runs on the unmutated scheme first and must pass there, so a
killed verdict is the mutant's doing and not a broken case."""

import numpy as np
import pytest

from apeuler import compressible, incompressible
from apeuler.cases import comp_initial_data, incomp_initial_data
from apeuler.compressible import CompConfig, init_comp, run_comp
from apeuler.fields import CellScalar
from apeuler.incompressible import IncompConfig, init_incomp, run_incomp
from apeuler.mesh import Mesh, MeshSpec
from conftest import taylor_green

#: criterion 10's bound on every limit step's divergence residual
#: (tests/test_acceptance.py, test_10_divergence_residuals)
LIMIT_RESIDUAL_BOUND = 1e-9

#: the compressible energy check's eps, one of criterion 03's
#: (tests/test_acceptance.py, EPS_COARSE)
ENERGY_EPS = 1e-2


def _zero_pressure(mesh, un, eta, dt):
    """``pressure_solve`` returning pi = 0 and its zero gradient: the
    projection is skipped."""
    return CellScalar(mesh, np.zeros(mesh.ncells)), np.zeros((mesh.ncells, 2))


#: mutant name -> (module, attribute, replacement)
MUTANTS = {
    "pi=0": (incompressible, "pressure_solve", _zero_pressure),
    "eta*0.1": (compressible, "ETA_MARGIN", 0.1 * compressible.ETA_MARGIN),
    "eta*0.5": (compressible, "ETA_MARGIN", 0.5 * compressible.ETA_MARGIN),
    "dt*16": (incompressible, "BETA_2D", 16.0 * incompressible.BETA_2D),
    "dt*64": (incompressible, "BETA_2D", 64.0 * incompressible.BETA_2D),
}

#: case name -> limit-scheme initial velocity
CASES = {
    "shear": incomp_initial_data,
    "taylor-green": taylor_green,
}


def _limit_residual_ok(case: str, grid: int) -> bool:
    """Criterion 10 on the limit scheme: every step's divergence residual,
    run to t = 0.02 on ``grid``^2, is at most the bound."""
    mesh = Mesh(MeshSpec(grid, grid))
    traj = run_incomp(IncompConfig(t_final=0.02), mesh,
                      init_incomp(CASES[case](), mesh))
    return max(d.div_residual for d in traj.diagnostics) <= LIMIT_RESIDUAL_BOUND


def _comp_energy_ok(case: str, grid: int) -> bool:
    """Criterion 03's energy check on the compressible scheme: every step,
    run on the shear, the one compressible case, at ``ENERGY_EPS`` to
    t = 0.02 in ten output intervals on ``grid``^2 with ``dt_max`` = 1, so
    that the step bound sets each step, keeps the energy inequality."""
    assert case == "shear", case
    mesh = Mesh(MeshSpec(grid, grid))
    rho0, u0 = comp_initial_data(ENERGY_EPS)
    traj = run_comp(CompConfig(eps=ENERGY_EPS, t_final=0.02, dt_max=1.0),
                    mesh, init_comp(rho0, u0, mesh, ENERGY_EPS))
    return all(d.energy_ok for d in traj.diagnostics)


def _limit_energy_ok(case: str, grid: int) -> bool:
    """Criterion 03's check on the limit scheme: every step, run to t = 0.5
    in ten output intervals on ``grid``^2 with ``dt_max`` = 1, keeps the
    kinetic energy non-increasing."""
    mesh = Mesh(MeshSpec(grid, grid))
    traj = run_incomp(IncompConfig(t_final=0.5, dt_max=1.0), mesh,
                      init_incomp(CASES[case](), mesh))
    return all(d.energy_ok for d in traj.diagnostics)


ROWS = [
    # the shear is stationary with v . grad v = 0, so its limit pressure is
    # zero and pi = 0 is the right answer: max residual 1.1e-15
    pytest.param("pi=0", "shear", 16, _limit_residual_ok, "survives",
                 id="pi=0-shear-16"),
    # max residual 0.63 on 16^2 and 0.74 on 32^2, against 1e-15 unmutated
    pytest.param("pi=0", "taylor-green", 16, _limit_residual_ok, "killed",
                 id="pi=0-taylor-green-16"),
    pytest.param("pi=0", "taylor-green", 32, _limit_residual_ok, "killed",
                 id="pi=0-taylor-green-32"),
    # 15 of 46 steps break the energy inequality, against 0 of 21 unmutated
    pytest.param("eta*0.1", "shear", 32, _comp_energy_ok, "killed",
                 id="eta*0.1-shear-32"),
    # eta > 3/(2 min rho) is a sufficient condition, not a necessary one:
    # at half the margin all 21 steps keep the inequality
    pytest.param("eta*0.5", "shear", 32, _comp_energy_ok, "survives",
                 id="eta*0.5-shear-32"),
    # the per-face step bound is sufficient, not sharp: at 16 times it all
    # 100 steps keep the inequality (1632 steps unmutated) ...
    pytest.param("dt*16", "taylor-green", 32, _limit_energy_ok, "survives",
                 id="dt*16-taylor-green-32"),
    # ... and at 64 times the first of 27 steps breaks it
    pytest.param("dt*64", "taylor-green", 32, _limit_energy_ok, "killed",
                 id="dt*64-taylor-green-32"),
]


@pytest.mark.parametrize("mutant, case, grid, check, verdict", ROWS)
def test_mutant_verdict(monkeypatch, mutant, case, grid, check, verdict):
    assert check(case, grid), "the unmutated scheme fails the check"
    monkeypatch.setattr(*MUTANTS[mutant])
    assert ("survives" if check(case, grid) else "killed") == verdict
