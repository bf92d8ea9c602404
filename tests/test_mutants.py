"""A gate that can fail: each row plants a named defect (a mutant) by
monkeypatching, runs a case, applies an acceptance criterion's own check
and expects a verdict.  A mutant the check catches is killed; one it lets
through survives, and a survivor stays listed with the reason no run of
that case can show it.  The README's mutant table lists the same rows.

Each check runs on the unmutated scheme first and must pass there, so a
killed verdict is the mutant's doing and not a broken case."""

import numpy as np
import pytest

from apeuler import incompressible
from apeuler.cases import incomp_initial_data
from apeuler.fields import CellScalar
from apeuler.incompressible import IncompConfig, init_incomp, run_incomp
from apeuler.mesh import Mesh, MeshSpec
from conftest import taylor_green

#: criterion 10's bound on every limit step's divergence residual
#: (tests/test_acceptance.py, test_10_divergence_residuals)
LIMIT_RESIDUAL_BOUND = 1e-9


def _zero_pressure(mesh, un, eta, dt):
    """``pressure_solve`` returning pi = 0: the projection is skipped."""
    return CellScalar(mesh, np.zeros(mesh.ncells))


#: mutant name -> (module, attribute, replacement)
MUTANTS = {
    "pi=0": (incompressible, "pressure_solve", _zero_pressure),
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
]


@pytest.mark.parametrize("mutant, case, grid, check, verdict", ROWS)
def test_mutant_verdict(monkeypatch, mutant, case, grid, check, verdict):
    assert check(case, grid), "the unmutated scheme fails the check"
    monkeypatch.setattr(*MUTANTS[mutant])
    assert ("survives" if check(case, grid) else "killed") == verdict
