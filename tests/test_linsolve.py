"""Krylov solvers: hand-solvable systems, singular-system deflation and
reported residuals."""

import numpy as np
import pytest

from apeuler import linsolve
from apeuler.linsolve import solve_deflated_spd, solve_transport


def _dense_op(m: np.ndarray):
    m = np.asarray(m, dtype=np.float64)
    return lambda x: m @ x


# ---------------------------------------------------------------------------
# transport solver (BiCGStab)
# ---------------------------------------------------------------------------

def test_transport_identity_single_iteration(rng):
    b = rng.standard_normal(12)
    x, rep = solve_transport(_dense_op(np.eye(12)), b, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= 1
    np.testing.assert_allclose(x, b, rtol=1e-12)


def test_transport_converged_exit_applies_operator_once_more(rng):
    # one apply for the search direction and one for the true residual of
    # the converged iterate, which the report then carries
    applies = []
    op = _dense_op(np.eye(12))

    def counted(x):
        applies.append(1)
        return op(x)

    b = rng.standard_normal(12)
    x, rep = solve_transport(counted, b, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    assert len(applies) == 2
    assert rep.residual == float(np.linalg.norm(b - x))


def test_transport_zero_rhs():
    x, rep = solve_transport(_dense_op(np.eye(4)), np.zeros(4))
    assert rep.converged
    assert rep.iterations == 0
    np.testing.assert_array_equal(x, 0.0)


def test_transport_3x3_hand_oracle():
    # [[2,1,0],[0,3,1],[1,0,4]] x = (3, 6, 13): forward elimination gives
    # x = (1, 1, 3)
    m = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
    b = np.array([3.0, 6.0, 13.0])
    x, rep = solve_transport(_dense_op(m), b, tol=1e-13)
    assert rep.converged
    np.testing.assert_allclose(x, [1.0, 1.0, 3.0], rtol=1e-11)


def test_transport_reported_residual_is_true_residual(rng):
    m = np.eye(20) + 0.3 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    op = _dense_op(m)
    x, rep = solve_transport(op, b, tol=1e-11)
    assert rep.converged
    true = float(np.linalg.norm(b - op(x)))
    assert rep.residual == pytest.approx(true, rel=1e-12, abs=1e-300)
    assert true <= 1e-11 * np.linalg.norm(b)


def test_transport_nonconvergence_is_flagged_not_raised(rng, caplog,
                                                        monkeypatch):
    m = np.eye(16) + 0.4 * rng.standard_normal((16, 16))
    b = rng.standard_normal(16)
    monkeypatch.setattr(linsolve, "TRANSPORT_MAX_ITER", 1)
    with caplog.at_level("WARNING", logger="apeuler.linsolve"):
        x, rep = solve_transport(_dense_op(m), b, tol=1e-14)
    assert not rep.converged
    assert rep.residual > 1e-14 * np.linalg.norm(b)
    assert any("did not converge" in r.message for r in caplog.records)


def _preconditioned_system(rng, n=30):
    """A dense nonsymmetric matrix and the inverse of its upper triangle
    as an approximate inverse."""
    m = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    return m, np.linalg.inv(np.triu(m))


def test_transport_right_preconditioner_solves_original_system(rng):
    m, p = _preconditioned_system(rng)
    a_calls, m_calls, composed_calls = [], [], []

    def A(x):
        a_calls.append(1)
        return m @ x

    def M(x):
        m_calls.append(1)
        return p @ x

    def AM(y):
        composed_calls.append(1)
        return m @ (p @ y)

    b = rng.standard_normal(m.shape[0])
    x, rep = solve_transport(A, b, tol=1e-10, M=M)
    assert rep.converged
    true = float(np.linalg.norm(m @ x - b))
    assert true <= 1e-10 * np.linalg.norm(b)
    assert rep.residual == float(np.linalg.norm(b - m @ x))

    # the same Krylov space as solving (A M) y = b and then taking M y,
    # without the applications of M in the residual checks
    y, rep_c = solve_transport(AM, b, tol=1e-10)
    assert rep_c.converged
    assert rep.iterations == rep_c.iterations > 1
    assert len(a_calls) == len(composed_calls)
    assert len(m_calls) <= 2 * rep.iterations
    np.testing.assert_allclose(x, p @ y, rtol=0.0,
                               atol=1e-12 * float(np.abs(x).max()))


def test_transport_identity_preconditioner_keeps_bits(rng):
    m, _ = _preconditioned_system(rng)
    b = rng.standard_normal(m.shape[0])
    x, rep = solve_transport(_dense_op(m), b, tol=1e-11)
    x_id, rep_id = solve_transport(_dense_op(m), b, tol=1e-11,
                                   M=lambda v: v.copy())
    x_none, rep_none = solve_transport(_dense_op(m), b, tol=1e-11, M=None)
    assert np.array_equal(x, x_id) and np.array_equal(x, x_none)
    assert rep == rep_id == rep_none


# ---------------------------------------------------------------------------
# deflated CG
# ---------------------------------------------------------------------------

# graph Laplacian of the 4-cycle: kernel = constants
CYCLE4 = np.array([[2.0, -1.0, 0.0, -1.0],
                   [-1.0, 2.0, -1.0, 0.0],
                   [0.0, -1.0, 2.0, -1.0],
                   [-1.0, 0.0, -1.0, 2.0]])
ONES4 = np.ones((4, 1))


def test_deflated_cycle_oracle():
    # (1, 0, -1, 0) is an eigenvector of the cycle Laplacian with eigenvalue 2,
    # so the zero-mean solution of L x = (1, 0, -1, 0) is x = (1/2, 0, -1/2, 0)
    b = np.array([1.0, 0.0, -1.0, 0.0])
    x, rep = solve_deflated_spd(_dense_op(CYCLE4), b, ONES4, tol=1e-13)
    assert rep.converged
    assert rep.deflated_norm == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(x, [0.5, 0.0, -0.5, 0.0], atol=1e-12)


def test_deflated_converged_exit_applies_operator_once_more(rng):
    # one apply for the search direction and one for the true residual of
    # the converged iterate, which the report then carries
    applies = []
    op = _dense_op(np.eye(12))

    def counted(x):
        applies.append(1)
        return op(x)

    b = rng.standard_normal(12)
    x, rep = solve_deflated_spd(counted, b, np.zeros((12, 0)), tol=1e-12)
    assert rep.converged and rep.iterations == 1
    assert len(applies) == 2
    assert rep.residual == float(np.linalg.norm(b - x))


def test_deflated_kernel_rhs_returns_zero():
    b = np.full(4, 3.0)
    x, rep = solve_deflated_spd(_dense_op(CYCLE4), b, ONES4)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.deflated_norm == pytest.approx(np.linalg.norm(b))
    np.testing.assert_array_equal(x, 0.0)


def test_deflated_removes_kernel_component(rng):
    # identical compatible solve after shifting b along the kernel
    b = rng.standard_normal(4)
    xa, _ = solve_deflated_spd(_dense_op(CYCLE4), b, ONES4, tol=1e-13)
    xb, repb = solve_deflated_spd(_dense_op(CYCLE4), b + 7.0, ONES4, tol=1e-13)
    np.testing.assert_allclose(xa, xb, atol=1e-11)
    assert abs(float(np.sum(xb))) <= 1e-12
    assert repb.deflated_norm >= 7.0


def test_deflated_manufactured_solution(rng):
    # build b by forward application so the exact answer is known
    n = 32
    g = rng.standard_normal((n, n))
    m = g @ g.T + n * np.eye(n)  # SPD
    m = m - m @ np.ones((n, n)) / n - np.ones((n, n)) @ m / n \
        + np.ones((n, n)) * (np.ones(n) @ m @ np.ones(n)) / n**2  # kernel: 1
    x_star = rng.standard_normal(n)
    x_star -= x_star.mean()
    op = _dense_op(m)
    b = op(x_star)
    x, rep = solve_deflated_spd(op, b, np.ones((n, 1)), tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(x, x_star, atol=1e-9)


def test_deflated_converged_means_tolerance_met(rng):
    b = rng.standard_normal(4)
    op = _dense_op(CYCLE4)
    x, rep = solve_deflated_spd(op, b, ONES4, tol=1e-12)
    assert rep.converged
    b_defl = b - b.mean()
    assert np.linalg.norm(op(x) - b_defl) <= 1e-12 * np.linalg.norm(b_defl)


def test_deflated_nonconvergence_is_flagged(rng, caplog):
    g = rng.standard_normal((40, 40))
    m = g @ g.T + 1e-3 * np.eye(40)
    b = rng.standard_normal(40)
    with caplog.at_level("WARNING", logger="apeuler.linsolve"):
        x, rep = solve_deflated_spd(_dense_op(m), b, np.zeros((40, 0)),
                                    tol=1e-14, max_iter=2)
    assert not rep.converged
    assert any("did not converge" in r.message for r in caplog.records)


def test_deflated_rejects_bad_basis_shape():
    with pytest.raises(ValueError):
        solve_deflated_spd(_dense_op(CYCLE4), np.zeros(4), np.ones(3))
