"""Matrix-free Krylov solvers: BiCGStab for nonsymmetric transport systems
and deflated CG for singular symmetric systems.

An operator is any callable that maps a flat float64 vector to its image.
BiCGStab takes an optional right preconditioner ``M``, another such
callable approximating the inverse of ``A``; it is applied inside the
iteration, so the returned iterate already solves the original system.

The limit scheme's pressure system is solved directly in Fourier space
(``incompressible.pressure_solve``); deflated CG is kept as the test
reference for that spectral solve.

Both solvers report the *recomputed* final residual ||Ax - b||_2, not the
recursively updated one, so a ``converged`` report always means the returned
iterate actually satisfies the tolerance.  The deflated solver removes a
supplied null-space basis from the right-hand side and re-projects the
iterates every step, so semiconvergence against kernel drift never occurs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

__all__ = ["SolveReport", "solve_transport", "solve_deflated_spd"]

Operator = Callable[[np.ndarray], np.ndarray]

#: BiCGStab iterations after which a transport solve gives up
TRANSPORT_MAX_ITER = 400


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Krylov solve.

    ``residual`` is the recomputed ||Ax - b||_2 of the returned iterate (with
    the deflated right-hand side when a null basis was supplied);
    ``deflated_norm`` is the norm of the component removed from b.
    """

    iterations: int
    residual: float
    converged: bool
    deflated_norm: float = 0.0


def _true_residual(A, b, x) -> float:
    return float(np.linalg.norm(b - A(x)))


def solve_transport(A: Operator, b: np.ndarray, tol: float = 1e-10,
                    M: Operator | None = None,
                    ) -> tuple[np.ndarray, SolveReport]:
    """BiCGStab from a zero initial guess, right-preconditioned by ``M``.

    Solves A x = b to ``||Ax - b||_2 <= tol * ||b||_2``, where ``A`` is a
    callable applying the operator.  ``M`` (default: none) is a callable
    approximating A^{-1}: each search direction p and intermediate residual
    s enter the iterate as M p and M s, so the Krylov space is that of A M
    while the iterate, its residual and the reported residual are those of
    A x = b.  A is applied as often as without ``M``, and ``M`` at most
    twice per iteration.  After TRANSPORT_MAX_ITER iterations it stops;
    non-convergence is flagged on the report and logged, never silent.
    """
    b = np.asarray(b, dtype=np.float64)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True)
    target = tol * bnorm

    x = np.zeros_like(b)
    r = b.copy()
    r_hat = r.copy()
    rho_prev = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    iterations = 0

    while iterations < TRANSPORT_MAX_ITER:
        rho = float(np.dot(r_hat, r))
        if rho == 0.0:
            break  # breakdown; report what we have
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = p if M is None else M(p)
        v = A(p_hat)
        denom = float(np.dot(r_hat, v))
        if denom == 0.0:
            break
        alpha = rho / denom
        # add alpha M p now, so that M p is freed before M s is built; the
        # two updates keep the order of x + alpha M p + omega M s
        x = x + alpha * p_hat
        del p_hat
        s = r - alpha * v
        iterations += 1
        if np.linalg.norm(s) <= target:
            r = b - A(x)
            residual = float(np.linalg.norm(r))
            if residual <= target:
                return x, SolveReport(iterations, residual, True)
            rho_prev = rho
            continue
        s_hat = s if M is None else M(s)
        t = A(s_hat)
        tt = float(np.dot(t, t))
        if tt == 0.0:
            break
        omega = float(np.dot(t, s)) / tt
        x = x + omega * s_hat
        r = s - omega * t
        rho_prev = rho
        if omega == 0.0:
            break
        if np.linalg.norm(r) <= target:
            residual = _true_residual(A, b, x)
            if residual <= target:
                return x, SolveReport(iterations, residual, True)

    residual = _true_residual(A, b, x)
    converged = residual <= target
    if not converged:
        log.warning("transport solve did not converge: %d iterations, "
                    "residual %.3e (target %.3e)", iterations, residual, target)
    return x, SolveReport(iterations, residual, converged)


def _project_out(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove the span of orthonormal columns ``basis`` from ``v`` in place."""
    v -= basis @ (basis.T @ v)
    return v


def solve_deflated_spd(A: Operator, b: np.ndarray,
                       null_basis: np.ndarray, tol: float = 1e-10,
                       max_iter: int | None = None,
                       ) -> tuple[np.ndarray, SolveReport]:
    """Unpreconditioned conjugate gradients for a symmetric positive
    semidefinite system, from a zero initial guess.

    ``A`` is a callable applying the operator.  ``null_basis`` is an (n, k)
    matrix whose columns span its kernel; it is orthonormalized once, the
    matching component of ``b`` is removed (its norm lands in
    ``deflated_norm``), and both residual and iterate are re-projected every
    iteration.  The returned solution is orthogonal to the kernel.
    """
    b = np.asarray(b, dtype=np.float64)
    basis = np.asarray(null_basis, dtype=np.float64)
    if basis.ndim != 2 or basis.shape[0] != b.shape[0]:
        raise ValueError("null_basis must be (n, k)")
    basis, _ = np.linalg.qr(basis)

    b_defl = b.copy()
    _project_out(basis, b_defl)
    removed = float(np.linalg.norm(b - b_defl))
    bnorm = float(np.linalg.norm(b_defl))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True, removed)
    target = tol * bnorm
    if max_iter is None:
        max_iter = 2 * b.shape[0]

    x = np.zeros_like(b)
    r = b_defl.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    iterations = 0

    while iterations < max_iter:
        if np.linalg.norm(r) <= target:
            residual = _true_residual(A, b_defl, x)
            if residual <= target:
                return x, SolveReport(iterations, residual, True, removed)
        Ap = A(p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            log.warning("pressure operator lost positive definiteness "
                        "(p'Ap = %.3e); returning current iterate", pAp)
            break
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        _project_out(basis, r)
        _project_out(basis, x)
        rr_new = float(np.dot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
        iterations += 1

    residual = _true_residual(A, b_defl, x)
    converged = residual <= target
    if not converged:
        log.warning("deflated CG did not converge: %d iterations, "
                    "residual %.3e (target %.3e)", iterations, residual, target)
    return x, SolveReport(iterations, residual, converged, removed)
