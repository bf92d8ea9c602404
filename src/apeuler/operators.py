"""Discrete differential operators, upwind fluxes, projections and norms on
uniform meshes of the periodic unit square.

Per-cell scalars are viewed as ``(ny, nx)`` grids and every stencil is a
periodic neighbour shift built from slice assignments.  Per-cell vectors
keep the public ``(ncells, 2)`` shape of :class:`CellVector` and are stored
component-major, so ``_components`` views them as two ``(ny, nx)`` grids
without a copy; vector kernels work on those whole component grids and
return ``(ncells, 2)`` results in the same layout (``lp_norm`` tells such a
vector from an ``(ncells,)`` scalar by its shape).  Per-face arrays have
shape ``(2, ny, nx)``, x-faces first: entry ``[a, j, i]`` is the face on the
+x (a = 0) or +y (a = 1) side of cell ``K`` in row j, column i, oriented from
``K`` to its +x (+y) neighbour ``L`` with periodic wrap-around.  Each face
sum is evaluated in the fixed order +x, -x, +y, -y, which keeps results
independent of how the faces are visited.

On the uniform grid the finite-volume weight |sigma|/|K| of a face is 1/h
across it.  Every divergence applies it through ``_face_divergence`` and the
gradient applies it halved, both as reciprocals, exact for power-of-two h.

The sign-split pair carried by :class:`EdgeSplit` is the stabilized advective
normal velocity split into nonnegative/nonpositive halves per face.  The two
halves are split *separately* for the transporting velocity and the
stabilization correction and recombined crosswise, which is what makes the
upwind transport operator an M-matrix regardless of the correction's sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fields import CellScalar, CellVector
from .mesh import Mesh

__all__ = [
    "EdgeSplit",
    "project",
    "project_vector",
    "grad_values",
    "div_values",
    "div_upwind_values",
    "edge_normal_values",
    "face_gradient_values",
    "laplace_values",
    "split_advective_velocity",
    "lp_norm",
]


# ---------------------------------------------------------------------------
# periodic shifts (shared by the kernels and the time-step bounds)
# ---------------------------------------------------------------------------

def _neighbour(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """``L``-side values of the two face families, (2, ny, nx).

    ``ax`` and ``ay`` are per-cell (ny, nx) grids; family 0 takes the entry
    of ``ax`` at the +x neighbour of each cell, family 1 the entry of ``ay``
    at its +y neighbour, with periodic wrap-around.  The ``K``-side values
    are the grids themselves, which broadcast against the result.
    """
    out = np.empty((2,) + ax.shape)
    out[0, :, :-1] = ax[:, 1:]
    out[0, :, -1] = ax[:, 0]
    out[1, :-1] = ay[1:]
    out[1, -1] = ay[0]
    return out


def _components(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """Per-cell vectors (ncells, 2) as their two (ny, nx) component grids,
    (2, ny, nx); a view for component-major input, a copy otherwise."""
    return w.T.reshape(2, mesh.ny, mesh.nx)


def _face_sum(flux: np.ndarray) -> np.ndarray:
    """Sum over the faces of each cell of the outward flux, per cell.

    ``flux`` is a face array along the K -> L normals, so each cell
    adds its +x and +y faces and subtracts its -x and -y faces (the +x/+y
    faces of its -x/-y neighbours), in the order +x, -x, +y, -y.  The x
    differences run over the flattened grid, one contiguous pass whose
    row-crossing entries (column 0) are then overwritten with the
    periodic ones.
    """
    fx, fy = flux
    out = np.empty(fx.size)
    flat = fx.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=out[1:])
    grid = out.reshape(fx.shape)
    np.subtract(fx[:, 0], fx[:, -1], out=grid[:, 0])
    grid += fy
    grid[1:] -= fy[:-1]
    grid[:1] -= fy[-1:]
    return out


def _face_divergence(mesh: Mesh, flux: np.ndarray) -> np.ndarray:
    """(1/|K|) sum over the faces sigma of K of |sigma| times the outward
    flux, per cell: ``_face_sum`` of ``flux`` scaled in place by 1/h."""
    flux[0] *= 1.0 / mesh.hx
    flux[1] *= 1.0 / mesh.hy
    return _face_sum(flux)


def _upwind_flux(q: np.ndarray, wplus: np.ndarray,
                 wminus: np.ndarray) -> np.ndarray:
    """Donor-cell flux q_K w+ + q_L w- per face of a (ny, nx) grid."""
    flux = _neighbour(q, q)
    flux *= wminus
    flux += q * wplus
    return flux


def _face_difference(q: np.ndarray) -> np.ndarray:
    """(q_{i+2} + q_{i+1} - q_i - q_{i-1}) on each x-face and the same
    along y on each y-face of a (ny, nx) grid; (2, ny, nx).

    It is the sum of the central cell differences on both sides of the
    face, so constants and checkerboards give exact zeros.  As in
    ``_face_sum``, the x passes run over the flattened grid and the
    columns they get wrong across row ends are then overwritten.
    """
    c = np.empty((2,) + q.shape)
    cx, cy = c
    qf, cxf = q.reshape(-1), cx.reshape(-1)
    np.subtract(qf[2:], qf[:-2], out=cxf[1:-1])
    np.subtract(q[:, 1], q[:, -1], out=cx[:, 0])
    np.subtract(q[:, 0], q[:, -2], out=cx[:, -1])
    np.subtract(q[2:], q[:-2], out=cy[1:-1])
    np.subtract(q[1], q[-1], out=cy[0])
    np.subtract(q[0], q[-2], out=cy[-1])
    out = np.empty_like(c)
    np.add(cxf[:-1], cxf[1:], out=out[0].reshape(-1)[:-1])
    np.add(cx[:, -1], cx[:, 0], out=out[0, :, -1])
    np.add(cy[:-1], cy[1:], out=out[1, :-1])
    np.add(cy[-1], cy[0], out=out[1, -1])
    return out


# ---------------------------------------------------------------------------
# array kernels (shared by the time steppers and the diagnostics)
# ---------------------------------------------------------------------------

def grad_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Central cell gradient of per-cell values ``q``; (ncells, 2)."""
    q = q.reshape(mesh.ny, mesh.nx)
    d = _neighbour(q, q)
    d -= q
    out = np.empty((2, mesh.ny, mesh.nx))
    # The forward difference q_L - q_K enters with + sign on both sides of
    # a face: the difference flip and the normal flip cancel.
    np.add(d[0, :, 1:], d[0, :, :-1], out=out[0, :, 1:])
    np.add(d[0, :, :1], d[0, :, -1:], out=out[0, :, :1])
    np.add(d[1, 1:], d[1, :-1], out=out[1, 1:])
    np.add(d[1, :1], d[1, -1:], out=out[1, :1])
    out[0] *= 0.5 / mesh.hx
    out[1] *= 0.5 / mesh.hy
    return out.reshape(2, -1).T


def div_values(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """Divergence of per-cell vectors ``w`` (ncells, 2) from face averages."""
    return _face_divergence(mesh, edge_normal_values(mesh, w))


def div_upwind_values(mesh: Mesh, q: np.ndarray, wplus: np.ndarray,
                      wminus: np.ndarray) -> np.ndarray:
    """Upwind divergence of per-cell values ``q`` for a pre-split velocity."""
    flux = _upwind_flux(q.reshape(mesh.ny, mesh.nx), wplus, wminus)
    return _face_divergence(mesh, flux)


def edge_normal_values(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    """Face-averaged normal component of per-cell vectors ``w``; (2, ny, nx)."""
    w = _components(mesh, w)
    out = _neighbour(w[0], w[1])
    out += w
    out *= 0.5
    return out


def face_gradient_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Face-normal gradient of per-cell values ``q``; (2, ny, nx).

    One stencil, (q_{i+2} + q_{i+1} - q_i - q_{i-1}) / (4 hx) on x-faces and
    likewise on y-faces: the face average of the central cell gradient,
    ``edge_normal_values(mesh, grad_values(mesh, q))`` up to roundoff.
    """
    out = _face_difference(q.reshape(mesh.ny, mesh.nx))
    out[0] *= 0.25 / mesh.hx
    out[1] *= 0.25 / mesh.hy
    return out


def laplace_values(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """div grad composition of the pressure system; the pressure solve's
    residual check composes the two itself, to keep the gradient."""
    return div_values(mesh, grad_values(mesh, q))


def _laplace_symbol(mesh: Mesh) -> np.ndarray:
    """Fourier symbol of ``-laplace_values`` in the ``rfft2`` half-spectrum.

    The composed central stencil is translation invariant on the periodic
    uniform grid; mode (kx, ky) has eigenvalue
    -(sin^2(2 pi kx/nx)/hx^2 + sin^2(2 pi ky/ny)/hy^2).  The entries where
    the symbol vanishes (constants and the three checkerboards on even
    grids) are zeroed exactly rather than left at sin(pi)^2 roundoff, so
    spectral solvers can recognize the kernel reliably.  The array is
    read-only and computed once per grid.
    """
    return _grid_symbol(mesh.nx, mesh.ny)


def _laplace_solve(mesh: Mesh, q: np.ndarray, shift: float,
                   scale: float) -> np.ndarray:
    """Per-cell x with (shift - scale * ``laplace_values``) x = q, flattened:
    ``rfft2`` of ``q``, division by shift + scale * ``_laplace_symbol``
    with the modes where that is zero (the kernel, at shift 0) set to zero,
    then ``irfft2``.  It runs the one-axis transforms of those two, in
    their order: the same bits through fewer layers of dispatch."""
    spec = np.fft.fft(np.fft.rfft(q.reshape(mesh.ny, mesh.nx), axis=1),
                      axis=0)
    denom = shift + scale * _laplace_symbol(mesh)
    np.divide(spec, denom, out=spec, where=denom != 0.0)
    spec[denom == 0.0] = 0.0
    spec = np.fft.ifft(spec, axis=0)
    return np.fft.irfft(spec, n=mesh.nx, axis=1).reshape(-1)


@lru_cache(maxsize=8)
def _grid_symbol(nx: int, ny: int) -> np.ndarray:
    """``_laplace_symbol`` keyed on the grid sizes, so no mesh is kept
    alive by the cache."""
    hx, hy = 1.0 / nx, 1.0 / ny
    sx = (np.sin(2.0 * np.pi * np.arange(nx // 2 + 1) / nx) / hx) ** 2
    sy = (np.sin(2.0 * np.pi * np.arange(ny) / ny) / hy) ** 2
    if nx % 2 == 0:
        sx[nx // 2] = 0.0
    if ny % 2 == 0:
        sy[ny // 2] = 0.0
    out = sy[:, None] + sx[None, :]
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# split advective velocities
# ---------------------------------------------------------------------------

@dataclass
class EdgeSplit:
    """Per-face sign-split normal velocity (w+ >= 0, w- <= 0), K -> L oriented."""

    mesh: Mesh
    wplus: np.ndarray
    wminus: np.ndarray

    def __post_init__(self) -> None:
        self.wplus = np.asarray(self.wplus, dtype=np.float64)
        self.wminus = np.asarray(self.wminus, dtype=np.float64)
        shape = (2, self.mesh.ny, self.mesh.nx)
        if self.wplus.shape != shape or self.wminus.shape != shape:
            raise ValueError(f"split parts must be per-face {shape} arrays")
        if (self.wplus < 0.0).any():
            raise ValueError("positive split part has negative entries")
        if (self.wminus > 0.0).any():
            raise ValueError("negative split part has positive entries")


def split_advective_velocity(mesh: Mesh, un: np.ndarray,
                             dn: np.ndarray) -> EdgeSplit:
    """Sign-split of the stabilized advective velocity w = u - du per face.

    ``un`` and ``dn`` are the face-averaged normal components of u and du
    (``edge_normal_values``).  The two halves are (u+ - du-, u- - du+), so
    w+ >= 0 and w- <= 0 hold by construction and w+ + w- equals the face
    value of u - du.
    """
    wplus = np.maximum(un, 0.0)
    wplus -= np.minimum(dn, 0.0)
    wminus = np.minimum(un, 0.0)
    wminus -= np.maximum(dn, 0.0)
    return EdgeSplit(mesh, wplus, wminus)


# ---------------------------------------------------------------------------
# projection and averaging
# ---------------------------------------------------------------------------

def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the 3-point Gauss-Legendre rule on [0, 1] and the weights of
    its tensor 3x3 rule, which sum to 1; read-only."""
    x, w = leggauss(3)
    nodes, weights = 0.5 * (x + 1.0), np.outer(0.5 * w, 0.5 * w)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_GAUSS_NODES, _GAUSS_WEIGHTS_2D = _gauss_rule()


def project(f: Callable, mesh: Mesh) -> CellScalar:
    """Cell means of a pointwise function by the tensor 3x3 Gauss rule,
    exact for polynomials of degree <= 5 per direction.  ``f`` must accept
    numpy arrays and broadcast.
    """
    cx, cy = mesh.cell_x[:, 0], mesh.cell_x[:, 1]
    # one (ncells,) evaluation per node: the same points as one broadcast
    # (ncells, 3, 3) call, with a 9 times smaller working set for the
    # temporaries of f
    vals = np.empty((mesh.ncells, 3, 3))
    for a, xa in enumerate(_GAUSS_NODES):
        px = cx + (xa - 0.5) * mesh.hx
        for b, xb in enumerate(_GAUSS_NODES):
            vals[:, a, b] = f(px, cy + (xb - 0.5) * mesh.hy)
    return CellScalar(mesh, np.einsum("kab,ab->k", vals, _GAUSS_WEIGHTS_2D))


def project_vector(fx: Callable, fy: Callable, mesh: Mesh) -> CellVector:
    """Componentwise projection of a pointwise vector field."""
    out = np.empty((2, mesh.ncells)).T      # component-major: no copy below
    out[:, 0] = project(fx, mesh).values
    out[:, 1] = project(fy, mesh).values
    return CellVector(mesh, out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(mesh: Mesh, values: np.ndarray, p) -> float:
    """Volume-weighted L^p norm of per-cell ``values``, p in {1, 2, inf}.

    Scalars, (ncells,), are measured through their absolute value and
    vectors, (ncells, 2), through their pointwise Euclidean magnitude.
    """
    if values.shape == (mesh.ncells, 2):
        mag = np.hypot(values[:, 0], values[:, 1])
    elif values.shape == (mesh.ncells,):
        mag = np.abs(values)
    else:
        raise ValueError(f"per-cell values expected, got shape {values.shape}")
    vol = mesh.cell_vol
    if p == 1:
        return float(np.dot(vol, mag))
    if p == 2:
        return float(np.sqrt(np.dot(vol, mag * mag)))
    if p == np.inf:
        return float(mag.max())
    raise ValueError(f"unsupported norm order {p!r}")
