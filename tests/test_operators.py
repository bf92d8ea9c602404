"""Discrete operators: projections, gradients, divergences, upwind fluxes,
splits, and norms, against hand-evaluated oracles and the duality/stability
estimates they are required to satisfy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeuler.fields import CellScalar, CellVector
from apeuler.mesh import Mesh, MeshSpec
from apeuler.operators import (
    EdgeSplit,
    _laplace_symbol,
    div_upwind_values,
    div_values,
    edge_normal_values,
    face_gradient_values,
    grad_values,
    laplace_values,
    lp_norm,
    project,
    project_vector,
    split_advective_velocity,
)
from conftest import cell_vector

# column pattern (0, 1, 0, -1) on the 4x2 unit mesh, constant in y
COLUMN_DATA = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])


def _grids(*shapes):
    """Parameter rows (nx, ny) with ids nx-ny-1.0-1.0, which name the unit
    box as the ids did when its sides were parameters, so a row keeps its
    id."""
    return [pytest.param(nx, ny, id=f"{nx}-{ny}-1.0-1.0") for nx, ny in shapes]


def _rand_scalar(mesh, rng) -> CellScalar:
    return CellScalar(mesh, rng.standard_normal(mesh.ncells))


def _rand_vector(mesh, rng) -> CellVector:
    return CellVector(mesh, rng.standard_normal((mesh.ncells, 2)))


def _div_upwind(q: CellScalar, split: EdgeSplit) -> np.ndarray:
    return div_upwind_values(q.mesh, q.values, split.wplus, split.wminus)


def _plus(a, axis):   # value at the L cell of face K
    return np.roll(a, -1, axis=1 - axis)


def _minus(a, axis):  # value at face K's own -x (-y) neighbour
    return np.roll(a, 1, axis=1 - axis)


def _roll_reference(mesh, w, q=None, wplus=None, wminus=None) -> dict:
    """The four array kernels written with np.roll on (ny, nx) grids.

    Face K of each family (x-faces first) lies between cell K and its +x
    (+y) neighbour L; np.roll supplies that neighbour with periodic
    wrap-around.  The finite-volume weight |sigma|/|K| of a face is the
    reciprocal spacing 1/h across it.  Every sum is taken in the kernels'
    order +x, -x, +y, -y.
    """
    ny, nx = mesh.ny, mesh.nx
    h = (mesh.hx, mesh.hy)

    def divergence(f):
        f = [f[a] * (1.0 / h[a]) for a in (0, 1)]
        return (f[0] - _minus(f[0], 0) + f[1] - _minus(f[1], 1)).ravel()

    w2 = w.reshape(ny, nx, 2)
    wn = [0.5 * (w2[..., a] + _plus(w2[..., a], a)) for a in (0, 1)]
    out = {"edge_normal": np.stack(wn), "div": divergence(wn)}
    if q is not None:
        q2 = q.reshape(ny, nx)
        d = [_plus(q2, a) - q2 for a in (0, 1)]
        out["grad"] = np.stack([(d[a] + _minus(d[a], a)) * (0.5 / h[a])
                                for a in (0, 1)], axis=-1).reshape(-1, 2)
        out["div_upwind"] = divergence([
            q2 * wplus[a] + _plus(q2, a) * wminus[a] for a in (0, 1)])
    return out


def _volume_form(mesh, w, q, wplus, wminus) -> dict:
    """The gradient and divergences as face sums of |sigma| times the flux
    divided by |K|, each paired with the per-cell sum of the magnitudes of
    its terms, the scale of its rounding."""
    vol = mesh.hx * mesh.hy
    face_len = (mesh.hy, mesh.hx)
    w2 = w.reshape(mesh.ny, mesh.nx, 2)
    q2 = q.reshape(mesh.ny, mesh.nx)

    def total(terms):
        return ((sum(terms) / vol).ravel(),
                (sum(np.abs(t) for t in terms) / vol).ravel())

    def outflow(flux):
        f = [face_len[a] * flux[a] for a in (0, 1)]
        return total([f[0], -_minus(f[0], 0), f[1], -_minus(f[1], 1)])

    g = [face_len[a] * (0.5 * (_plus(q2, a) - q2)) for a in (0, 1)]
    grad = [total([g[a], _minus(g[a], a)]) for a in (0, 1)]
    return {
        "grad": tuple(np.stack(part, axis=-1) for part in zip(*grad)),
        "div": outflow([0.5 * (w2[..., a] + _plus(w2[..., a], a))
                        for a in (0, 1)]),
        "div_upwind": outflow([q2 * wplus[a] + _plus(q2, a) * wminus[a]
                               for a in (0, 1)]),
    }


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_constant(mesh4):
    q = project(lambda x, y: 3.25, mesh4)
    np.testing.assert_allclose(q.values, 3.25, rtol=1e-15)


def test_project_linear_in_x(mesh2):
    # f(x, y) = x on the 2x2 unit mesh: exact cell means by column
    q = project(lambda x, y: x, mesh2)
    np.testing.assert_allclose(q.values, [0.25, 0.75, 0.25, 0.75], rtol=1e-14)


def test_project_exact_on_quintics(mesh4):
    # the 3x3 Gauss rule integrates degree-5 polynomials exactly
    q = project(lambda x, y: x**5 - 2.0 * y**4 * x, mesh4)
    exact = np.empty(mesh4.ncells)
    h = 0.25
    for k in range(mesh4.ncells):
        i, j = k % 4, k // 4
        x0, x1 = i * h, (i + 1) * h
        y0, y1 = j * h, (j + 1) * h
        ix5 = (x1**6 - x0**6) / 6.0 / h
        ix = (x1**2 - x0**2) / 2.0 / h
        iy4 = (y1**5 - y0**5) / 5.0 / h
        exact[k] = ix5 - 2.0 * iy4 * ix
    np.testing.assert_allclose(q.values, exact, rtol=1e-13, atol=1e-15)


def test_project_l2_of_sine_near_analytic():
    # ||sin(2 pi x)||_{L^2} = sqrt(1/2); cell averaging only shrinks it
    mesh = Mesh(MeshSpec(128, 128))
    q = project(np.vectorize(lambda x, y: math.sin(2.0 * math.pi * x)), mesh)
    norm = lp_norm(mesh, q.values, 2)
    assert norm <= math.sqrt(0.5) + 1e-12
    assert norm == pytest.approx(math.sqrt(0.5), abs=1e-4)
    # the exact cell means carry one sinc factor from the interval average
    hx = mesh.hx
    sinc = math.sin(math.pi * hx) / (math.pi * hx)
    assert norm == pytest.approx(sinc * math.sqrt(0.5), rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_project_stability_random_trig(seed):
    # || project(f) ||_{L^2} <= ||f||_{L^2} with the analytic norm from
    # orthogonality of the Fourier modes on the periodic square
    rng = np.random.default_rng(seed)
    mesh = Mesh(MeshSpec(16, 16))
    modes = [(1, 0), (0, 1), (2, 1), (3, 2)]
    amps = rng.standard_normal(len(modes))

    def f(x, y):
        out = np.zeros_like(x)
        for (kx, ky), a in zip(modes, amps):
            out = out + a * np.sin(2.0 * np.pi * (kx * x + ky * y))
        return out

    analytic = math.sqrt(0.5 * float(np.dot(amps, amps)))
    assert lp_norm(mesh, project(f, mesh).values, 2) <= analytic + 1e-10


def test_project_matches_broadcast_evaluation():
    # reference: f evaluated once on the broadcast (ncells, 3, 3) node grid;
    # the node-by-node evaluation must give the same bits
    mesh = Mesh(MeshSpec(7, 5))
    xi, wq = np.polynomial.legendre.leggauss(3)
    xi, wq = 0.5 * (xi + 1.0), 0.5 * wq

    def f(x, y):
        s = np.sin(2.0 * np.pi * (x + y) + 0.3)
        return (np.sin(2.0 * np.pi * (x - y)) + 0.01 * s) / (1.0 + 0.01 * s * s)

    px = mesh.cell_x[:, 0][:, None, None] + (xi[None, :, None] - 0.5) * mesh.hx
    py = mesh.cell_x[:, 1][:, None, None] + (xi[None, None, :] - 0.5) * mesh.hy
    expect = np.einsum("kab,ab->k", f(px, py), wq[:, None] * wq[None, :])
    np.testing.assert_array_equal(project(f, mesh).values, expect)


def test_project_vector_componentwise(mesh4):
    v = project_vector(lambda x, y: x, lambda x, y: 0.0 * x + 2.0, mesh4)
    np.testing.assert_allclose(v.values[:, 0],
                               project(lambda x, y: x, mesh4).values)
    np.testing.assert_allclose(v.values[:, 1], 2.0)


def test_cell_vector_is_component_major():
    # a non-square grid catches nx/ny swaps; C- and F-ordered input give the
    # same values, stored so that each component is one contiguous column
    mesh = Mesh(MeshSpec(33, 32))
    w = np.random.default_rng(3).standard_normal((mesh.ncells, 2))
    for w_in in (w, np.asfortranarray(w), w.tolist()):
        v = CellVector(mesh, w_in)
        assert v.values.shape == (mesh.ncells, 2)
        assert v.values.dtype == np.float64
        assert v.values.T.flags.c_contiguous
        assert np.array_equal(v.values, w)
    f = np.asfortranarray(w)
    assert CellVector(mesh, f).values is f          # no copy when stored so
    v = project_vector(lambda x, y: x, lambda x, y: y, mesh)
    assert v.values.T.flags.c_contiguous
    grid = v.values.T.reshape(2, mesh.ny, mesh.nx)
    assert np.all(np.diff(grid[0], axis=1) > 0.0)   # x grows along a row
    assert np.all(np.diff(grid[1], axis=0) > 0.0)   # y grows down a column


# ---------------------------------------------------------------------------
# gradients and divergences
# ---------------------------------------------------------------------------

def test_grad_primal_constant(mesh4):
    g = grad_values(mesh4, np.full(mesh4.ncells, 2.5))
    np.testing.assert_array_equal(g, 0.0)


def test_grad_primal_column_oracle(mesh42):
    # central difference across columns: (q_{i+1} - q_{i-1}) / (2 h_x)
    g = grad_values(mesh42, COLUMN_DATA)
    expect_x = np.array([4.0, 0.0, -4.0, 0.0, 4.0, 0.0, -4.0, 0.0])
    np.testing.assert_allclose(g[:, 0], expect_x, rtol=1e-13)
    np.testing.assert_allclose(g[:, 1], 0.0, atol=1e-15)


def test_div_primal_constant(mesh4):
    d = div_values(mesh4, cell_vector(mesh4, (1.0, -2.0)).values)
    np.testing.assert_array_equal(d, 0.0)


def test_div_primal_column_oracle(mesh42):
    w = np.column_stack([COLUMN_DATA, np.zeros_like(COLUMN_DATA)])
    d = div_values(mesh42, w)
    np.testing.assert_allclose(
        d, [4.0, 0.0, -4.0, 0.0, 4.0, 0.0, -4.0, 0.0], rtol=1e-13)


def test_div_total_mass_is_zero(mesh16, rng):
    # every face feeds K and L with opposite signs, so the weighted total
    # telescopes
    for _ in range(5):
        w = _rand_vector(mesh16, rng)
        total = float(np.dot(mesh16.cell_vol, div_values(mesh16, w.values)))
        scale = float(np.abs(w.values).max())
        assert abs(total) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4, 16])
def test_grad_div_duality(n, rng):
    # sum |K| q (div w) + sum |K| (grad q) . w = 0
    mesh = Mesh(MeshSpec(n, n))
    for _ in range(100):
        q = _rand_scalar(mesh, rng)
        w = _rand_vector(mesh, rng)
        a = float(np.dot(mesh.cell_vol, q.values * div_values(mesh, w.values)))
        b = float(np.dot(mesh.cell_vol,
                         np.einsum("kc,kc->k", grad_values(mesh, q.values),
                                   w.values)))
        scale = max(abs(a), abs(b), 1e-30)
        assert abs(a + b) <= 1e-12 * scale


@pytest.mark.parametrize("nx, ny", _grids((2, 2), (3, 5), (33, 32), (32, 20)))
def test_kernels_match_roll_reference(nx, ny, rng):
    # the slice stencils reproduce the periodic np.roll stencils bit for bit,
    # for vectors stored interleaved (C order) and component-major (F order)
    mesh = Mesh(MeshSpec(nx, ny))
    q = rng.standard_normal(mesh.ncells)
    w = rng.standard_normal((mesh.ncells, 2))
    wplus = np.abs(rng.standard_normal((2, ny, nx)))
    wminus = -np.abs(rng.standard_normal((2, ny, nx)))
    ref = _roll_reference(mesh, w, q, wplus, wminus)
    grad = grad_values(mesh, q)
    assert grad.shape == (mesh.ncells, 2) and grad.T.flags.c_contiguous
    assert np.array_equal(grad, ref["grad"])
    assert np.array_equal(div_upwind_values(mesh, q, wplus, wminus),
                          ref["div_upwind"])
    for w_in in (w, np.asfortranarray(w)):
        assert np.array_equal(div_values(mesh, w_in), ref["div"])
        edge_normal = edge_normal_values(mesh, w_in)
        assert edge_normal.shape == ref["edge_normal"].shape == (2, ny, nx)
        assert np.array_equal(edge_normal, ref["edge_normal"])


@pytest.mark.parametrize("nx, ny", _grids(
    (2, 2), (4, 8), (64, 32), (3, 5), (33, 32), (48, 48), (32, 20)))
def test_kernels_match_volume_form(nx, ny, rng):
    # the 1/h face weight against |sigma| / |K|: scaling by a power of two
    # commutes with rounding, so power-of-two grids agree bit for bit;
    # elsewhere the two round differently, by a few units in the last place
    # of the face terms a cell sums
    mesh = Mesh(MeshSpec(nx, ny))
    q = rng.standard_normal(mesh.ncells)
    w = rng.standard_normal((mesh.ncells, 2))
    wplus = np.abs(rng.standard_normal((2, ny, nx)))
    wminus = -np.abs(rng.standard_normal((2, ny, nx)))
    ref = _volume_form(mesh, w, q, wplus, wminus)
    got = {"grad": grad_values(mesh, q), "div": div_values(mesh, w),
           "div_upwind": div_upwind_values(mesh, q, wplus, wminus)}
    exact = all(n & (n - 1) == 0 for n in (nx, ny))
    for name, (want, size) in ref.items():
        if exact:
            assert np.array_equal(got[name], want), name
        else:
            err = np.abs(got[name] - want)
            assert np.all(err <= 4.0 * np.finfo(float).eps * size), name


@pytest.mark.parametrize("nx, ny", _grids((2, 2), (3, 5), (16, 16), (32, 20)))
def test_face_gradient_matches_composed_stencil(nx, ny, rng):
    # the fused stencil is the face average of the central cell gradient;
    # on the 2x2 and 3x5 grids the periodic wrap makes its four cells
    # overlap (q_{i+2} = q_i at nx = 2, q_{i+2} = q_{i-1} at nx = 3)
    mesh = Mesh(MeshSpec(nx, ny))
    for scale in (1e-3, 1.0, 1e3):
        q = scale * rng.standard_normal(mesh.ncells)
        got = face_gradient_values(mesh, q)
        want = edge_normal_values(mesh, grad_values(mesh, q))
        assert got.shape == (2, ny, nx)
        qmax = float(np.abs(q).max())
        for a, h in enumerate((mesh.hx, mesh.hy)):
            assert np.abs(got[a] - want[a]).max() <= 1e-15 * qmax / h


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (16, 16)])
def test_face_gradient_is_zero_on_constants_and_checkerboards(nx, ny):
    mesh = Mesh(MeshSpec(nx, ny))
    i = np.tile(np.arange(nx), ny)
    j = np.repeat(np.arange(ny), nx)
    fields = [np.full(mesh.ncells, 3.7)]
    if nx % 2 == 0:
        fields.append(np.where(i % 2 == 0, 2.5, -2.5))
    if ny % 2 == 0:
        fields.append(np.where(j % 2 == 0, 0.3, -0.3))
    if nx % 2 == 0 and ny % 2 == 0:
        fields.append(np.where((i + j) % 2 == 0, 1.1, -1.1))
    for q in fields:
        assert np.array_equal(face_gradient_values(mesh, q),
                              np.zeros((2, ny, nx)))


def test_laplace_eigenmode():
    # the composed stencil sees mode k as -(sin(2 pi k/n)/h)^2
    mesh = Mesh(MeshSpec(8, 8))
    q = np.cos(2.0 * np.pi * mesh.cell_x[:, 0])
    lam = -(math.sin(2.0 * math.pi / 8) / mesh.hx) ** 2
    np.testing.assert_allclose(laplace_values(mesh, q), lam * q, rtol=1e-12,
                               atol=1e-12)


def test_laplace_symbol_matches_operator(rng):
    # the rfft2 multiplier reproduces -laplace on random data
    mesh = Mesh(MeshSpec(8, 6))
    q = rng.standard_normal(mesh.ncells)
    spec = np.fft.rfft2(q.reshape(mesh.ny, mesh.nx)) * _laplace_symbol(mesh)
    via_fft = np.fft.irfft2(spec, s=(mesh.ny, mesh.nx)).reshape(-1)
    np.testing.assert_allclose(via_fft, -laplace_values(mesh, q),
                               rtol=1e-11, atol=1e-12)


def test_laplace_symbol_is_cached_read_only():
    mesh = Mesh(MeshSpec(12, 10))
    s = _laplace_symbol(mesh)
    assert not s.flags.writeable
    assert _laplace_symbol(Mesh(MeshSpec(12, 10))) is s
    assert _laplace_symbol(Mesh(MeshSpec(10, 12))) is not s


def test_laplace_symbol_kernel_is_exact():
    mesh = Mesh(MeshSpec(8, 6))
    s = _laplace_symbol(mesh)
    assert s[0, 0] == 0.0
    assert s[mesh.ny // 2, 0] == 0.0
    assert s[0, mesh.nx // 2] == 0.0
    assert s[mesh.ny // 2, mesh.nx // 2] == 0.0
    assert np.count_nonzero(s == 0.0) == 4


# ---------------------------------------------------------------------------
# upwind fluxes
# ---------------------------------------------------------------------------

def test_edge_split_validation(mesh4):
    n = (2, mesh4.ny, mesh4.nx)
    with pytest.raises(ValueError):
        EdgeSplit(mesh4, np.full(n, -1.0), np.zeros(n))
    with pytest.raises(ValueError):
        EdgeSplit(mesh4, np.zeros(n), np.full(n, 1.0))
    with pytest.raises(ValueError):
        EdgeSplit(mesh4, np.zeros(n)[..., :-1], np.zeros(n))
    # the flat (2 ncells,) layout is not a per-face array
    flat = np.zeros(2 * mesh4.ncells)
    with pytest.raises(ValueError):
        EdgeSplit(mesh4, flat, flat)


def test_div_upwind_constant_field_uniform_flow(mesh4):
    # constant q and a uniform x-velocity: inflow and outflow fluxes are the
    # same float, so each cell's sum cancels exactly
    q = CellScalar(mesh4, np.full(mesh4.ncells, 1.7))
    wplus = np.zeros((2, mesh4.ny, mesh4.nx))
    wplus[0] = 0.8
    split = EdgeSplit(mesh4, wplus, np.zeros_like(wplus))
    np.testing.assert_array_equal(_div_upwind(q, split), 0.0)


def test_div_upwind_single_edge_locality(mesh4, rng):
    q = _rand_scalar(mesh4, rng)
    # face K = 5 is the +x face of cell K = (i=1, j=1); L is its +x neighbour
    K, L = 5, 6
    wplus = np.zeros((2, mesh4.ny, mesh4.nx))
    wplus[0].flat[K] = 0.5
    split = EdgeSplit(mesh4, wplus, np.zeros_like(wplus))
    d = _div_upwind(q, split)
    flux = mesh4.hy * q.values[K] * 0.5  # outflow carries the K value
    assert d[K] == pytest.approx(flux / mesh4.cell_vol[K], rel=1e-15)
    assert d[L] == pytest.approx(-flux / mesh4.cell_vol[L], rel=1e-15)
    others = np.setdiff1d(np.arange(mesh4.ncells), [K, L])
    np.testing.assert_array_equal(d[others], 0.0)


def test_div_upwind_conserves_mass(mesh16, rng):
    for _ in range(5):
        q = _rand_scalar(mesh16, rng)
        w = np.abs(rng.standard_normal((2, mesh16.ny, mesh16.nx)))
        v = -np.abs(rng.standard_normal((2, mesh16.ny, mesh16.nx)))
        split = EdgeSplit(mesh16, w, v)
        total = float(np.dot(mesh16.cell_vol, _div_upwind(q, split)))
        scale = float(np.abs(q.values).max()) * float(max(w.max(), -v.min()))
        assert abs(total) <= 1e-13 * scale


def test_split_advective_velocity(mesh4, rng):
    u = _rand_vector(mesh4, rng)
    du = _rand_vector(mesh4, rng)
    un = _roll_reference(mesh4, u.values)["edge_normal"]
    dn = _roll_reference(mesh4, du.values)["edge_normal"]
    split = split_advective_velocity(mesh4, un, dn)
    assert np.all(split.wplus >= 0.0)
    assert np.all(split.wminus <= 0.0)
    np.testing.assert_allclose(split.wplus + split.wminus, un - dn,
                               rtol=1e-13, atol=1e-14)
    # crossed composition: the positive half carries u+ and -du-
    np.testing.assert_allclose(
        split.wplus, np.maximum(un, 0.0) - np.minimum(dn, 0.0),
        rtol=1e-13, atol=1e-14)


def test_split_zero_correction_reduces_to_sign_split(mesh4, rng):
    u = _rand_vector(mesh4, rng)
    un = _roll_reference(mesh4, u.values)["edge_normal"]
    split = split_advective_velocity(mesh4, un, np.zeros_like(un))
    np.testing.assert_allclose(split.wplus, np.maximum(un, 0.0), atol=1e-15)
    np.testing.assert_allclose(split.wminus, np.minimum(un, 0.0), atol=1e-15)


# ---------------------------------------------------------------------------
# means and norms
# ---------------------------------------------------------------------------

def test_mean_and_norms_checkerboard(mesh4):
    i = np.tile(np.arange(4), 4)
    j = np.repeat(np.arange(4), 4)
    q = CellScalar(mesh4, np.where((i + j) % 2 == 0, 1.0, -1.0))
    mean = float(np.dot(mesh4.cell_vol, q.values))
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert lp_norm(mesh4, q.values, 1) == pytest.approx(1.0, rel=1e-15)
    assert lp_norm(mesh4, q.values, 2) == pytest.approx(1.0, rel=1e-15)
    assert lp_norm(mesh4, q.values, np.inf) == 1.0


def test_lp_norm_vector_magnitude(mesh4):
    v = cell_vector(mesh4, (3.0, 4.0)).values
    assert lp_norm(mesh4, v, 1) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm(mesh4, v, 2) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm(mesh4, v, np.inf) == pytest.approx(5.0, rel=1e-15)


def test_lp_norm_rejects_other_orders(mesh4):
    q = np.ones(mesh4.ncells)
    for p in (3, "inf"):
        with pytest.raises(ValueError):
            lp_norm(mesh4, q, p)


def test_lp_norm_rejects_values_not_per_cell(mesh4):
    for shape in ((mesh4.ncells - 1,), (mesh4.ncells, 3), (2, mesh4.ncells),
                  (mesh4.ny, mesh4.nx)):
        with pytest.raises(ValueError):
            lp_norm(mesh4, np.ones(shape), 1)
