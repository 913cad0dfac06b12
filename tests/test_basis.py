from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from fracldg.basis import (
    BasisSpec,
    DgField,
    edge_values,
    VolumeGrid,
    gauss_rule,
    legendre_derivatives,
    legendre_values,
    quad_vandermonde,
)
from fracldg.errors import InvalidArgumentError
from fracldg.ldg import FluxWeights, solve
from fracldg.meshes import GradedTimeMesh, SpatialMesh
from fracldg.problems import example1, example2

from oracles import (
    edge_trace,
    edges,
    field_eval,
    l2_norm,
    moments_per_cell,
    orthonormal_legendre_derivative,
    orthonormal_legendre_value,
    values_per_cell,
)


def test_gauss_rule_exactness():
    for npoints in (1, 2, 4, 7):
        quad = gauss_rule(npoints)
        assert quad.weights.sum() == pytest.approx(2.0, abs=1e-14)
        for p in range(2 * npoints):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            got = float(np.sum(quad.weights * quad.nodes**p))
            assert got == pytest.approx(exact, abs=1e-13)


def test_quad_vandermonde_is_cached_read_only_and_exact():
    for k in range(5):
        for npoints in (1, 2, 3, 5, 8):
            V = quad_vandermonde(k, npoints)
            ref = legendre_values(k, gauss_rule(npoints).nodes)
            assert V.dtype == ref.dtype and np.array_equal(V, ref)
            assert quad_vandermonde(k, npoints) is V
            assert not V.flags.writeable


def test_vandermonde_work_does_not_grow_with_steps(monkeypatch):
    # Each step evaluates its level at the quadrature points and projects its
    # right-hand side; both reuse the one cached Vandermonde matrix.
    calls = []
    legvander = npleg.legvander

    def counting_legvander(*args, **kwargs):
        calls.append(1)
        return legvander(*args, **kwargs)

    monkeypatch.setattr(npleg, "legvander", counting_legvander)
    prob = example1(0.5)
    mesh = SpatialMesh(3, 3)
    counts = []
    for M in (4, 4, 16):
        calls.clear()
        tm = GradedTimeMesh(M, 2.0, 0.1)
        solve(prob, mesh, tm, BasisSpec(1), FluxWeights(1.0, 0.0), lambda n, u: None)
        counts.append(len(calls))
    assert counts[1] == counts[2], counts  # the first run may fill the cache


def test_gauss_rule_validation():
    with pytest.raises(InvalidArgumentError):
        gauss_rule(0)
    with pytest.raises(InvalidArgumentError):
        gauss_rule(65)
    # Checked before the cache, which would answer the list with TypeError;
    # 3.0 and True are refused though the rules for 3 and 1 are cached.
    gauss_rule(3), gauss_rule(1)
    for bad in ([3], 3.0, True):
        with pytest.raises(InvalidArgumentError, match="npoints: expected an? (integer|number)"):
            gauss_rule(bad)


def test_legendre_values_match_pointwise_oracle():
    x = np.array([-1.0, -0.3, 0.0, 0.77, 1.0])
    V = legendre_values(4, x)
    Vd = legendre_derivatives(4, x)
    for q, xq in enumerate(x):
        for r in range(5):
            assert V[q, r] == pytest.approx(orthonormal_legendre_value(r, xq), abs=1e-13)
            assert Vd[q, r] == pytest.approx(
                orthonormal_legendre_derivative(r, xq), abs=1e-12
            )


def test_legendre_orthonormality():
    k = 5
    quad = gauss_rule(k + 1)
    V = legendre_values(k, quad.nodes)
    gram = (V * quad.weights[:, None]).T @ V
    np.testing.assert_allclose(gram, np.eye(k + 1), atol=1e-13)


def test_edge_values_are_endpoint_traces():
    e_minus, e_plus = edge_values(3)
    V = legendre_values(3, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(e_minus, V[0], atol=1e-14)
    np.testing.assert_allclose(e_plus, V[1], atol=1e-14)


def test_basis_spec_properties():
    basis = BasisSpec(2)
    assert basis.default_quad_points == 5
    with pytest.raises(InvalidArgumentError):
        BasisSpec(-1)


def test_projection_reproduces_piecewise_polynomials():
    mesh = SpatialMesh(3, 4)
    basis = BasisSpec(2)
    rng = np.random.default_rng(7)
    f = DgField(rng.standard_normal((3, 3, 4, 3)), basis, mesh)
    # Evaluate the field away from interfaces and project it back.
    g = VolumeGrid.build(mesh, basis).project(lambda x, y: field_eval(f, x, y))
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_projection_error_decays_at_order_k_plus_1():
    basis = BasisSpec(1)

    def u(x, y):
        return np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y)

    errs = []
    for n in (8, 16, 32):
        mesh = SpatialMesh(n, n)
        quad = gauss_rule(6)
        grid = VolumeGrid.build(mesh, basis, quad)
        proj = grid.project(u)
        X = mesh.x_centers()[:, None, None, None] + 0.5 * mesh.hx * quad.nodes[None, :, None, None]
        Y = mesh.y_centers()[None, None, :, None] + 0.5 * mesh.hy * quad.nodes[None, None, None, :]
        diff = u(X, Y) - proj.eval_volume_quad(quad)
        errs.append(grid.norm(diff))
    rate = math.log(errs[0] / errs[-1]) / math.log(4.0)
    assert rate == pytest.approx(2.0, abs=0.1)


def test_volume_grid_points_and_full_grid_broadcast():
    mesh = SpatialMesh(3, 2)
    grid = VolumeGrid.build(mesh, BasisSpec(1), gauss_rule(4))
    nodes = gauss_rule(4).nodes
    X = grid.at(lambda x, y: x)
    Y = grid.at(lambda x, y: y)
    assert X.shape == Y.shape == (3, 4, 2, 4)
    # Cell (2, 1) spans [2/3, 1] x [1/2, 1]: centers 5/6 and 3/4, half-widths 1/6 and 1/4.
    np.testing.assert_allclose(X[2, :, 1, 0], 5.0 / 6.0 + nodes / 6.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(Y[0, 0, 1, :], 0.75 + 0.25 * nodes, rtol=0.0, atol=1e-15)
    # A callable that ignores its arguments still fills every point.
    np.testing.assert_array_equal(grid.at(lambda x, y: 2.0), np.full((3, 4, 2, 4), 2.0))


@pytest.mark.parametrize("nx,ny,k,q", [(3, 3, 0, 2), (4, 2, 1, 3), (2, 5, 2, 4), (3, 4, 3, 6)])
def test_eval_volume_quad_matches_einsum(nx, ny, k, q):
    mesh = SpatialMesh(nx, ny)
    f = DgField(np.random.default_rng(12).standard_normal((nx, k + 1, ny, k + 1)), BasisSpec(k), mesh)
    quad = gauss_rule(q)
    V = legendre_values(k, quad.nodes)
    ref = np.einsum("irjs,qr,ps->iqjp", f.coeffs, V, V)
    got = f.eval_volume_quad(quad)
    assert got.shape == (nx, q, ny, q)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 5), (5, 1), (3, 2), (5, 7), (16, 16), (40, 3), (64, 64)])
def test_reshaped_products_match_the_per_cell_form_bitwise(k, nx, ny):
    # The moments and the values at the points take one product per axis on
    # the reshaped arrays; each entry is the same sum, in the same order, as
    # the per-cell stacked products they replaced.
    rng = np.random.default_rng(100 * k + nx)
    mesh = SpatialMesh(nx, ny)
    basis = BasisSpec(k)
    f = DgField(rng.standard_normal((nx, k + 1, ny, k + 1)), basis, mesh)
    for q in range(k + 1, k + 4):
        grid = VolumeGrid.build(mesh, basis, gauss_rule(q))
        values = rng.standard_normal((nx, q, ny, q))
        assert np.array_equal(grid.moments(values), moments_per_cell(grid, values)), q
        assert np.array_equal(f.eval_volume_quad(grid.quad), values_per_cell(f, grid.quad)), q


@pytest.mark.parametrize("k", [0, 2])
def test_per_cell_arrays_come_out_in_the_one_layout(k):
    # Values at the points and moments come out C-contiguous in the layout
    # of the coefficients, (nx, ., ny, .): no transposed view for a later
    # operand to buffer.
    nx, ny, kk = 3, 5, k + 1
    mesh = SpatialMesh(nx, ny)
    basis = BasisSpec(k)
    grid = VolumeGrid.build(mesh, basis)
    q = grid.quad.npoints
    rng = np.random.default_rng(4)
    f = DgField(rng.standard_normal((nx, kk, ny, kk)), basis, mesh)
    fx, fy = example2(0.3).f(0.05, grid.x, grid.y)
    arrays = {
        "eval_volume_quad": (f.eval_volume_quad(grid.quad), q),
        "at": (grid.at(lambda x, y: x * y), q),
        "moments": (grid.moments(rng.standard_normal((nx, q, ny, q))), kk),
        "separable_moments": (grid.separable_moments(fx, fy), kk),
    }
    for name, (a, m) in arrays.items():
        assert a.shape == (nx, m, ny, m) and a.flags.c_contiguous, name


#: Agreement demanded between the separable moments of fx(x) fy(y) and the
#: moments of the product formed on the full grid, relative to the largest
#: moment of |fx fy| (a moment itself may cancel to rounding, as that of
#: sin 2 pi y on one cell does): only the order of the roundings differs.
SEPARABLE_RTOL = 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (16, 5)])
def test_separable_moments_match_the_full_grid(k, nx, ny):
    grid = VolumeGrid.build(SpatialMesh(nx, ny), BasisSpec(k))
    fx, fy = example2(0.3).f(0.05, grid.x, grid.y)
    ref = grid.moments(grid.at(lambda x, y: fx * fy))
    got = grid.separable_moments(fx, fy)
    scale = np.max(np.abs(grid.moments(grid.at(lambda x, y: np.abs(fx * fy)))))
    assert got.shape == ref.shape == (nx, k + 1, ny, k + 1)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=SEPARABLE_RTOL * scale)


def test_l2_norm_matches_quadrature_norm():
    mesh = SpatialMesh(5, 3)
    basis = BasisSpec(2)
    rng = np.random.default_rng(11)
    f = DgField(rng.standard_normal((5, 3, 3, 3)), basis, mesh)
    grid = VolumeGrid.build(mesh, basis)
    assert grid.quad.npoints == 5
    assert l2_norm(f) == pytest.approx(grid.norm(f.eval_volume_quad(grid.quad)), rel=1e-12)


def test_field_shape_validation_and_zeros():
    mesh = SpatialMesh(2, 2)
    basis = BasisSpec(1)
    with pytest.raises(InvalidArgumentError):
        DgField(np.zeros((2, 2, 3, 3)), basis, mesh)
    f = DgField(np.zeros((2, 2, 2, 2)), basis, mesh)
    assert l2_norm(f) == 0.0


def test_field_eval_periodic_wrap():
    mesh = SpatialMesh(4, 4)
    basis = BasisSpec(1)
    rng = np.random.default_rng(3)
    f = DgField(rng.standard_normal((4, 2, 4, 2)), basis, mesh)
    x = np.array([0.1, 0.37, 0.61])
    y = np.array([0.2, 0.55, 0.9])
    np.testing.assert_allclose(
        field_eval(f, x, y), field_eval(f, x + 1.0, y - 1.0), atol=1e-13
    )


def test_edge_trace_consistent_with_field_eval():
    mesh = SpatialMesh(4, 3)
    basis = BasisSpec(2)
    rng = np.random.default_rng(5)
    f = DgField(rng.standard_normal((4, 3, 3, 3)), basis, mesh)
    # x-interface at x = 0.5 between cells (1, j) and (2, j), cell (1, 1).
    t = 0.3  # tangential reference coordinate inside cell (., 1)
    y_edges = edges(mesh.ny)
    y_phys = 0.5 * (y_edges[1] + y_edges[2]) + 0.5 * mesh.hy * t
    left = edge_trace(f, (1, 1), "E", "-", t)
    right = edge_trace(f, (1, 1), "E", "+", t)
    assert left == pytest.approx(field_eval(f, 0.5, y_phys, side_x="-"), abs=1e-12)
    assert right == pytest.approx(field_eval(f, 0.5, y_phys, side_x="+"), abs=1e-12)
    # Periodic wrap: the W edge of column 0 sees column nx-1 from the left.
    xw = 0.0
    y_mid = 0.5 * (y_edges[0] + y_edges[1])
    assert edge_trace(f, (0, 0), "W", "-", 0.0) == pytest.approx(
        field_eval(f, xw, y_mid, side_x="-"), abs=1e-12
    )
    with pytest.raises(InvalidArgumentError):
        edge_trace(f, (0, 0), "Q", "-", 0.0)
    with pytest.raises(InvalidArgumentError):
        edge_trace(f, (0, 0), "E", "?", 0.0)
