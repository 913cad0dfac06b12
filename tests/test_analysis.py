from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from fracldg.analysis import (
    ErrorReport,
    FinalTimeError,
    condition_number,
    rates,
)
from fracldg.basis import (
    BasisSpec,
    VolumeGrid,
    gauss_rule,
    legendre_values,
)
from fracldg.errors import InvalidArgumentError
from fracldg.fractional import L1Kernel
from fracldg.ldg import FluxWeights, LdgOperators, solve
from fracldg.meshes import GradedTimeMesh, SpatialMesh
from fracldg.problems import example1, example2

from oracles import (
    condition_number_by_x_modes,
    dense_condition_2norm,
    edges,
    field_eval,
    final_time_error,
    l1_row,
    l2_norm,
    lifted_stiffness,
    ndof,
    project_P,
    project_Q,
    solve_fields,
    system_matrix,
)


def _smooth(x, y):
    return np.sin(2 * math.pi * x) * np.cos(4 * math.pi * y) + np.cos(2 * math.pi * (x + y))


def _x_interface_moments(u, mesh, k):
    """Line moments of u(x_{i+1/2}, .) against the transverse modes, by quadrature."""
    quad = gauss_rule(k + 4)
    V = legendre_values(k, quad.nodes)
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    vals = u(edges(mesh.nx)[1:, None, None], y_pts[None, :, :])
    return np.einsum("ijq,qs->ijs", vals, quad.weights[:, None] * V)


def _weighted_trace_moments(f, mesh, k, sigma):
    """Same moments for the weighted average of the one-sided traces of a DG field."""
    quad = gauss_rule(k + 4)
    V = legendre_values(k, quad.nodes)
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    X = np.broadcast_to(edges(mesh.nx)[1:, None, None], (mesh.nx, mesh.ny, quad.npoints))
    Y = np.broadcast_to(y_pts[None, :, :], (mesh.nx, mesh.ny, quad.npoints))
    left = field_eval(f, X, Y, side_x="-")
    right = field_eval(f, X, Y, side_x="+")
    avg = sigma * left + (1.0 - sigma) * right
    return np.einsum("ijq,qs->ijs", avg, quad.weights[:, None] * V)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s1,s2", [(1.0, 0.0), (0.7, 0.2)])
def test_full_projection_satisfies_defining_conditions(k, s1, s2):
    mesh = SpatialMesh(6, 5)
    basis = BasisSpec(k)
    fw = FluxWeights(s1, s2)
    P = project_P(_smooth, fw, mesh, basis)
    scale = np.max(np.abs(P.coeffs))
    # Interior moments agree with the plain projection on modes below k.
    full = VolumeGrid.build(mesh, basis, gauss_rule(k + 4)).project(_smooth)
    np.testing.assert_allclose(
        P.coeffs[:, :k, :, :k], full.coeffs[:, :k, :, :k], atol=1e-13 * scale
    )
    # Weighted traces across x-interfaces match the function's line moments
    # for transverse modes below k.
    got = _weighted_trace_moments(P, mesh, k, s1)[:, :, :k]
    want = _x_interface_moments(_smooth, mesh, k)[:, :, :k]
    np.testing.assert_allclose(got, want, atol=1e-11 * scale)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_full_projection_corner_condition(k):
    mesh = SpatialMesh(5, 6)
    basis = BasisSpec(k)
    s1, s2 = 0.8, 0.3
    P = project_P(_smooth, FluxWeights(s1, s2), mesh, basis)
    X, Y = np.meshgrid(edges(mesh.nx)[1:], edges(mesh.ny)[1:], indexing="ij")
    avg = (
        s1 * s2 * field_eval(P, X, Y, "-", "-")
        + s1 * (1.0 - s2) * field_eval(P, X, Y, "-", "+")
        + (1.0 - s1) * s2 * field_eval(P, X, Y, "+", "-")
        + (1.0 - s1) * (1.0 - s2) * field_eval(P, X, Y, "+", "+")
    )
    np.testing.assert_allclose(avg, _smooth(X, Y), atol=1e-10)


def test_full_projection_is_linear_and_reproduces_constants():
    mesh = SpatialMesh(4, 4)
    basis = BasisSpec(2)
    fw = FluxWeights(0.6, 0.9)
    u = lambda x, y: _smooth(x, y)
    v = lambda x, y: np.cos(2 * math.pi * y) + 0.0 * x
    combo = lambda x, y: 2.0 * u(x, y) - 3.0 * v(x, y)
    Pc = project_P(combo, fw, mesh, basis)
    Pu, Pv = project_P(u, fw, mesh, basis), project_P(v, fw, mesh, basis)
    np.testing.assert_allclose(Pc.coeffs, 2.0 * Pu.coeffs - 3.0 * Pv.coeffs, atol=1e-12)
    Pone = project_P(lambda x, y: np.ones(np.broadcast(x, y).shape), fw, mesh, basis)
    quad = gauss_rule(basis.default_quad_points)
    np.testing.assert_allclose(Pone.eval_volume_quad(quad), 1.0, atol=1e-12)


@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_single_axis_projection_matches_all_transverse_modes(sigma):
    k = 2
    mesh = SpatialMesh(5, 4)
    basis = BasisSpec(k)
    Q = project_Q(_smooth, sigma, "x", mesh, basis)
    scale = np.max(np.abs(Q.coeffs))
    full = VolumeGrid.build(mesh, basis, gauss_rule(k + 4)).project(_smooth)
    np.testing.assert_allclose(
        Q.coeffs[:, :k, :, :], full.coeffs[:, :k, :, :], atol=1e-13 * scale
    )
    got = _weighted_trace_moments(Q, mesh, k, sigma)
    want = _x_interface_moments(_smooth, mesh, k)
    np.testing.assert_allclose(got, want, atol=1e-11 * scale)


def test_projections_reject_central_weight_and_bad_axis():
    mesh = SpatialMesh(4, 4)
    basis = BasisSpec(1)
    with pytest.raises(InvalidArgumentError):
        project_Q(_smooth, 0.5, "x", mesh, basis)
    with pytest.raises(InvalidArgumentError):
        project_Q(_smooth, 0.7, "z", mesh, basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fw = FluxWeights(0.5, 0.7)
    with pytest.raises(InvalidArgumentError):
        project_P(_smooth, fw, mesh, basis)


def _mode(x, y):
    return np.cos(2 * math.pi * x) * np.sin(2 * math.pi * y)


@pytest.mark.parametrize("make", [
    lambda m, b: project_P(_mode, FluxWeights(1.0, 0.0), m, b),
    lambda m, b: project_Q(_mode, 0.8, "x", m, b),
])
def test_projection_error_shrinks_at_design_order(make):
    # Second-order decay for k = 1; the rate is read off the finest mesh
    # pair of the 8 -> 32 sequence, where the subleading terms are gone.
    basis = BasisSpec(1)
    errs = []
    for n in (8, 16, 32):
        mesh = SpatialMesh(n, n)
        grid = VolumeGrid.build(mesh, basis, gauss_rule(basis.k + 4))
        diff = make(mesh, basis).eval_volume_quad(grid.quad) - grid.at(_mode)
        errs.append(grid.norm(diff))
    got = rates(errs, [1.0 / 8, 1.0 / 16, 1.0 / 32])[-1]
    assert abs(got - 2.0) <= 0.1


def _constant_levels():
    """Two equal levels u^0 = u^1 = P u0 on [0, 0.4], their meshes and
    basis, and ||u^0||."""
    prob = example1(0.5)
    mesh = SpatialMesh(5, 5)
    basis = BasisSpec(1)
    u0 = VolumeGrid.build(mesh, basis).project(prob.u0)
    tm = GradedTimeMesh(1, 1.0, 0.4)
    fields = [u0, u0]
    return fields, tm, mesh, basis, l2_norm(u0)


def _observed(observer, fields) -> float:
    for n, u in enumerate(fields):
        observer(n, u)
    return observer.value


def test_error_functional_is_scaled_final_time_norm():
    # Against the zero function the functional must equal T times the
    # coefficient norm of the last field, which the orthonormal basis gives
    # in closed form.
    fields, tm, mesh, basis, norm0 = _constant_levels()
    zero = lambda t, x, y: np.zeros(np.broadcast(x, y).shape)
    got = _observed(FinalTimeError(tm, mesh, basis, zero), fields)
    assert got == pytest.approx(0.4 * norm0, rel=1e-12)


@pytest.mark.parametrize("M", [1, 33, 100])
@pytest.mark.parametrize("example", [example1, example2])
def test_streamed_error_functionals_equal_trajectory_forms_bitwise(M, example):
    # M = 1, 33, 100 crosses 0, 1 and 3 panel boundaries. The observer sees
    # the levels as solve produces them and keeps no field; the defining
    # formula recomputes the functional from every level, which a second
    # observer collects. They agree to the bit.
    prob = example(0.4)
    mesh = SpatialMesh(3, 2)
    basis = BasisSpec(1)
    tm = GradedTimeMesh(M, 6.0, 0.1)
    fw = FluxWeights(1.0, 0.0)
    final = FinalTimeError(tm, mesh, basis, prob.exact)
    fields = []

    def both(n, u):
        final(n, u)
        fields.append(u)

    solve(prob, mesh, tm, basis, fw, both)
    assert final.value == final_time_error(fields, tm, mesh, basis, prob.exact)


def test_streamed_error_functionals_validate_input():
    prob = example1(0.5)
    mesh = SpatialMesh(2, 2)
    tm = GradedTimeMesh(3, 1.0, 0.1)
    u0 = VolumeGrid.build(mesh, BasisSpec(0)).project(prob.u0)
    final = FinalTimeError(tm, mesh, BasisSpec(0), prob.exact)
    final(0, u0)
    assert math.isnan(final.value)  # u^M not seen yet


def test_rates_recover_exact_powers_and_validate_input():
    assert rates([16.0, 4.0, 1.0], [4.0, 2.0, 1.0]) == pytest.approx([2.0, 2.0])
    assert rates([1.0 / 8, 1.0 / 64], [0.5, 0.25])[0] == pytest.approx(3.0)
    with pytest.raises(InvalidArgumentError):
        rates([1.0, 2.0], [1.0])
    with pytest.raises(InvalidArgumentError):
        rates([1.0], [1.0])
    with pytest.raises(InvalidArgumentError):
        rates([1.0, -1.0], [2.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        rates([1.0, 2.0], [2.0, -1.0])
    with pytest.raises(InvalidArgumentError):
        rates([1.0, 2.0], [1.0, 1.0])
    # A nan or an infinity has no rate, in the errors or in the params;
    # logarithms would give nan, -inf or a plausible 0.0 for them.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="errors must be positive and finite"):
            rates([bad, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidArgumentError, match="params must be positive and finite"):
            rates([1.0, 0.5], [bad, 2.0])


def test_spd_condition_rejects_bad_norm_and_singular_input():
    # condition_number measures the 2-norm only: a norm argument is refused.
    # It has no singular input to reject: a0 * m > 0 and K is PSD.
    ops = LdgOperators(SpatialMesh(3, 3), BasisSpec(0), FluxWeights(1.0, 0.0))
    A = L1Kernel(0.5, GradedTimeMesh(5, 1.0, 0.1))
    with pytest.raises(TypeError):
        condition_number(ops, A, norm="1")


def _classical_scaling(nx: int, ny: int, k: int) -> np.ndarray:
    """Diagonal that rescales orthonormal modes to classical Legendre modes,
    written out index by index, independent of the vectorized implementation."""
    d = np.empty(nx * ny * (k + 1) ** 2)
    pos = 0
    for i in range(nx):
        for r in range(k + 1):
            for j in range(ny):
                for s in range(k + 1):
                    d[pos] = 1.0 / math.sqrt((r + 0.5) * (s + 0.5))
                    pos += 1
    return d


def test_condition_number_matches_dense_oracle_in_both_bases():
    mesh = SpatialMesh(4, 4)
    ops = LdgOperators(mesh, BasisSpec(1), FluxWeights(1.0, 0.0))
    tm = GradedTimeMesh(10, 2.0, 0.1)
    A = L1Kernel(0.7, tm)
    S = system_matrix(ops, l1_row(A, 10)[0]).toarray()

    d = _classical_scaling(4, 4, 1)
    ref_classical = dense_condition_2norm(d[:, None] * S * d[None, :])
    got_classical = condition_number(ops, A)
    assert got_classical == pytest.approx(ref_classical, rel=1e-10)
    # The rescaling matters for k >= 1: the orthonormal-basis value differs.
    assert got_classical != pytest.approx(dense_condition_2norm(S), rel=1e-2)


def test_condition_number_basis_choice_is_immaterial_for_constants():
    # For piecewise constants the rescaling is a scalar multiple of the
    # identity, so the classical-basis value equals the orthonormal one.
    mesh = SpatialMesh(6, 6)
    ops = LdgOperators(mesh, BasisSpec(0), FluxWeights(0.0, 1.0))
    tm = GradedTimeMesh(8, 2.0, 0.1)
    A = L1Kernel(0.4, tm)
    a = condition_number(ops, A)
    b = dense_condition_2norm(system_matrix(ops, l1_row(A, 8)[0]))
    assert a == pytest.approx(b, rel=1e-10)
    assert a >= 1.0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("flux", [(1.0, 0.0), (0.3, 0.49), (0.49, 1.0), (0.0, 0.3)])
def test_condition_number_matches_dense_oracle(k, flux):
    # The per-mode Fourier blocks against the SVD of the whole classical-basis
    # matrix D S D, with K from the dense loop-based assembly, on meshes with
    # one and two cells per direction and with nx != ny.
    fw = FluxWeights(*flux)
    for nx, ny in ((1, 2), (2, 3), (3, 1), (4, 4), (7, 5)):
        ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(k), fw)
        K = lifted_stiffness(nx, ny, k, *flux, ops.mesh.hx, ops.mesh.hy)
        d = _classical_scaling(nx, ny, k)
        for alpha in (0.3, 0.7):
            A = L1Kernel(alpha, GradedTimeMesh(10, 2.0, 0.1))
            S = (A.a0(10) * ops.M) * np.eye(ndof(ops)) + K
            ref = dense_condition_2norm(d[:, None] * S * d[None, :])
            assert condition_number(ops, A) == pytest.approx(ref, rel=1e-10), (alpha, nx, ny)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("flux", [(1.0, 0.0), (0.9, 0.1), (0.8, 0.2), (0.7, 0.3)])
def test_condition_number_matches_the_per_mode_form_bitwise(k, flux):
    # One batched eigvalsh over every (mx, my) block, with kron(Kxhat, I)
    # formed by broadcasting, gives the same bits as one call per x mode
    # with np.kron.
    fw = FluxWeights(*flux)
    for nx, ny in ((5, 5), (12, 12), (16, 16), (5, 12)):
        ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(k), fw)
        for alpha, gamma in ((0.3, 6.0), (0.7, 2.0)):
            A = L1Kernel(alpha, GradedTimeMesh(100, gamma, 0.1))
            assert condition_number(ops, A) == condition_number_by_x_modes(ops, A), (nx, ny, alpha)


def test_condition_number_factorizes_nothing(monkeypatch):
    def no_solve(*args, **kwargs):
        raise RuntimeError("linear system solved or factorized")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_solve)
    monkeypatch.setattr(LdgOperators, "solve_system", no_solve)
    ops = LdgOperators(SpatialMesh(5, 5), BasisSpec(1), FluxWeights(0.9, 0.1))
    A = L1Kernel(0.3, GradedTimeMesh(10, 2.0, 0.1))
    assert condition_number(ops, A) > 1.0


@pytest.mark.parametrize("nx,ny,degree", [(1, 1, 8), (4, 4, 8), (12, 12, 8), (16, 16, 3), (32, 32, 2),
                                           (3, 12, 8), (12, 3, 8)])
def test_condition_number_peak_is_within_its_count(nx, ny, degree):
    # The CLI sizes a condition-number row by _fourier_blocks_bytes on top
    # of a solve's footprint. The count alone bounds the traced peak of one
    # call, with no margin beyond the iterator buffers it names. The call is
    # traced after a warm-up call; in a fresh process the first call peaks
    # up to about 124 KB higher (12 x 12 Q8: 17 956 175 B against a count
    # of 19 487 184 B).
    import tracemalloc

    from fracldg.analysis import _fourier_blocks_bytes

    mesh, basis = SpatialMesh(nx, ny), BasisSpec(degree)
    ops = LdgOperators(mesh, basis, FluxWeights(1.0, 0.0))
    A = L1Kernel(0.5, GradedTimeMesh(1, 1.0, 0.1))
    condition_number(ops, A)
    tracemalloc.start()
    try:
        condition_number(ops, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _fourier_blocks_bytes(mesh, basis), peak


def test_run_path_builds_no_sparse_matrix(monkeypatch):
    def no_sparse(*args, **kwargs):
        raise RuntimeError("sparse matrix built")

    for name in ("kron", "kronsum", "csr_matrix"):
        monkeypatch.setattr(f"scipy.sparse.{name}", no_sparse)
    prob = example1(0.4)
    mesh = SpatialMesh(4, 3)
    tm = GradedTimeMesh(5, 2.0, 0.1)
    fields = solve_fields(prob, mesh, tm, BasisSpec(1), FluxWeights(0.9, 0.1))
    assert np.all(np.isfinite(fields[-1].coeffs))
    ops = LdgOperators(mesh, BasisSpec(1), FluxWeights(0.9, 0.1))
    assert condition_number(ops, L1Kernel(prob.alpha, tm)) > 1.0


def test_error_report_formats_csv_and_text():
    rep = ErrorReport(
        kind="spatial",
        param_name="1/nx",
        params=["1/4", "1/8"],
        errors=[1.0e-2, 2.5e-3],
        rates=[2.0],
    )
    assert rep.to_csv() == (
        "param,error,rate\n"
        "1/4,1.0000000000e-02,\n"
        "1/8,2.5000000000e-03,2.0000\n"
    )
    text = rep.to_text()
    assert "1/nx" in text and "error" in text and "2.0000" in text
    assert len(text.strip().splitlines()) == 4

    single = ErrorReport("conditioning", "M", ["20"], [13.0], [])
    assert single.to_csv() == "param,error,rate\n20,1.3000000000e+01,\n"
