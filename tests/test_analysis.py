from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fracldg.analysis import (
    ErrorReport,
    FinalTimeError,
    TimeIntegratedError,
    condition_number,
    error_E,
    error_time_integrated,
    rates,
)
from fracldg.basis import (
    BasisSpec,
    DgField,
    eval_on_grid,
    gauss_rule,
    l2_project,
    legendre_values,
    quad_l2_norm,
    volume_quad_points,
)
from fracldg.errors import InvalidArgumentError, NumericError
from fracldg.fractional import l1_coefficients
from fracldg.ldg import FluxWeights, Trajectory, assemble_operators, solve
from fracldg.meshes import build_graded_time_mesh, build_spatial_mesh
from fracldg.problems import example1, example2

from oracles import (
    dense_condition_2norm,
    field_eval,
    project_P,
    project_Q,
    spd_condition_splu,
    system_matrix,
)


def _smooth(x, y):
    return np.sin(2 * math.pi * x) * np.cos(4 * math.pi * y) + np.cos(2 * math.pi * (x + y))


def _x_interface_moments(u, mesh, k):
    """Line moments of u(x_{i+1/2}, .) against the transverse modes, by quadrature."""
    quad = gauss_rule(k + 4)
    V = legendre_values(k, quad.nodes)
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    vals = u(mesh.x_edges[1:, None, None], y_pts[None, :, :])
    return np.einsum("ijq,qs->ijs", vals, quad.weights[:, None] * V)


def _weighted_trace_moments(f, mesh, k, sigma):
    """Same moments for the weighted average of the one-sided traces of a DG field."""
    quad = gauss_rule(k + 4)
    V = legendre_values(k, quad.nodes)
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    X = np.broadcast_to(mesh.x_edges[1:, None, None], (mesh.nx, mesh.ny, quad.npoints))
    Y = np.broadcast_to(y_pts[None, :, :], (mesh.nx, mesh.ny, quad.npoints))
    left = field_eval(f, X, Y, side_x="-")
    right = field_eval(f, X, Y, side_x="+")
    avg = sigma * left + (1.0 - sigma) * right
    return np.einsum("ijq,qs->ijs", avg, quad.weights[:, None] * V)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s1,s2", [(1.0, 0.0), (0.7, 0.2)])
def test_full_projection_satisfies_defining_conditions(k, s1, s2):
    mesh = build_spatial_mesh(6, 5)
    basis = BasisSpec(k)
    fw = FluxWeights(s1, s2)
    P = project_P(_smooth, fw, mesh, basis)
    scale = np.max(np.abs(P.coeffs))
    # Interior moments agree with the plain projection on modes below k.
    full = l2_project(_smooth, mesh, basis, gauss_rule(k + 4))
    np.testing.assert_allclose(
        P.coeffs[:, :, :k, :k], full.coeffs[:, :, :k, :k], atol=1e-13 * scale
    )
    # Weighted traces across x-interfaces match the function's line moments
    # for transverse modes below k.
    got = _weighted_trace_moments(P, mesh, k, s1)[:, :, :k]
    want = _x_interface_moments(_smooth, mesh, k)[:, :, :k]
    np.testing.assert_allclose(got, want, atol=1e-11 * scale)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_full_projection_corner_condition(k):
    mesh = build_spatial_mesh(5, 6)
    basis = BasisSpec(k)
    s1, s2 = 0.8, 0.3
    P = project_P(_smooth, FluxWeights(s1, s2), mesh, basis)
    X, Y = np.meshgrid(mesh.x_edges[1:], mesh.y_edges[1:], indexing="ij")
    avg = (
        s1 * s2 * field_eval(P, X, Y, "-", "-")
        + s1 * (1.0 - s2) * field_eval(P, X, Y, "-", "+")
        + (1.0 - s1) * s2 * field_eval(P, X, Y, "+", "-")
        + (1.0 - s1) * (1.0 - s2) * field_eval(P, X, Y, "+", "+")
    )
    np.testing.assert_allclose(avg, _smooth(X, Y), atol=1e-10)


def test_full_projection_is_linear_and_reproduces_constants():
    mesh = build_spatial_mesh(4, 4)
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
    mesh = build_spatial_mesh(5, 4)
    basis = BasisSpec(k)
    Q = project_Q(_smooth, sigma, "x", mesh, basis)
    scale = np.max(np.abs(Q.coeffs))
    full = l2_project(_smooth, mesh, basis, gauss_rule(k + 4))
    np.testing.assert_allclose(
        Q.coeffs[:, :, :k, :], full.coeffs[:, :, :k, :], atol=1e-13 * scale
    )
    got = _weighted_trace_moments(Q, mesh, k, sigma)
    want = _x_interface_moments(_smooth, mesh, k)
    np.testing.assert_allclose(got, want, atol=1e-11 * scale)


def test_projections_reject_central_weight_and_bad_axis():
    mesh = build_spatial_mesh(4, 4)
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
        mesh = build_spatial_mesh(n, n)
        quad = gauss_rule(basis.k + 4)
        diff = make(mesh, basis).eval_volume_quad(quad) - eval_on_grid(_mode, mesh, quad)
        errs.append(quad_l2_norm(diff, mesh, quad))
    got = rates(errs, [1.0 / 8, 1.0 / 16, 1.0 / 32])[-1]
    assert abs(got - 2.0) <= 0.1


def _constant_trajectory(decay: float) -> tuple[Trajectory, float]:
    prob = example1(0.5, T=0.4)
    mesh = build_spatial_mesh(5, 5)
    basis = BasisSpec(1)
    u0 = l2_project(prob.u0, mesh, basis)
    tm = build_graded_time_mesh(1, 1.0, prob.T)
    traj = Trajectory(
        fields=[u0, DgField(u0.coeffs * decay, basis, mesh)], tm=tm, prob=prob, mesh=mesh,
        basis=basis, fw=FluxWeights(1.0, 0.0),
    )
    return traj, u0.l2_norm()


def test_error_functional_is_scaled_final_time_norm():
    # Against the zero function the functional must equal T times the
    # coefficient norm of the last field, which the orthonormal basis gives
    # in closed form.
    traj, norm0 = _constant_trajectory(decay=1.0)
    zero = lambda t, x, y: np.zeros(np.broadcast(x, y).shape)
    assert error_E(traj, zero) == pytest.approx(0.4 * norm0, rel=1e-12)


def test_time_integrated_error_on_linear_decay():
    # With e(t) shrinking linearly from ||u0|| to 0 the integral is
    # T ||u0|| / 2; with constant history it is T ||u0||.
    zero = lambda t, x, y: np.zeros(np.broadcast(x, y).shape)
    traj, norm0 = _constant_trajectory(decay=1.0)
    assert error_time_integrated(traj, zero) == pytest.approx(0.4 * norm0, rel=1e-12)
    traj, norm0 = _constant_trajectory(decay=0.0)
    assert error_time_integrated(traj, zero) == pytest.approx(0.2 * norm0, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        error_time_integrated(traj, zero, quad_t=1)


def _pairwise_time_integrated(traj, exact, quad_t):
    """The time-integrated error by its defining loop over consecutive pairs
    of stored fields, with the errors at the points recomputed per level."""
    squad, tquad = gauss_rule(traj.basis.default_quad_points), gauss_rule(quad_t)
    X, Y = volume_quad_points(traj.mesh, squad)

    def nodal(n):
        vals = exact(traj.tm.t[n], X[:, None, :, None], Y[None, :, None, :])
        return vals - traj.fields[n].eval_volume_quad(squad)

    total = 0.0
    for n in range(1, traj.tm.M + 1):
        e_prev, e_next, tau = nodal(n - 1), nodal(n), traj.tm.tau[n - 1]
        for theta, w in zip(tquad.nodes, tquad.weights):
            z = (theta + 1.0) / 2.0
            total += w * (tau / 2.0) * quad_l2_norm((1.0 - z) * e_prev + z * e_next, traj.mesh, squad)
    return total


@pytest.mark.parametrize("M", [1, 33, 100])
@pytest.mark.parametrize("example", [example1, example2])
def test_streamed_error_functionals_equal_trajectory_forms_bitwise(M, example):
    # M = 1, 33, 100 crosses 0, 1 and 3 panel boundaries. The observers see
    # the levels as solve produces them and keep no field; the Trajectory
    # forms replay the stored fields; the defining formulas recompute both
    # functionals from the stored fields. All three agree to the bit.
    prob = example(0.4)
    mesh = build_spatial_mesh(3, 2)
    basis = BasisSpec(1)
    tm = build_graded_time_mesh(M, 6.0, prob.T)
    fw = FluxWeights(1.0, 0.0)
    final = FinalTimeError(tm, mesh, basis, prob.exact)
    integrated = TimeIntegratedError(tm, mesh, basis, prob.exact, quad_t=4)

    def both(n, u):
        final(n, u)
        integrated(n, u)

    assert solve(prob, mesh, tm, basis, fw, both) is None
    traj = solve(prob, mesh, tm, basis, fw)
    squad = gauss_rule(basis.default_quad_points)
    X, Y = volume_quad_points(mesh, squad)
    e_final = prob.exact(prob.T, X[:, None, :, None], Y[None, :, None, :])
    e_final = e_final - traj.fields[M].eval_volume_quad(squad)
    assert final.value == error_E(traj, prob.exact) == prob.T * quad_l2_norm(e_final, mesh, squad)
    assert integrated.value == error_time_integrated(traj, prob.exact, quad_t=4)
    assert integrated.value == _pairwise_time_integrated(traj, prob.exact, 4)


def test_streamed_error_functionals_validate_input():
    prob = example1(0.5)
    mesh = build_spatial_mesh(2, 2)
    tm = build_graded_time_mesh(3, 1.0, prob.T)
    with pytest.raises(InvalidArgumentError, match="time quadrature"):
        TimeIntegratedError(tm, mesh, BasisSpec(0), prob.exact, quad_t=1)
    acc = TimeIntegratedError(tm, mesh, BasisSpec(0), prob.exact)
    u0 = l2_project(prob.u0, mesh, BasisSpec(0))
    acc(0, u0)
    with pytest.raises(InvalidArgumentError, match="level 2 observed after 1"):
        acc(2, u0)
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


def _random_spd(n: int, cond: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0.0, math.log10(cond), n)
    return (Q * d) @ Q.T


def test_spd_condition_two_norm_matches_dense_oracle():
    S = _random_spd(50, 1.0e4, seed=99)
    got = spd_condition_splu(sp.csc_matrix(S))
    ref = dense_condition_2norm(S)
    assert ref == pytest.approx(1.0e4, rel=1e-6)
    assert got == pytest.approx(ref, rel=1e-2)


def test_spd_condition_rejects_bad_norm_and_singular_input():
    # condition_number measures the 2-norm only: a norm argument is refused.
    ops = assemble_operators(build_spatial_mesh(3, 3), BasisSpec(0), FluxWeights(1.0, 0.0))
    A = l1_coefficients(build_graded_time_mesh(5, 1.0, 0.1), 0.5)
    with pytest.raises(TypeError):
        condition_number(ops, A, 5, norm="1")
    with pytest.raises(NumericError):
        spd_condition_splu(sp.csc_matrix(np.ones((4, 4))))


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
    mesh = build_spatial_mesh(4, 4)
    ops = assemble_operators(mesh, BasisSpec(1), FluxWeights(1.0, 0.0))
    tm = build_graded_time_mesh(10, 2.0, 0.1)
    A = l1_coefficients(tm, 0.7)
    S = system_matrix(ops, A.row(10)[0]).toarray()

    got_internal = spd_condition_splu(S)
    assert got_internal == pytest.approx(dense_condition_2norm(S), rel=2e-2)

    d = _classical_scaling(4, 4, 1)
    ref_classical = dense_condition_2norm(d[:, None] * S * d[None, :])
    got_classical = condition_number(ops, A, 10)
    assert got_classical == pytest.approx(ref_classical, rel=2e-2)


def test_condition_number_basis_choice_is_immaterial_for_constants():
    # For piecewise constants the rescaling is a scalar multiple of the
    # identity, so the classical-basis value equals the orthonormal one.
    mesh = build_spatial_mesh(6, 6)
    ops = assemble_operators(mesh, BasisSpec(0), FluxWeights(0.0, 1.0))
    tm = build_graded_time_mesh(8, 2.0, 0.1)
    A = l1_coefficients(tm, 0.4)
    a = condition_number(ops, A, 8)
    b = spd_condition_splu(system_matrix(ops, A.row(8)[0]))
    assert a == pytest.approx(b, rel=1e-10)
    assert a >= 1.0


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("flux", [(1.0, 0.0), (0.9, 0.1), (0.7, 0.3)])
def test_condition_number_matches_splu_oracle(k, flux):
    # Same seeded power iteration on the same classical-basis matrix; only
    # the inverse differs (fast diagonalization against an LU factorization).
    for alpha in (0.3, 0.7):
        A = l1_coefficients(build_graded_time_mesh(10, 2.0, 0.1), alpha)
        for nx in (4, 5, 6):
            ops = assemble_operators(build_spatial_mesh(nx, nx), BasisSpec(k), FluxWeights(*flux))
            D = sp.diags(_classical_scaling(nx, nx, k))
            ref = spd_condition_splu(D @ system_matrix(ops, A.row(10)[0]) @ D)
            assert condition_number(ops, A, 10) == pytest.approx(ref, rel=1e-8), (alpha, nx)


def test_condition_number_factorizes_nothing(monkeypatch):
    def no_splu(*args, **kwargs):
        raise RuntimeError("splu called")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_splu)
    ops = assemble_operators(build_spatial_mesh(5, 5), BasisSpec(1), FluxWeights(0.9, 0.1))
    A = l1_coefficients(build_graded_time_mesh(10, 2.0, 0.1), 0.3)
    assert condition_number(ops, A, 10) > 1.0


def test_run_path_builds_no_sparse_matrix(monkeypatch):
    def no_sparse(*args, **kwargs):
        raise RuntimeError("sparse matrix built")

    for name in ("kron", "kronsum", "csr_matrix"):
        monkeypatch.setattr(f"scipy.sparse.{name}", no_sparse)
    prob = example1(0.4)
    mesh = build_spatial_mesh(4, 3)
    tm = build_graded_time_mesh(5, 2.0, prob.T)
    traj = solve(prob, mesh, tm, BasisSpec(1), FluxWeights(0.9, 0.1))
    assert np.all(np.isfinite(traj.fields[-1].coeffs))
    ops = assemble_operators(mesh, BasisSpec(1), FluxWeights(0.9, 0.1))
    assert condition_number(ops, l1_coefficients(tm, prob.alpha), 5) > 1.0


def test_condition_number_rejects_step_index_outside_table():
    mesh = build_spatial_mesh(3, 3)
    ops = assemble_operators(mesh, BasisSpec(0), FluxWeights(1.0, 0.0))
    A = l1_coefficients(build_graded_time_mesh(5, 1.0, 0.1), 0.5)
    with pytest.raises(InvalidArgumentError):
        condition_number(ops, A, 0)
    with pytest.raises(InvalidArgumentError):
        condition_number(ops, A, 6)


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
