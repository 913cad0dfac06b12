from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracldg.basis import (
    BasisSpec,
    DgField,
    eval_on_grid,
    gauss_rule,
    l2_project,
    legendre_values,
    quad_l2_norm,
)
from fracldg.errors import InvalidArgumentError, NumericError
from fracldg.fractional import (
    HISTORY_PANEL,
    history_panel,
    l1_coefficients,
    substantial_history,
)
from fracldg.ldg import (
    FluxWeights,
    History,
    StepGrid,
    assemble_operators,
    solve,
    step,
)
from fracldg.cli import _make_problem, load_config, presets_dir
from fracldg.ldg import (
    MAX_TEMPERING_EXPONENT,
    _check_tempering_range,
    _directional_operator,
    _moment_vector,
    footprint_bytes,
    physical_memory_bytes,
)
from fracldg.meshes import build_graded_time_mesh, build_spatial_mesh
from fracldg.problems import ProblemSpec, example1, example2

from oracles import (
    bilinear_form_B,
    dense_directional_operator,
    lifted_stiffness,
    solve_stepwise,
    system_matrix,
)

FLUXES = [(1.0, 0.0), (0.0, 1.0), (0.7, 0.2), (0.3, 0.8)]


def test_central_flux_warns():
    with pytest.warns(UserWarning, match="central"):
        FluxWeights(0.5, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FluxWeights(0.8, 0.3)  # no warning for non-central weights


@pytest.mark.parametrize(
    "sigmas",
    [(1.7, -0.4), (-0.1, 0.2), (0.2, 1.0 + 1e-12), (math.nan, 0.0), (0.0, math.inf)],
)
def test_flux_weights_outside_unit_interval_rejected(sigmas):
    with pytest.raises(InvalidArgumentError, match="must lie in"):
        FluxWeights(*sigmas)


def test_directional_operator_matches_dense_oracle():
    # n = 1, 2: the periodic neighbors coincide with each other or with the
    # cell itself, so every block term must add into the same entries.
    for n in (1, 2, 4, 7):
        for k in (0, 1, 2, 3):
            for sigma in (1.0, 0.0, 0.7, 0.3):
                got = _directional_operator(n, k, sigma)
                ref = dense_directional_operator(n, k, sigma)
                np.testing.assert_allclose(got, ref, atol=1e-12)


def test_flux_duality():
    # The p-flux operator (weight 1 - sigma) is minus the transpose of the
    # u-flux operator (weight sigma); this is what makes K symmetric PSD.
    for n, k, sigma in ((5, 0, 1.0), (5, 2, 0.7), (6, 1, 0.3), (4, 2, 0.0)):
        G = _directional_operator(n, k, sigma)
        H = _directional_operator(n, k, 1.0 - sigma)
        np.testing.assert_allclose(H, -G.T, atol=1e-12)


def test_global_operator_symmetric_positive_semidefinite():
    # Non-square meshes catch a swapped Kronecker order; nx or ny in {1, 2}
    # puts the periodic neighbors of a cell on one block.
    rng = np.random.default_rng(29)
    for nx, ny in ((6, 5), (1, 4), (3, 1), (2, 5), (4, 2), (1, 2), (2, 2)):
        mesh = build_spatial_mesh(nx, ny)
        for s1, s2 in FLUXES:
            for k in (0, 1, 2, 3):
                ops = assemble_operators(mesh, BasisSpec(k), FluxWeights(s1, s2))
                K = ops.K.toarray()
                K_ref = lifted_stiffness(nx, ny, k, s1, s2, mesh.hx, mesh.hy)
                np.testing.assert_allclose(K, K_ref, rtol=0.0, atol=1e-12 * np.max(np.abs(K_ref)))
                assert np.max(np.abs(K - K.T)) <= 1e-11 * np.max(np.abs(K))
                eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
                assert eigs.min() >= -1e-9 * eigs.max()
                x = rng.standard_normal(ops.ndof)
                atol = 1e-12 * np.max(np.abs(K_ref)) * np.max(np.abs(x))
                Kx = ops.apply_K(x)
                np.testing.assert_allclose(Kx, K_ref @ x, rtol=0.0, atol=atol)
                np.testing.assert_allclose(Kx, ops.K @ x, rtol=0.0, atol=atol)


def test_constants_are_steady_states():
    mesh = build_spatial_mesh(5, 4)
    for s1, s2 in FLUXES:
        ops = assemble_operators(mesh, BasisSpec(2), FluxWeights(s1, s2))
        const = l2_project(lambda x, y: 3.0 + 0.0 * x * y, mesh, BasisSpec(2))
        assert np.max(np.abs(ops.K @ ops.flatten(const))) <= 1e-11


def test_energy_nullity_of_bilinear_form():
    # B(u, u; p, p) = 0 when p is the discrete gradient of u: the interface
    # and volume contributions cancel exactly under periodic boundaries.
    mesh = build_spatial_mesh(4, 3)
    basis = BasisSpec(2)
    rng = np.random.default_rng(17)
    for s1, s2 in FLUXES:
        fw = FluxWeights(s1, s2)
        ops = assemble_operators(mesh, basis, fw)
        Du = np.kron(dense_directional_operator(4, 2, s1), (2.0 / mesh.hx) * np.eye(3 * 3))
        Lu = np.kron((2.0 / mesh.hy) * np.eye(4 * 3), dense_directional_operator(3, 2, s2))
        for _ in range(5):
            u = DgField(rng.standard_normal((4, 3, 3, 3)), basis, mesh)
            u = DgField(u.coeffs * (1.0 / u.l2_norm()), basis, mesh)
            px = ops.unflatten(Du @ ops.flatten(u))
            py = ops.unflatten(Lu @ ops.flatten(u))
            val = bilinear_form_B(u, u, (px, py), (px, py), fw)
            assert abs(val) <= 1e-11


def test_system_solve_matches_dense_reference():
    mesh = build_spatial_mesh(4, 4)
    ops = assemble_operators(mesh, BasisSpec(1), FluxWeights(1.0, 0.0))
    rng = np.random.default_rng(23)
    b = rng.standard_normal(ops.ndof)
    a0 = 7.3
    x = ops.solve_system(a0, b)
    x_ref = np.linalg.solve(system_matrix(ops, a0).toarray(), b)
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12)


def _splu_reference(ops, a0, b):
    return spla.splu(system_matrix(ops, a0).tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)


def _solve_cases():
    # Non-square meshes catch a swapped Kronecker order.
    for nx, ny in ((4, 4), (5, 3)):
        for k in (0, 1, 2, 3):
            for s1, s2 in ((1.0, 0.0), (0.6, 0.3), (0.5, 0.5)):
                for a0 in (0.5, 7.3, 1e8):
                    yield pytest.param(nx, ny, k, (s1, s2), a0, False,
                                       id=f"{nx}x{ny}-k{k}-{s1}:{s2}-a{a0:g}")
    # ndof 22 500, well past the shipped presets. Its entries reach |x| ~ 46,
    # so the absolute floor is scaled by max|x| to absorb splu-vs-eigh rounding.
    yield pytest.param(50, 50, 2, (1.0, 0.0), 7.3, True, id="50x50-k2-1.0:0.0-a7.3")


@pytest.mark.parametrize("nx,ny,k,flux,a0,scale_atol", _solve_cases())
def test_system_solve_matches_splu_reference(nx, ny, k, flux, a0, scale_atol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the central pair warns by design
        fw = FluxWeights(*flux)
    ops = assemble_operators(build_spatial_mesh(nx, ny), BasisSpec(k), fw)
    rng = np.random.default_rng(23)
    b = rng.standard_normal(ops.ndof)
    x = ops.solve_system(a0, b)
    x_ref = _splu_reference(ops, a0, b)
    atol = 1e-12 * np.max(np.abs(x_ref)) if scale_atol else 1e-12
    np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=atol)


_WEIGHT = st.floats(0.0, 1.0).filter(lambda s: s != 0.5)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    k=st.integers(0, 3),
    sigma1=_WEIGHT,
    sigma2=_WEIGHT,
    log_a0=st.floats(-2.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_system_solve_matches_splu_on_random_draws(nx, ny, k, sigma1, sigma2, log_a0, seed):
    # a0 is log-uniform over [1e-2, 1e8]: from nearly singular (the constant
    # mode's eigenvalue a0 * M against the spread of K) to mass dominated.
    ops = assemble_operators(build_spatial_mesh(nx, ny), BasisSpec(k), FluxWeights(sigma1, sigma2))
    a0 = 10.0**log_a0
    b = np.random.default_rng(seed).standard_normal(ops.ndof)
    x_ref = _splu_reference(ops, a0, b)
    np.testing.assert_allclose(
        ops.solve_system(a0, b), x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref))
    )


@pytest.mark.parametrize("nx,ny,flux", [(1, 6, (0.0, 1.0)), (6, 2, (0.499, 0.501))])
def test_system_solve_refines_ill_conditioned_steps(nx, ny, flux):
    # a0 = 1e-2, k = 3. On the 1 x 6 mesh (cond ~ 1.6e6) the plain
    # back-transform leaves a relative residual up to ~2e-10, above the
    # solver bound. Near the central flux, K has near-null modes besides the
    # constants; their eigenvalue rounding leaves a residual of ~1e-11 but a
    # forward error ~3x the tolerance below. Refinement fixes both.
    ops = assemble_operators(build_spatial_mesh(nx, ny), BasisSpec(3), FluxWeights(*flux))
    S = system_matrix(ops, 1e-2)
    for seed in range(10):
        b = np.random.default_rng(seed).standard_normal(ops.ndof)
        x = ops.solve_system(1e-2, b)
        assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
        x_ref = _splu_reference(ops, 1e-2, b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref)))


def test_solve_residual_guard_rejects_wrong_spectrum():
    mesh = build_spatial_mesh(5, 3)
    ops = assemble_operators(mesh, BasisSpec(1), FluxWeights(0.6, 0.3))
    b = np.random.default_rng(5).standard_normal(ops.ndof)
    ops.solve_system(7.3, b)
    ops.lam_x = 2.0 * ops.lam_x
    with pytest.raises(NumericError, match="residual"):
        ops.solve_system(7.3, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_nonfinite_rhs(bad):
    # A NaN norm compares False against the residual bound, so without an
    # explicit check a NaN right-hand side came back as a NaN solution.
    ops = assemble_operators(build_spatial_mesh(3, 3), BasisSpec(1), FluxWeights(1.0, 0.0))
    b = np.random.default_rng(6).standard_normal(ops.ndof)
    b[4] = bad
    with pytest.raises(NumericError, match="right-hand side is not finite"):
        ops.solve_system(7.3, b)


def test_solve_rejects_nonfinite_solution():
    ops = assemble_operators(build_spatial_mesh(3, 3), BasisSpec(1), FluxWeights(1.0, 0.0))
    b = np.random.default_rng(7).standard_normal(ops.ndof)
    a0 = 7.3
    ops.lam_x = np.full_like(ops.lam_x, -a0 * ops.M)  # zero denominators
    ops.lam_y = np.zeros_like(ops.lam_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="solution is not finite"):
            ops.solve_system(a0, b)


@pytest.mark.parametrize("nx,ny,k", [(3, 3, 0), (4, 2, 1), (2, 5, 2), (3, 4, 3)])
def test_moment_vector_matches_einsum(nx, ny, k):
    mesh = build_spatial_mesh(nx, ny)
    basis = BasisSpec(k)
    ops = assemble_operators(mesh, basis, FluxWeights(1.0, 0.0))
    quad = gauss_rule(basis.default_quad_points)
    q = len(quad.nodes)
    values = np.random.default_rng(8).standard_normal((nx, ny, q, q))
    WV = quad.weights[:, None] * legendre_values(k, quad.nodes)
    ref = ops.M * np.einsum("ijqp,qr,ps->ijrs", values, WV, WV)
    ref = np.ascontiguousarray(ref.transpose(0, 2, 1, 3)).ravel()
    got = _moment_vector(values, ops, WV)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def _constant_kappa_problem(k0: float, c_kappa: float, T: float) -> ProblemSpec:
    return ProblemSpec(
        alpha=0.5,
        kappa=lambda x, y: np.full(np.broadcast(x, y).shape, k0),
        c_kappa=c_kappa,
        u0=lambda x, y: np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y),
        f=None,
        exact=None,
        T=T,
    )


def test_solve_rejects_kappa_above_its_bound():
    mesh = build_spatial_mesh(3, 3)
    tm = build_graded_time_mesh(3, 1.0, 0.5)
    for k0 in (1.5, -1.5, math.nan):
        prob = _constant_kappa_problem(k0, 1.0, 0.5)
        with pytest.raises(InvalidArgumentError, match="exceeds c_kappa"):
            solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0))
    # Rounding in the kappa callable stays within the relative slack.
    prob = _constant_kappa_problem(1.0 + 1e-14, 1.0, 0.5)
    solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0))


def test_solve_rejects_tempering_exponent_overflow():
    # e^{800} overflows float64; the guard stops the run before any level is
    # tempered instead of letting inf reach the memory sum.
    mesh = build_spatial_mesh(3, 3)
    for c_kappa, T in ((800.0, 1.0), (2.0, 101.0)):
        assert c_kappa * T > MAX_TEMPERING_EXPONENT
        prob = _constant_kappa_problem(c_kappa, c_kappa, T)
        tm = build_graded_time_mesh(3, 1.0, T)
        with pytest.raises(InvalidArgumentError, match="c_kappa \\* T"):
            solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0))


def test_shipped_and_random_problems_pass_tempering_guard():
    # Every preset's problem, and the kappa families the acceptance stability
    # test draws (constant k0 with c_kappa = |k0|; a cos(2 pi x) + b with
    # c_kappa = |a| + |b|), including draws that sit on the bound.
    mesh = build_spatial_mesh(6, 6)
    for path in sorted(presets_dir().glob("*.yaml")):
        cfg = load_config(path.stem)
        quad = gauss_rule(BasisSpec(cfg.degree).default_quad_points)
        prob = _make_problem(cfg, cfg.alpha)
        tm = build_graded_time_mesh(cfg.M, cfg.gamma, cfg.T)
        _check_tempering_range(prob, tm, eval_on_grid(prob.kappa, mesh, quad))
    tm = build_graded_time_mesh(8, 4.0, 1.0)
    for k in (0, 1, 2):
        quad = gauss_rule(BasisSpec(k).default_quad_points)
        for prob in (example1(0.5, T=1.0), example2(0.5, T=1.0)):
            _check_tempering_range(prob, tm, eval_on_grid(prob.kappa, mesh, quad))
        for k0 in (-2.0, -0.7, 0.0, 2.0):
            prob = _constant_kappa_problem(k0, abs(k0), 1.0)
            _check_tempering_range(prob, tm, eval_on_grid(prob.kappa, mesh, quad))
        for a, b in ((1.5, 0.5), (-1.5, -0.5), (0.3, -0.2)):
            kq = eval_on_grid(lambda x, y: a * np.cos(2 * math.pi * x) + b + 0.0 * y, mesh, quad)
            _check_tempering_range(_constant_kappa_problem(0.0, abs(a) + abs(b), 1.0), tm, kq)


def test_flatten_unflatten_roundtrip():
    mesh = build_spatial_mesh(3, 5)
    basis = BasisSpec(2)
    ops = assemble_operators(mesh, basis, FluxWeights(1.0, 0.0))
    rng = np.random.default_rng(2)
    f = DgField(rng.standard_normal((3, 5, 3, 3)), basis, mesh)
    g = ops.unflatten(ops.flatten(f))
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0.0)


def test_discrete_substantial_derivative_exact_on_tempered_linears():
    # For u = e^{-kappa(x) t} * v(t) with v linear, the pointwise identity
    # A_0 u^n + history = e^{-kappa t_n} * (exact power-law derivative of v)
    # holds because the tempering factors are applied exactly and the
    # memory quadrature is exact on linear data.
    mesh = build_spatial_mesh(4, 4)
    basis = BasisSpec(1)
    quad = gauss_rule(basis.default_quad_points)
    alpha = 0.6
    tm = build_graded_time_mesh(6, 2.0, 0.8)
    A = l1_coefficients(tm, alpha)
    kq = eval_on_grid(lambda x, y: np.cos(2 * math.pi * x) + 0.0 * y, mesh, quad)

    for v, dv_exact in (
        (lambda t: np.ones_like(t), lambda t: 0.0),
        (lambda t: t, lambda t: t ** (1.0 - alpha) / math.gamma(2.0 - alpha)),
    ):
        hist_quad = [np.exp(-kq * t) * v(t) for t in tm.t]
        tempered = np.stack([np.exp(kq * t) * h for t, h in zip(tm.t, hist_quad)])
        for n in (1, 3, 6):
            hist = substantial_history(A, kq, tempered, n)
            got = A.row(n)[0] * hist_quad[n] + hist
            expected = np.exp(-kq * tm.t[n]) * dv_exact(tm.t[n])
            scale = A.row(n)[0] * np.max(np.abs(hist_quad[n]))
            assert np.max(np.abs(got - expected)) <= 1e-8 * scale


def test_stability_bound_homogeneous_runs():
    # Constant tempering kappa: the trajectory norm never exceeds
    # e^(|kappa| t_n) times the initial norm (the transformed problem is
    # dissipative and the tempering enters as an exact exponential factor).
    rng = np.random.default_rng(31)
    mesh = build_spatial_mesh(5, 5)
    basis = BasisSpec(0)
    for _ in range(10):
        kappa0 = float(rng.uniform(-2.0, 2.0))
        alpha = float(rng.uniform(0.2, 0.9))
        gamma = float(rng.uniform(1.0, 3.0))
        T = float(rng.uniform(0.05, 0.8))
        a, b, c = rng.standard_normal(3)

        def u0(x, y, a=a, b=b, c=c):
            return (a * np.cos(2 * math.pi * x) * np.sin(2 * math.pi * y)
                    + b * np.sin(2 * math.pi * x) + c * np.cos(2 * math.pi * y))

        prob = ProblemSpec(
            alpha=alpha,
            kappa=lambda x, y, k0=kappa0: np.full(np.broadcast(x, y).shape, k0),
            c_kappa=abs(kappa0),
            u0=u0,
            f=None,
            exact=None,
            T=T,
        )
        tm = build_graded_time_mesh(6, gamma, T)
        traj = solve(prob, mesh, tm, basis, FluxWeights(1.0, 0.0))
        norm0 = traj.fields[0].l2_norm()
        for n in range(1, 7):
            bound = math.exp(abs(kappa0) * tm.t[n]) * norm0
            assert traj.fields[n].l2_norm() <= bound * (1.0 + 1e-10)


def test_step_rejects_short_history():
    mesh = build_spatial_mesh(3, 3)
    basis = BasisSpec(0)
    prob = example1(0.5)
    tm = build_graded_time_mesh(4, 2.0, prob.T)
    A = l1_coefficients(tm, prob.alpha)
    ops = assemble_operators(mesh, basis, FluxWeights(0.0, 1.0))
    quad = gauss_rule(basis.default_quad_points)
    grid = StepGrid.build(prob, mesh, basis, quad)
    history = History(A, grid.kappa, quad)
    history.push(0, l2_project(prob.u0, mesh, basis))
    with pytest.raises(InvalidArgumentError):
        step(ops, A, 2, prob, grid, history)


@pytest.mark.parametrize("n,start", [(HISTORY_PANEL + 1, 1), (5, 10)])
def test_step_rejects_panel_row_outside_its_panel(n, start):
    # A panel formed at `start` covers steps start..start + HISTORY_PANEL - 1;
    # its row is meaningless for any other step. step no longer takes a panel
    # row: History forms the panel of the step it serves. The one-shot
    # substantial_history, which History calls, keeps the check.
    mesh = build_spatial_mesh(3, 3)
    basis = BasisSpec(0)
    prob = example1(0.5)
    tm = build_graded_time_mesh(2 * HISTORY_PANEL, 2.0, prob.T)
    A = l1_coefficients(tm, prob.alpha)
    quad = gauss_rule(basis.default_quad_points)
    grid = StepGrid.build(prob, mesh, basis, quad)
    tempered = np.zeros((tm.M + 1,) + grid.kappa.shape)
    with pytest.raises(InvalidArgumentError, match="outside the panel"):
        substantial_history(A, grid.kappa, tempered, n, np.zeros(grid.kappa.size), start)


def _random_history(M: int, seed: int):
    """A History of M + 1 random Q1 levels on a 3 x 2 mesh, with its kernel
    and kappa, and the levels' tempered values stacked as the one-shot
    substantial_history reads them."""
    prob = example2(0.4)
    mesh = build_spatial_mesh(3, 2)
    basis = BasisSpec(1)
    quad = gauss_rule(basis.default_quad_points)
    A = l1_coefficients(build_graded_time_mesh(M, 3.0, prob.T), prob.alpha)
    kappa = eval_on_grid(prob.kappa, mesh, quad)
    history = History(A, kappa, quad)
    rng = np.random.default_rng(seed)
    tempered = np.empty((M + 1,) + kappa.shape)
    for n in range(M + 1):
        u = DgField(rng.standard_normal((3, 2, 2, 2)), basis, mesh)
        history.push(n, u)
        tempered[n] = np.exp(kappa * A.tm.t[n]) * u.eval_volume_quad(quad)
    return history, A, kappa, tempered


@pytest.mark.parametrize("M", [1, 31, 32, 33, 65, 100])
def test_history_sum_in_step_order_is_the_panel_form_bitwise(M):
    # History.sum in step order against the panel plumbing solve had before
    # History: one history_panel at every multiple of HISTORY_PANEL, and
    # substantial_history with that panel's row. Same operations, same bits.
    history, A, kappa, tempered = _random_history(M, 41)
    panel = np.empty((HISTORY_PANEL, kappa.size))
    for n in range(1, M + 1):
        start = n - n % HISTORY_PANEL
        if n == start:
            history_panel(A, tempered, start, panel[: M + 1 - start])
        ref = substantial_history(A, kappa, tempered, n, panel[n - start] if start else None, start)
        assert np.array_equal(history.sum(n), ref), n


def test_history_sum_out_of_order_matches_one_shot_sum():
    # A step of another panel re-forms that panel, so sum(n) is right in any
    # order, not only in step order.
    M = 100
    history, A, kappa, tempered = _random_history(M, 43)
    for n in (70, 40, 96, 5, 64, 63, 100, 32, 33, 1):
        ref = substantial_history(A, kappa, tempered, n)
        got = history.sum(n)
        assert np.max(np.abs(got - ref)) <= PANEL_DIFF_RTOL * np.max(np.abs(ref)), n


def test_history_push_takes_levels_in_order():
    history, A, kappa, _ = _random_history(3, 47)
    u = l2_project(example2(0.4).u0, build_spatial_mesh(3, 2), BasisSpec(1))
    with pytest.raises(InvalidArgumentError, match="in order"):
        history.push(4, u)  # the buffer holds u^0..u^3
    fresh = History(A, kappa, gauss_rule(4))
    with pytest.raises(InvalidArgumentError, match="in order"):
        fresh.push(1, u)
    fresh.push(0, u)
    with pytest.raises(InvalidArgumentError, match=r"must hold w\^0..w\^1"):
        fresh.sum(2)


#: Agreement demanded between solve and the stepwise oracle, per field,
#: relative to the field's max norm. Only the summation order of the memory
#: sum differs; over at most 100 levels it stays far below this.
PANEL_DIFF_RTOL = 1e-13


@pytest.mark.parametrize("M", [1, 31, 32, 33, 65, 100])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("example", [example1, example2])
@pytest.mark.parametrize("gamma", [1.0, 6.0])
def test_solve_matches_stepwise_oracle(M, k, example, gamma):
    # M = 1..100 crosses 0 to 3 panel boundaries; the oracle sums the whole
    # history at every step.
    prob = example(0.4)
    mesh = build_spatial_mesh(3, 2)
    basis = BasisSpec(k)
    tm = build_graded_time_mesh(M, gamma, prob.T)
    fw = FluxWeights(1.0, 0.0)
    got = solve(prob, mesh, tm, basis, fw).fields
    ref = solve_stepwise(prob, mesh, tm, basis, fw)
    assert len(got) == len(ref) == M + 1
    for n, (u, v) in enumerate(zip(got, ref)):
        scale = np.max(np.abs(v.coeffs))
        assert np.max(np.abs(u.coeffs - v.coeffs)) <= PANEL_DIFF_RTOL * scale, n


def test_solve_reads_fewer_than_a_panel_of_levels_per_step(monkeypatch):
    # A count, not a timing: every step sums at most HISTORY_PANEL - 1 stored
    # levels itself, and the rest comes from one panel GEMM per
    # HISTORY_PANEL steps. A return to an O(n) read per step fails here.
    import fracldg.ldg as ldg

    rows_read, panels = [], []

    def counting_history(A, kappa, tempered, n, panel_row=None, start=0):
        rows_read.append(n - start)
        return substantial_history(A, kappa, tempered, n, panel_row, start)

    def counting_panel(A, tempered, start, out):
        panels.append((start, len(out)))
        return history_panel(A, tempered, start, out)

    monkeypatch.setattr(ldg, "substantial_history", counting_history)
    monkeypatch.setattr(ldg, "history_panel", counting_panel)
    M = 100
    prob = example2(0.5)
    tm = build_graded_time_mesh(M, 2.0, prob.T)
    solve(prob, build_spatial_mesh(3, 3), tm, BasisSpec(1), FluxWeights(1.0, 0.0))
    assert len(rows_read) == M
    assert max(rows_read) < HISTORY_PANEL
    assert panels == [(32, 32), (64, 32), (96, 5)]


#: Peak traced allocation allowed for solve() on a 1 x 1 Q0 mesh at M = 2000.
#: A stored L1 coefficient table alone would take M (M + 1) / 2 * 8 B = 16 MB;
#: without one the run peaks near 3 MB (fields, tempered buffer, one panel).
SOLVE_PEAK_BYTES_M2000 = 8 * 2**20


def test_solve_memory_holds_no_l1_table():
    # A count of bytes, not a timing: the memory weights are evaluated per
    # panel, so the peak grows like M, not like M^2.
    import tracemalloc

    prob = example2(0.5)
    tm = build_graded_time_mesh(2000, 2.0, prob.T)
    mesh = build_spatial_mesh(1, 1)
    tracemalloc.start()
    try:
        solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SOLVE_PEAK_BYTES_M2000, peak


#: Memory reported by the patched probe in the footprint tests: far below
#: what the refused run would hold, far above what the check itself takes.
FOOTPRINT_PROBE_BYTES = 4 * 2**20


def test_footprint_counts_history_panel_blocks_and_fields():
    # 16 x 16 Q1, M = 200: q = 4 points per axis, so N_q = 4096 and
    # N_dof = 1024; the panel has HISTORY_PANEL rows; the 1D blocks are 32 x 32.
    mesh = build_spatial_mesh(16, 16)
    tm = build_graded_time_mesh(200, 2.0, 0.1)
    streamed = 8 * (201 * 4096 + HISTORY_PANEL * 4096 + 2 * (32**2 + 32**2))
    assert footprint_bytes(mesh, tm, BasisSpec(1), keep_fields=False) == streamed
    assert footprint_bytes(mesh, tm, BasisSpec(1), keep_fields=True) == streamed + 8 * 201 * 1024
    # M < HISTORY_PANEL forms no panel.
    short = build_graded_time_mesh(HISTORY_PANEL - 1, 2.0, 0.1)
    assert footprint_bytes(mesh, short, BasisSpec(1), keep_fields=False) == 8 * (
        HISTORY_PANEL * 4096 + 2 * (32**2 + 32**2)
    )


def test_physical_memory_probe_reports_bytes():
    limit = physical_memory_bytes()
    assert limit is None or (isinstance(limit, int) and limit > 0)


def test_solve_refuses_a_run_larger_than_physical_memory(monkeypatch):
    # A count of bytes, not a real allocation: the probe reports 4 MiB and the
    # run would hold ~8.5 MB. solve must raise before it assembles anything,
    # so the traced peak stays far below the 6.6 MB of the tempered levels.
    import tracemalloc

    import fracldg.ldg as ldg

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the footprint check")

    monkeypatch.setattr(ldg, "physical_memory_bytes", lambda: FOOTPRINT_PROBE_BYTES)
    monkeypatch.setattr(ldg, "assemble_operators", no_assembly)
    prob = example2(0.5)
    mesh = build_spatial_mesh(16, 16)
    tm = build_graded_time_mesh(200, 2.0, prob.T)
    basis = BasisSpec(1)
    for observe in (None, lambda n, u: None):
        need = footprint_bytes(mesh, tm, basis, keep_fields=observe is None)
        assert need > FOOTPRINT_PROBE_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match=f"needs {need} bytes .* {FOOTPRINT_PROBE_BYTES} bytes"):
                solve(prob, mesh, tm, basis, FluxWeights(1.0, 0.0), observe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_streamed_run_fits_where_stored_fields_do_not(monkeypatch):
    # The probe admits exactly the streamed footprint: solve with an observer
    # runs, the default solve, which also keeps M + 1 fields, is refused.
    import fracldg.ldg as ldg

    prob = example2(0.5)
    mesh = build_spatial_mesh(4, 4)
    tm = build_graded_time_mesh(40, 2.0, prob.T)
    basis = BasisSpec(1)
    fw = FluxWeights(1.0, 0.0)
    limit = footprint_bytes(mesh, tm, basis, keep_fields=False)
    monkeypatch.setattr(ldg, "physical_memory_bytes", lambda: limit)
    seen = []
    assert solve(prob, mesh, tm, basis, fw, lambda n, u: seen.append(n)) is None
    assert seen == list(range(41))
    with pytest.raises(NumericError, match="history, operators and fields"):
        solve(prob, mesh, tm, basis, fw)


#: Share of the M + 1 stored fields, (M + 1) N_dof 8 B, by which the traced
#: peak of a streamed solve must lie below the default solve's.
STREAM_SAVING_FRACTION = 0.85


def test_streamed_solve_keeps_no_field():
    # A count of bytes, not a timing. 8 x 8 Q1 at M = 2000: the fields take
    # 2001 * 256 * 8 B = 4.1 MB next to the 16.4 MB of tempered levels. An
    # observer that keeps nothing leaves the History as the only O(M) store.
    import tracemalloc

    prob = example2(0.5)
    M = 2000
    tm = build_graded_time_mesh(M, 2.0, prob.T)
    mesh = build_spatial_mesh(8, 8)
    basis = BasisSpec(1)
    fw = FluxWeights(1.0, 0.0)
    peaks = {}
    for mode, observe in (("stored", None), ("streamed", lambda n, u: None)):
        tracemalloc.start()
        try:
            solve(prob, mesh, tm, basis, fw, observe)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    fields_bytes = (M + 1) * mesh.nx * mesh.ny * basis.dofs_per_cell * 8
    assert peaks["stored"] - peaks["streamed"] >= STREAM_SAVING_FRACTION * fields_bytes, peaks


@pytest.mark.xfail(
    strict=True,
    reason="near-null modes: the residual-triggered refinement misses this forward error",
)
def test_system_solve_matches_dense_reference_near_central_flux():
    # Backward stable (relative residual ~4e-14, cond ~1.1e5) but about 1.3x
    # the forward tolerance of the random-draw test in near-null modes of K,
    # because refinement is triggered by the residual alone. The dense
    # reference itself is within 0.03x of the tolerance of an
    # extended-precision refinement. Kept as a strict xfail until the
    # trigger accounts for the conditioning of the step matrix.
    nx, ny, k, a0 = 6, 5, 3, 0.1
    ops = assemble_operators(build_spatial_mesh(nx, ny), BasisSpec(k), FluxWeights(0.49, 0.51))
    b = np.random.default_rng(0).standard_normal(ops.ndof)
    x_ref = np.linalg.solve(ops.K.toarray() + a0 * ops.M * np.eye(ops.ndof), b)
    np.testing.assert_allclose(
        ops.solve_system(a0, b), x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref))
    )


def test_solver_error_halves_with_mesh_refinement():
    # Settings where the time-discretization error is known to be far below
    # the spatial error, so doubling the mesh must halve the total error.
    prob = example1(0.7)
    tm = build_graded_time_mesh(20, 2.0, prob.T)
    errs = []
    for n in (6, 12):
        mesh = build_spatial_mesh(n, n)
        traj = solve(prob, mesh, tm, BasisSpec(0), FluxWeights(0.0, 1.0))
        quad = gauss_rule(3)
        diff = traj.fields[-1].eval_volume_quad(quad) - eval_on_grid(
            lambda x, y: prob.exact(prob.T, x, y), mesh, quad
        )
        errs.append(quad_l2_norm(diff, mesh, quad))
    assert errs[1] < 0.7 * errs[0]
