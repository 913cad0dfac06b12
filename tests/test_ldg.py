from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracldg.analysis import condition_number
from fracldg.basis import (
    BasisSpec,
    DgField,
    VolumeGrid,
    gauss_rule,
    legendre_values,
)
from fracldg.errors import InvalidArgumentError, NumericError, physical_memory_bytes
from fracldg.fractional import (
    HISTORY_PANEL,
    MAX_TEMPERING_EXPONENT,
    History,
    L1Kernel,
    _memory_weights,
)
from fracldg.ldg import (
    FluxWeights,
    LdgOperators,
    solve,
    step,
)
from fracldg.cli import _time_meshes, load_config, presets_dir
from fracldg.ldg import (
    _derivative_matrix,
    _directional_operator,
    block_symbol,
    footprint_bytes,
)
from fracldg.meshes import GradedTimeMesh, SpatialMesh
from fracldg.problems import ProblemSpec, example1, example2

from oracles import (
    bilinear_form_B,
    dense_directional_operator,
    l1_row,
    l2_norm,
    lifted_stiffness,
    march,
    memory_sum,
    ndof,
    solve_fields,
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
    # A finite weight is refused for its range, nan and inf for not being finite.
    with pytest.raises(InvalidArgumentError,
                       match=r"^sigma[12]( must lie in \[0, 1\]|: expected a finite number), got"):
        FluxWeights(*sigmas)


#: The arrays LdgOperators derives from its three inputs.
DERIVED = ("Kx", "Ky", "M", "Qx", "lam_x", "Qy", "lam_y")


def _ops(nx=4, k=1, flux=(1.0, 0.0)) -> LdgOperators:
    return LdgOperators(SpatialMesh(nx, nx), BasisSpec(k), FluxWeights(*flux))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LdgOperators)])
def test_operator_fields_cannot_be_assigned(name):
    # A set field would leave the derived arrays out of step with the
    # inputs: ops.M = 1.0 would change the condition number silently.
    ops = _ops()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ops, name, 1.0)
    if name in DERIVED:  # derived, so never given
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(ops, **{name: getattr(ops, name)})
        with pytest.raises(TypeError):
            LdgOperators(ops.mesh, ops.basis, ops.fw, **{name: getattr(ops, name)})


@pytest.mark.parametrize(
    "change",
    [{"mesh": SpatialMesh(8, 8)}, {"basis": BasisSpec(2)}, {"fw": FluxWeights(0.7, 0.2)}],
    ids=["mesh", "basis", "fw"],
)
def test_replace_derives_the_operators_of_a_fresh_build(change):
    # replace with a new input derives every array again: the same bits and
    # the same condition number as a fresh build.
    ops = _ops()
    new = dataclasses.replace(ops, **change)
    fresh = LdgOperators(**{"mesh": ops.mesh, "basis": ops.basis, "fw": ops.fw, **change})
    assert new == fresh and new != ops
    for name in DERIVED:
        assert np.array_equal(getattr(new, name), getattr(fresh, name)), name
    A = L1Kernel(0.5, GradedTimeMesh(10, 2.0, 0.1))
    assert condition_number(new, A) == condition_number(fresh, A)


@pytest.mark.parametrize(
    "other", [{"nx": 5}, {"k": 2}, {"flux": (0.7, 0.3)}], ids=["mesh", "degree", "flux"]
)
def test_operators_are_a_value_of_their_inputs(other):
    # Equal inputs give equal operators with equal hashes, compared by the
    # inputs and never by the arrays; a different mesh, degree or flux gives
    # unequal ones.
    ops, same = _ops(), _ops()
    assert ops == same and hash(ops) == hash(same) and len({ops, same}) == 1
    assert ops != _ops(**other)


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


def test_block_symbol_reduces_the_periodic_blocks():
    # K1 acting on a Fourier vector e^{2 pi i c m / n} w over the cells c is
    # that vector with K1hat(m) w; every K1hat(m) is Hermitian, and their
    # eigenvalues together are those of K1.
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4, 7):
        for k in (0, 1, 2, 3):
            for sigma in (0.0, 0.3, 0.49, 1.0):
                ops = LdgOperators(SpatialMesh(n, 2), BasisSpec(k), FluxWeights(sigma, 0.0))
                K1, kk = ops.Kx, k + 1
                hat = block_symbol(K1, n)
                scale = np.max(np.abs(K1))
                assert hat.shape == (n, kk, kk)
                np.testing.assert_allclose(hat, hat.conj().transpose(0, 2, 1), rtol=0.0, atol=1e-12 * scale)
                w = rng.standard_normal(kk) + 1j * rng.standard_normal(kk)
                for m in range(n):
                    phase = np.exp(2j * math.pi * np.arange(n) * m / n)
                    np.testing.assert_allclose(
                        K1 @ np.kron(phase, w), np.kron(phase, hat[m] @ w), rtol=0.0, atol=1e-12 * scale
                    )
                lam = np.sort(np.linalg.eigvalsh(hat).ravel())
                np.testing.assert_allclose(lam, np.linalg.eigvalsh(K1), rtol=0.0, atol=1e-12 * scale)


def test_global_operator_symmetric_positive_semidefinite():
    # Non-square meshes catch a swapped Kronecker order; nx or ny in {1, 2}
    # puts the periodic neighbors of a cell on one block.
    rng = np.random.default_rng(29)
    for nx, ny in ((6, 5), (1, 4), (3, 1), (2, 5), (4, 2), (1, 2), (2, 2)):
        mesh = SpatialMesh(nx, ny)
        for s1, s2 in FLUXES:
            for k in (0, 1, 2, 3):
                ops = LdgOperators(mesh, BasisSpec(k), FluxWeights(s1, s2))
                K = ops.K.toarray()
                K_ref = lifted_stiffness(nx, ny, k, s1, s2, mesh.hx, mesh.hy)
                np.testing.assert_allclose(K, K_ref, rtol=0.0, atol=1e-12 * np.max(np.abs(K_ref)))
                assert np.max(np.abs(K - K.T)) <= 1e-11 * np.max(np.abs(K))
                eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
                assert eigs.min() >= -1e-9 * eigs.max()
                x = rng.standard_normal(ndof(ops))
                atol = 1e-12 * np.max(np.abs(K_ref)) * np.max(np.abs(x))
                Kx = ops.apply_K(x)
                np.testing.assert_allclose(Kx, K_ref @ x, rtol=0.0, atol=atol)
                np.testing.assert_allclose(Kx, ops.K @ x, rtol=0.0, atol=atol)


def test_constants_are_steady_states():
    mesh = SpatialMesh(5, 4)
    for s1, s2 in FLUXES:
        ops = LdgOperators(mesh, BasisSpec(2), FluxWeights(s1, s2))
        const = VolumeGrid.build(mesh, BasisSpec(2)).project(lambda x, y: 3.0 + 0.0 * x * y)
        assert np.max(np.abs(ops.K @ const.coeffs.ravel())) <= 1e-11


def test_energy_nullity_of_bilinear_form():
    # B(u, u; p, p) = 0 when p is the discrete gradient of u: the interface
    # and volume contributions cancel exactly under periodic boundaries.
    mesh = SpatialMesh(4, 3)
    basis = BasisSpec(2)
    rng = np.random.default_rng(17)
    for s1, s2 in FLUXES:
        fw = FluxWeights(s1, s2)
        ops = LdgOperators(mesh, basis, fw)
        Du = np.kron(dense_directional_operator(4, 2, s1), (2.0 / mesh.hx) * np.eye(3 * 3))
        Lu = np.kron((2.0 / mesh.hy) * np.eye(4 * 3), dense_directional_operator(3, 2, s2))
        for _ in range(5):
            u = DgField(rng.standard_normal((4, 3, 3, 3)), basis, mesh)
            u = DgField(u.coeffs * (1.0 / l2_norm(u)), basis, mesh)
            px = DgField((Du @ u.coeffs.ravel()).reshape(u.coeffs.shape), basis, mesh)
            py = DgField((Lu @ u.coeffs.ravel()).reshape(u.coeffs.shape), basis, mesh)
            val = bilinear_form_B(u, u, (px, py), (px, py), fw)
            assert abs(val) <= 1e-11


def test_system_solve_matches_dense_reference():
    mesh = SpatialMesh(4, 4)
    ops = LdgOperators(mesh, BasisSpec(1), FluxWeights(1.0, 0.0))
    rng = np.random.default_rng(23)
    b = rng.standard_normal(ndof(ops))
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
    ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(k), fw)
    rng = np.random.default_rng(23)
    b = rng.standard_normal(ndof(ops))
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
    ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(k), FluxWeights(sigma1, sigma2))
    a0 = 10.0**log_a0
    b = np.random.default_rng(seed).standard_normal(ndof(ops))
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
    ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(3), FluxWeights(*flux))
    S = system_matrix(ops, 1e-2)
    for seed in range(10):
        b = np.random.default_rng(seed).standard_normal(ndof(ops))
        x = ops.solve_system(1e-2, b)
        assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
        x_ref = _splu_reference(ops, 1e-2, b)
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref)))


def test_solve_residual_guard_rejects_wrong_spectrum():
    mesh = SpatialMesh(5, 3)
    ops = LdgOperators(mesh, BasisSpec(1), FluxWeights(0.6, 0.3))
    b = np.random.default_rng(5).standard_normal(ndof(ops))
    ops.solve_system(7.3, b)
    object.__setattr__(ops, "lam_x", 2.0 * ops.lam_x)  # a frozen field, planted wrong
    with pytest.raises(NumericError, match="residual"):
        ops.solve_system(7.3, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_nonfinite_rhs(bad):
    # A NaN norm compares False against the residual bound, so without an
    # explicit check a NaN right-hand side came back as a NaN solution.
    ops = LdgOperators(SpatialMesh(3, 3), BasisSpec(1), FluxWeights(1.0, 0.0))
    b = np.random.default_rng(6).standard_normal(ndof(ops))
    b[4] = bad
    with pytest.raises(NumericError, match="right-hand side is not finite"):
        ops.solve_system(7.3, b)


def test_solve_rejects_nonfinite_solution():
    ops = LdgOperators(SpatialMesh(3, 3), BasisSpec(1), FluxWeights(1.0, 0.0))
    b = np.random.default_rng(7).standard_normal(ndof(ops))
    a0 = 7.3
    # Frozen fields, planted to give zero denominators.
    object.__setattr__(ops, "lam_x", np.full_like(ops.lam_x, -a0 * ops.M))
    object.__setattr__(ops, "lam_y", np.zeros_like(ops.lam_y))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="solution is not finite"):
            ops.solve_system(a0, b)


@pytest.mark.parametrize("nx,ny,k", [(3, 3, 0), (4, 2, 1), (2, 5, 2), (3, 4, 3)])
def test_moment_vector_matches_einsum(nx, ny, k):
    grid = VolumeGrid.build(SpatialMesh(nx, ny), BasisSpec(k))
    quad = grid.quad
    q = len(quad.nodes)
    values = np.random.default_rng(8).standard_normal((nx, q, ny, q))
    WV = quad.weights[:, None] * legendre_values(k, quad.nodes)
    ref = np.einsum("iqjp,qr,ps->irjs", values, WV, WV)
    got = grid.moments(values)
    assert got.shape == (nx, k + 1, ny, k + 1)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def _constant_kappa_problem(k0: float, c_kappa: float) -> ProblemSpec:
    return ProblemSpec(
        alpha=0.5,
        kappa=lambda x, y: np.full(np.broadcast(x, y).shape, k0),
        c_kappa=c_kappa,
        u0=lambda x, y: np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y),
        f=None,
        exact=None,
    )


def test_solve_rejects_kappa_above_its_bound():
    mesh = SpatialMesh(3, 3)
    tm = GradedTimeMesh(3, 1.0, 0.5)
    for k0 in (1.5, -1.5, math.nan):
        prob = _constant_kappa_problem(k0, 1.0)
        with pytest.raises(InvalidArgumentError, match="exceeds c_kappa"):
            solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0), lambda n, u: None)
    # Rounding in the kappa callable stays within the relative slack.
    prob = _constant_kappa_problem(1.0 + 1e-14, 1.0)
    solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0), lambda n, u: None)


def test_solve_rejects_tempering_exponent_overflow():
    # e^{800} overflows float64; the guard stops the run before any level is
    # tempered instead of letting inf reach the memory sum.
    mesh = SpatialMesh(3, 3)
    for c_kappa, T in ((800.0, 1.0), (2.0, 101.0)):
        assert c_kappa * T > MAX_TEMPERING_EXPONENT
        prob = _constant_kappa_problem(c_kappa, c_kappa)
        tm = GradedTimeMesh(3, 1.0, T)
        with pytest.raises(InvalidArgumentError, match="c_kappa \\* T"):
            solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0), lambda n, u: None)


def test_shipped_and_random_problems_pass_tempering_guard():
    # Every solving preset's problem on every time mesh its run builds, and
    # the kappa families the acceptance stability test draws (constant k0
    # with c_kappa = |k0|; a cos(2 pi x) + b with c_kappa = |a| + |b|),
    # including draws that sit on the bound. The condition-number preset
    # has no problem.
    def guard(prob, tm, kappa_at_quad):
        History(L1Kernel(prob.alpha, tm), kappa_at_quad, prob.c_kappa)

    mesh = SpatialMesh(6, 6)
    solving = 0
    for path in sorted(presets_dir().glob("*.yaml")):
        cfg = load_config(path.stem)
        if cfg.kind == "condition-number":
            continue
        solving += 1
        grid = VolumeGrid.build(mesh, BasisSpec(cfg.degree))
        if cfg.problem == "example1":
            prob = example1(cfg.alpha)
        else:
            prob = example2(cfg.alpha, delta=cfg.delta)
        for _, M, gamma in _time_meshes(cfg):
            guard(prob, GradedTimeMesh(M, gamma, cfg.T), grid.at(prob.kappa))
    assert solving == 11
    tm = GradedTimeMesh(8, 4.0, 1.0)
    for k in (0, 1, 2):
        grid = VolumeGrid.build(mesh, BasisSpec(k))
        for prob in (example1(0.5), example2(0.5)):
            guard(prob, tm, grid.at(prob.kappa))
        for k0 in (-2.0, -0.7, 0.0, 2.0):
            prob = _constant_kappa_problem(k0, abs(k0))
            guard(prob, tm, grid.at(prob.kappa))
        for a, b in ((1.5, 0.5), (-1.5, -0.5), (0.3, -0.2)):
            kq = grid.at(lambda x, y: a * np.cos(2 * math.pi * x) + b + 0.0 * y)
            guard(_constant_kappa_problem(0.0, abs(a) + abs(b)), tm, kq)


def test_discrete_substantial_derivative_exact_on_tempered_linears():
    # For u = e^{-kappa(x) t} * v(t) with v linear, the pointwise identity
    # A_0 u^n + history = e^{-kappa t_n} * (exact power-law derivative of v)
    # holds because the tempering factors are applied exactly and the
    # memory quadrature is exact on linear data.
    mesh = SpatialMesh(4, 4)
    basis = BasisSpec(1)
    alpha = 0.6
    tm = GradedTimeMesh(6, 2.0, 0.8)
    A = L1Kernel(alpha, tm)
    kq = VolumeGrid.build(mesh, basis).at(lambda x, y: np.cos(2 * math.pi * x) + 0.0 * y)

    for v, dv_exact in (
        (lambda t: np.ones_like(t), lambda t: 0.0),
        (lambda t: t, lambda t: t ** (1.0 - alpha) / math.gamma(2.0 - alpha)),
    ):
        hist_quad = [np.exp(-kq * t) * v(t) for t in tm.t]
        for n, hist in march(History(A, kq, 1.0), hist_quad):
            if n not in (1, 3, 6):
                continue
            got = l1_row(A, n)[0] * hist_quad[n] + hist
            expected = np.exp(-kq * tm.t[n]) * dv_exact(tm.t[n])
            scale = l1_row(A, n)[0] * np.max(np.abs(hist_quad[n]))
            assert np.max(np.abs(got - expected)) <= 1e-8 * scale


def test_stability_bound_homogeneous_runs():
    # Constant tempering kappa: the trajectory norm never exceeds
    # e^(|kappa| t_n) times the initial norm (the transformed problem is
    # dissipative and the tempering enters as an exact exponential factor).
    rng = np.random.default_rng(31)
    mesh = SpatialMesh(5, 5)
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
        )
        tm = GradedTimeMesh(6, gamma, T)
        fields = solve_fields(prob, mesh, tm, basis, FluxWeights(1.0, 0.0))
        norm0 = l2_norm(fields[0])
        for n in range(1, 7):
            bound = math.exp(abs(kappa0) * tm.t[n]) * norm0
            assert l2_norm(fields[n]) <= bound * (1.0 + 1e-10)


def test_step_rejects_short_history():
    mesh = SpatialMesh(3, 3)
    basis = BasisSpec(0)
    prob = example1(0.5)
    tm = GradedTimeMesh(4, 2.0, 0.1)
    A = L1Kernel(prob.alpha, tm)
    ops = LdgOperators(mesh, basis, FluxWeights(0.0, 1.0))
    grid = VolumeGrid.build(mesh, basis)
    history_grid = VolumeGrid.build(mesh, basis, gauss_rule(basis.history_quad_points))
    history = History(A, history_grid.at(prob.kappa), prob.c_kappa)
    history.push(0, grid.project(prob.u0).eval_volume_quad(history_grid.quad))
    with pytest.raises(InvalidArgumentError):
        step(ops, 2, prob, grid, history_grid, history)


def test_step_returns_the_solution_as_its_field(monkeypatch):
    # A field's coefficients are the solver's vector: step hands
    # solve_system its moments flattened and returns the solution reshaped,
    # with no copy between two layouts.
    mesh = SpatialMesh(3, 4)
    basis = BasisSpec(1)
    prob = example2(0.4)
    A = L1Kernel(prob.alpha, GradedTimeMesh(3, 2.0, 0.1))
    ops = LdgOperators(mesh, basis, FluxWeights(1.0, 0.0))
    grid = VolumeGrid.build(mesh, basis)
    history_grid = VolumeGrid.build(mesh, basis, gauss_rule(basis.history_quad_points))
    history = History(A, history_grid.at(prob.kappa), prob.c_kappa)
    history.push(0, grid.project(prob.u0).eval_volume_quad(history_grid.quad))
    solutions = []
    real_solve = LdgOperators.solve_system

    def recording_solve(self, a0, b):
        solutions.append(real_solve(self, a0, b))
        return solutions[-1]

    monkeypatch.setattr(LdgOperators, "solve_system", recording_solve)
    u = step(ops, 1, prob, grid, history_grid, history)
    [x] = solutions
    assert u.coeffs.shape == (3, 2, 4, 2) and u.coeffs.flags.c_contiguous
    assert np.shares_memory(u.coeffs, x)


def _random_history(M: int, seed: int):
    """An empty History of M steps on a 3 x 2 Q1 mesh, with its kernel and
    kappa, M + 1 random levels at the points, and the levels' tempered values
    stacked as the unpanelled oracles.memory_sum reads them."""
    prob = example2(0.4)
    mesh = SpatialMesh(3, 2)
    basis = BasisSpec(1)
    grid = VolumeGrid.build(mesh, basis)
    quad = grid.quad
    A = L1Kernel(prob.alpha, GradedTimeMesh(M, 3.0, 0.1))
    kappa = grid.at(prob.kappa)
    history = History(A, kappa, prob.c_kappa)
    rng = np.random.default_rng(seed)
    levels = []
    tempered = np.empty((M + 1,) + kappa.shape)
    for n in range(M + 1):
        values = DgField(rng.standard_normal((3, 2, 2, 2)), basis, mesh).eval_volume_quad(quad)
        levels.append(values)
        tempered[n] = np.exp(kappa * A.tm.t[n]) * values
    return history, A, kappa, levels, tempered


@pytest.mark.parametrize("M", [1, 31, 32, 33, 65, 100])
def test_history_sum_in_step_order_is_the_panel_form_bitwise(M):
    # History.sum in step order against the panel form written out: one
    # block of memory weights per panel, at every multiple of HISTORY_PANEL
    # (panel 0 included); one GEMM of its far columns with the levels stored
    # before the panel; per step the contraction of its row of the near
    # columns with the levels since, plus the panel row, times the tempering
    # factor, and A_0^n off the block's diagonal. Same numpy calls in the
    # same order, same bits: the shipped presets' outputs rest on this order.
    history, A, kappa, levels, tempered = _random_history(M, 41)
    for n, got in march(history, levels):
        start = n - n % HISTORY_PANEL
        if n in (1, start):
            rows = min(HISTORY_PANEL, M + 1 - start)
            block = _memory_weights(A, range(start, start + rows))
            if start:
                panel = block[:, :start] @ tempered[:start].reshape(start, -1)
            near = block[:, start:]
        total = np.tensordot(near[n - start, : n - start], tempered[start:n], axes=1)
        if start:
            total += panel[n - start].reshape(total.shape)
        ref = np.exp(-kappa * A.tm.t[n]) * total
        assert np.array_equal(got, ref), n
        assert history.a0(n) == near[n - start, n - start] == A.a0(n), n


def test_history_sum_outside_step_order_raises():
    # sum(n) is defined between push(n - 1) and push(n) only: the panel rows
    # live in the rows later levels overwrite, so the sum of an earlier or a
    # later step cannot be formed. A step whose sum was skipped, even at a
    # panel start, leaves the later sums right.
    M = 100
    history, A, kappa, levels, tempered = _random_history(M, 43)
    for n in range(70):
        history.push(n, levels[n])
    for n in (40, 96, 5, 64, 69, 71, 100, 32, 1, 0, 101):
        with pytest.raises(InvalidArgumentError, match=r"between push\(n - 1\) and push\(n\)"):
            history.sum(n)
    ref = memory_sum(A, kappa, tempered, 70)
    got = history.sum(70)
    assert np.max(np.abs(got - ref)) <= PANEL_DIFF_RTOL * np.max(np.abs(ref))
    history.push(70, levels[70])
    with pytest.raises(InvalidArgumentError, match="71 levels stored"):
        history.sum(70)  # after push(70)


def test_history_push_takes_levels_in_order():
    history, A, kappa, levels, tempered = _random_history(3, 47)
    for n, level in enumerate(levels):
        history.push(n, level)
    values = tempered[0]
    with pytest.raises(InvalidArgumentError, match="in order"):
        history.push(4, values)  # the buffer holds u^0..u^3
    fresh = History(A, kappa, example2(0.4).c_kappa)
    with pytest.raises(InvalidArgumentError, match="in order"):
        fresh.push(1, values)
    for wrong in (values[0], 1.0):  # both would broadcast into the buffer row
        with pytest.raises(InvalidArgumentError, match="has shape"):
            fresh.push(0, wrong)
    fresh.push(0, values)
    with pytest.raises(InvalidArgumentError, match=r"need w\^0..w\^1, 1 levels stored"):
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
    mesh = SpatialMesh(3, 2)
    basis = BasisSpec(k)
    tm = GradedTimeMesh(M, gamma, 0.1)
    fw = FluxWeights(1.0, 0.0)
    got = solve_fields(prob, mesh, tm, basis, fw)
    ref = solve_stepwise(prob, mesh, tm, basis, fw, basis.history_quad_points)
    assert len(got) == len(ref) == M + 1
    for n, (u, v) in enumerate(zip(got, ref)):
        scale = np.max(np.abs(v.coeffs))
        assert np.max(np.abs(u.coeffs - v.coeffs)) <= PANEL_DIFF_RTOL * scale, n


#: Agreement demanded per step between solve, whose history is held on the
#: (k+1)-point rule, and the stepwise scheme with the history on the source's
#: k+3 points, for example2 (kappa = cos 2 pi x) on the 3 x 2 mesh, relative
#: to the field's max norm, by degree. Measured at M = 33, gamma 1 and 6:
#: 5.5e-4, 3.4e-5 and 6.4e-6 at the last step. The gap is the quadrature
#: error of the memory term; it falls like h^(2k+2) under refinement (to
#: 1.5e-5, 1.5e-7 and 1.7e-9 on 12 x 8).
RULE_DIFF_RTOL = {0: 8e-4, 1: 5e-5, 2: 1e-5}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("example", [example1, example2])
@pytest.mark.parametrize("gamma", [1.0, 6.0])
def test_history_rule_matches_the_source_rule(k, example, gamma):
    # The (k+1)-point rule is exact through degree 2k+1 per axis: with a
    # constant kappa (example1) the memory term is a polynomial of degree 2k
    # and the two rules agree to rounding. With a variable kappa (example2)
    # they differ by a quadrature error, bounded per step.
    prob = example(0.4)
    mesh = SpatialMesh(3, 2)
    basis = BasisSpec(k)
    tm = GradedTimeMesh(33, gamma, 0.1)
    fw = FluxWeights(1.0, 0.0)
    got = solve_fields(prob, mesh, tm, basis, fw)
    ref = solve_stepwise(prob, mesh, tm, basis, fw, basis.default_quad_points)
    rtol = PANEL_DIFF_RTOL if example is example1 else RULE_DIFF_RTOL[k]
    for n, (u, v) in enumerate(zip(got, ref)):
        scale = np.max(np.abs(v.coeffs))
        assert np.max(np.abs(u.coeffs - v.coeffs)) <= rtol * scale, n


def test_solve_reads_fewer_than_a_panel_of_levels_per_step(monkeypatch):
    # A count, not a timing: every weight a run reads is formed in one block
    # per panel of HISTORY_PANEL steps, and no step evaluates one. A block
    # is HISTORY_PANEL steps by the levels before the panel, which one GEMM
    # reads, and the panel's own, of which each step reads fewer than
    # HISTORY_PANEL itself. A return to an O(n) read or a weight evaluation
    # per step fails here.
    import fracldg.fractional as fractional

    blocks = []

    def counting_weights(A, steps):
        C = _memory_weights(A, steps)
        blocks.append(C.shape)
        return C

    def a0_not_called(self, n):
        raise AssertionError(f"L1Kernel.a0({n}) evaluated inside a step")

    monkeypatch.setattr(fractional, "_memory_weights", counting_weights)
    monkeypatch.setattr(fractional.L1Kernel, "a0", a0_not_called)
    M = 100
    prob = example2(0.5)
    tm = GradedTimeMesh(M, 2.0, 0.1)
    solve(prob, SpatialMesh(3, 3), tm, BasisSpec(1), FluxWeights(1.0, 0.0), lambda n, u: None)
    assert blocks == [(32, 32), (32, 64), (32, 96), (5, 101)]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("example", [example1, example2])
def test_a_step_touches_only_the_history_grid(monkeypatch, k, example):
    # A count, not a timing: the (k+3)-point grid evaluates and takes
    # moments on its (k+3)^2 points only to project u0, once per run; the
    # separable source reads one axis at a time. Each step takes the moments
    # of its memory sum on the history grid, where kappa is evaluated once.
    calls = []
    real_at, real_moments = VolumeGrid.at, VolumeGrid.moments

    def at(self, g):
        calls.append(("at", self.quad.npoints))
        return real_at(self, g)

    def moments(self, values):
        calls.append(("moments", self.quad.npoints))
        return real_moments(self, values)

    monkeypatch.setattr(VolumeGrid, "at", at)
    monkeypatch.setattr(VolumeGrid, "moments", moments)
    M = 40
    basis = BasisSpec(k)
    tm = GradedTimeMesh(M, 2.0, 0.1)
    solve(example(0.5), SpatialMesh(3, 2), tm, basis, FluxWeights(1.0, 0.0), lambda n, u: None)
    source_points, history_points = basis.default_quad_points, basis.history_quad_points
    assert [c for c in calls if c[1] == source_points] == [("at", source_points), ("moments", source_points)]
    assert [c for c in calls if c[1] == history_points] == (
        [("at", history_points)] + [("moments", history_points)] * M
    )


def test_derivative_matrix_is_cached_read_only():
    D = _derivative_matrix(2)
    assert _derivative_matrix(2) is D and not D.flags.writeable
    with pytest.raises(ValueError):
        D[0, 0] = 1.0


#: Peak traced allocation allowed for solve() on a 1 x 1 Q0 mesh at M = 2000.
#: A stored L1 coefficient table alone would take M (M + 1) / 2 * 8 B = 16 MB;
#: without one the run peaks near 0.6 MB (tempered levels, one memory-weight
#: block evaluated in place).
SOLVE_PEAK_BYTES_M2000 = 8 * 2**20


def test_solve_memory_holds_no_l1_table():
    # A count of bytes, not a timing: the memory weights are evaluated per
    # panel, so the peak grows like M, not like M^2.
    import tracemalloc

    prob = example2(0.5)
    tm = GradedTimeMesh(2000, 2.0, 0.1)
    mesh = SpatialMesh(1, 1)
    tracemalloc.start()
    try:
        solve(prob, mesh, tm, BasisSpec(0), FluxWeights(1.0, 0.0), lambda n, u: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SOLVE_PEAK_BYTES_M2000, peak


#: Memory reported by the patched probe in the footprint tests: far below
#: what the refused run would hold, far above what the check itself takes.
FOOTPRINT_PROBE_BYTES = 4 * 2**20


def test_footprint_counts_levels_weight_blocks_and_1d_blocks():
    # 16 x 16 Q1: the history rule has 2 points per axis, so a level and
    # kappa hold N_h = 1024 values, as many as the N_dof coefficients; the
    # source's rule has 4, N_q = 4096. The 1D blocks are 32 x 32, the two
    # grids hold (16 + 16 + 2) (2 + 4) points and Vandermonde entries, and
    # the arrays in flight are 3 N_q + 4 N_dof values. A panel at start s
    # covers rows = min(HISTORY_PANEL, M + 1 - s) steps with a
    # rows x (s + rows) memory-weight block, booked twice, and keeps its
    # rows x rows near square, at most HISTORY_PANEL^2. At M = 200 the
    # largest block is the full panel at s = 160, 32 x 192 (the last, at
    # s = 192, is 9 x 201).
    mesh = SpatialMesh(16, 16)
    fixed = 1024 + 2 * (32**2 + 32**2) + (16 + 16 + 2) * (2 + 4) + 3 * 4096 + 4 * 1024
    near = HISTORY_PANEL**2
    assert footprint_bytes(mesh, 200, BasisSpec(1)) == 8 * (
        201 * 1024 + 2 * HISTORY_PANEL * 192 + near + fixed
    )
    # At M = 95 the last panel, at s = 64, is full and the largest, 32 x 96.
    assert footprint_bytes(mesh, 95, BasisSpec(1)) == 8 * (
        96 * 1024 + 2 * HISTORY_PANEL * 96 + near + fixed
    )
    # M < HISTORY_PANEL forms panel 0 alone, an (M + 1) x (M + 1) block.
    assert footprint_bytes(mesh, HISTORY_PANEL - 1, BasisSpec(1)) == 8 * (
        HISTORY_PANEL * 1024 + 3 * HISTORY_PANEL**2 + fixed
    )
    assert footprint_bytes(mesh, 9, BasisSpec(1)) == 8 * (10 * 1024 + 3 * 10**2 + fixed)


def _traced_solve_peak(nx: int, k: int, M: int):
    """Traced peak bytes of a streamed solve of example2 on an nx x nx Q^k
    mesh with M steps, with the run's mesh, time mesh and basis."""
    import tracemalloc

    mesh = SpatialMesh(nx, nx)
    tm = GradedTimeMesh(M, 2.0, 0.1)
    basis = BasisSpec(k)
    tracemalloc.start()
    try:
        solve(example2(0.5), mesh, tm, basis, FluxWeights(1.0, 0.0), lambda n, u: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, mesh, tm, basis


#: Traced bytes a solve may hold beyond footprint_bytes, which counts the
#: arrays in flight but not the temporaries the problem's source builds beyond
#: its result, nor numpy's iterator buffers (np.getbufsize() elements of 8 B
#: each) that a broadcasting ufunc takes. Every run below peaks under its
#: footprint itself: 1 x 1 Q0 at M = 2000 by 428 829 B, 16 x 16 Q2 at M = 100
#: by 19 824 B, 8 x 8 Q1 at M = 800 by 196 800 B and 32 x 32 Q1 at M = 20 by
#: 58 304 B. The margin, one iterator buffer of 8 B values (64 KiB), is a
#: fixed room for such temporaries, not a share of the run's size.
PEAK_MARGIN_BYTES = 8 * np.getbufsize()


def test_solve_peak_is_within_its_footprint():
    # A count of bytes, not a timing: footprint_bytes, which solve checks
    # against the physical memory, counts every O(M) array solve holds, so
    # the traced peak exceeds it only by the source's temporaries. The 1 x 1
    # Q0 run is almost all weight block, the 16 x 16 Q2 run almost all
    # levels, and the 32 x 32 Q1 run, with few steps, about half a step's
    # arrays.
    for nx, k, M in ((1, 0, 2000), (16, 2, 100), (8, 1, 800), (32, 1, 20)):
        peak, mesh, tm, basis = _traced_solve_peak(nx, k, M)
        assert peak <= footprint_bytes(mesh, tm.M, basis) + PEAK_MARGIN_BYTES, (nx, k, M, peak)


#: Traced bytes a 16 x 16 Q2 solve at M = 100 may hold beyond its tempered
#: levels, in units of one level on the history rule, 8 nx ny (k+1)^2:
#: measured 19.5 (a weight block, the near weights, kappa and a step's
#: arrays, most of them at the source's (k+3)^2 points), 20.5 below this
#: bound. Levels held on the source's rule measure 210.7 (5.75 MB); a 32-row
#: panel buffer next to the levels would add 32.
LEVELS_SLACK = 40


def test_solve_holds_its_levels_and_little_more():
    # A count of bytes, not a timing: the memory sum is exact, so the M + 1
    # tempered levels are the floor of what a run holds; the panels live in
    # the rows of the levels not yet written, and the weights are evaluated
    # in place.
    peak, mesh, tm, basis = _traced_solve_peak(16, 2, 100)
    level = 8 * mesh.nx * mesh.ny * basis.history_quad_points**2
    assert peak < (tm.M + 1 + LEVELS_SLACK) * level, peak / level - (tm.M + 1)


def test_physical_memory_probe_reports_bytes():
    limit = physical_memory_bytes()
    assert limit is None or (isinstance(limit, int) and limit > 0)


def test_solve_refuses_a_run_larger_than_physical_memory(monkeypatch):
    # A count of bytes, not a real allocation: the probe reports 4 MiB and the
    # run would hold ~7.1 MB. solve must raise before it assembles anything,
    # so the traced peak stays far below the 6.6 MB of the tempered levels.
    import tracemalloc

    import fracldg.errors
    import fracldg.ldg as ldg

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the footprint check")

    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: FOOTPRINT_PROBE_BYTES)
    monkeypatch.setattr(ldg, "LdgOperators", no_assembly)
    prob = example2(0.5)
    mesh = SpatialMesh(16, 16)
    tm = GradedTimeMesh(800, 2.0, 0.1)
    basis = BasisSpec(1)
    need = footprint_bytes(mesh, tm.M, basis)
    assert need > FOOTPRINT_PROBE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match=f"needs {need} bytes .* {FOOTPRINT_PROBE_BYTES} bytes"):
            solve(prob, mesh, tm, basis, FluxWeights(1.0, 0.0), lambda n, u: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_solve_runs_within_exactly_its_footprint(monkeypatch):
    # The probe admits exactly the footprint: solve runs and hands every level
    # to the observer. One byte less, and the same run is refused.
    import fracldg.errors

    prob = example2(0.5)
    mesh = SpatialMesh(4, 4)
    tm = GradedTimeMesh(40, 2.0, 0.1)
    basis = BasisSpec(1)
    fw = FluxWeights(1.0, 0.0)
    limit = footprint_bytes(mesh, tm.M, basis)
    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: limit)
    seen = []
    solve(prob, mesh, tm, basis, fw, lambda n, u: seen.append(n))
    assert seen == list(range(41))
    monkeypatch.setattr(fracldg.errors, "physical_memory_bytes", lambda: limit - 1)
    with pytest.raises(NumericError, match="for its history and operators"):
        solve(prob, mesh, tm, basis, fw, lambda n, u: None)


#: Traced bytes a streamed solve may hold beyond footprint_bytes, as a share
#: of the (M + 1) N_dof 8 B that keeping every field would add: the fields in
#: flight and the step grid take the rest (measured: none, the run peaks
#: 0.46 MB under its footprint).
STREAM_OVERHEAD_FRACTION = 0.25


def test_streamed_solve_keeps_no_field():
    # A count of bytes, not a timing. 8 x 8 Q1 at M = 2000: the fields take
    # 2001 * 256 * 8 B = 4.1 MB next to the 16.4 MB of tempered levels. An
    # observer that keeps nothing leaves the History as the only O(M) store;
    # one that collects every level must not fit the same bound.
    import tracemalloc

    prob = example2(0.5)
    M = 2000
    tm = GradedTimeMesh(M, 2.0, 0.1)
    mesh = SpatialMesh(8, 8)
    basis = BasisSpec(1)
    fw = FluxWeights(1.0, 0.0)
    peaks, kept = {}, []
    modes = (("streamed", lambda n, u: None), ("collected", lambda n, u: kept.append(u)))
    for mode, observe in modes:
        tracemalloc.start()
        try:
            solve(prob, mesh, tm, basis, fw, observe)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    fields_bytes = (M + 1) * mesh.nx * mesh.ny * (basis.k + 1) ** 2 * 8
    bound = footprint_bytes(mesh, tm.M, basis) + STREAM_OVERHEAD_FRACTION * fields_bytes
    assert peaks["streamed"] <= bound < peaks["collected"], peaks


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
    ops = LdgOperators(SpatialMesh(nx, ny), BasisSpec(k), FluxWeights(0.49, 0.51))
    b = np.random.default_rng(0).standard_normal(ndof(ops))
    x_ref = np.linalg.solve(ops.K.toarray() + a0 * ops.M * np.eye(ndof(ops)), b)
    np.testing.assert_allclose(
        ops.solve_system(a0, b), x_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(x_ref))
    )


def test_solver_error_halves_with_mesh_refinement():
    # Settings where the time-discretization error is known to be far below
    # the spatial error, so doubling the mesh must halve the total error.
    prob = example1(0.7)
    tm = GradedTimeMesh(20, 2.0, 0.1)
    errs = []
    for n in (6, 12):
        mesh = SpatialMesh(n, n)
        fields = solve_fields(prob, mesh, tm, BasisSpec(0), FluxWeights(0.0, 1.0))
        grid = VolumeGrid.build(mesh, BasisSpec(0), gauss_rule(3))
        diff = fields[-1].eval_volume_quad(grid.quad) - grid.at(lambda x, y: prob.exact(tm.T, x, y))
        errs.append(grid.norm(diff))
    assert errs[1] < 0.7 * errs[0]
