from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from fracldg.basis import BasisSpec, DgField, VolumeGrid
from fracldg.errors import InvalidArgumentError
from fracldg.fractional import (
    HISTORY_PANEL,
    History,
    L1Kernel,
    _memory_weights,
    _mittag_leffler_contour,
    mittag_leffler,
)
from fracldg.meshes import GradedTimeMesh, SpatialMesh

from oracles import (
    complementary_kernels_by_inversion,
    convolution_kernel,
    l1_row,
    l1_table,
    march,
    memory_sum,
    memory_weights_by_rows,
    mittag_leffler_series,
    substantial_history_loop,
)

# Frozen against a 40-digit arbitrary-precision evaluation of the closed
# forms; regression anchors, not derived from the implementation.
A12_UNIFORM_HALF = 0.93477990902043628
ML_03_NEG49 = 0.13954932767947031
ML_05_NEG2 = 0.25539567631050574
ML_07_NEG8 = 0.04606999238536238


def test_l1_first_coefficient_closed_form():
    # On any mesh A_0^n = tau_n^(-alpha) / Gamma(2 - alpha).
    tm = GradedTimeMesh(6, 2.0, 0.5)
    alpha = 0.4
    A = L1Kernel(alpha, tm)
    for n in range(1, 7):
        expected = tm.tau[n - 1] ** (-alpha) / math.gamma(2.0 - alpha)
        assert l1_row(A, n)[0] == pytest.approx(expected, rel=1e-13)


def test_l1_frozen_value_uniform_mesh():
    tm = GradedTimeMesh(4, 1.0, 1.0)  # tau = 1/4
    A = L1Kernel(0.5, tm)
    assert l1_row(A, 2)[1] == pytest.approx(A12_UNIFORM_HALF, rel=1e-13)


def test_l1_reproduces_power_derivative_on_linear_data():
    # The piecewise-linear quadrature is exact on u(t) = t: the discrete sum
    # equals t_n^(1-alpha) / Gamma(2-alpha) on any admissible mesh.
    for alpha, gamma in ((0.3, 1.0), (0.5, 2.0), (0.7, 3.5)):
        tm = GradedTimeMesh(9, gamma, 0.7)
        A = L1Kernel(alpha, tm)
        for n in (1, 4, 9):
            An = l1_row(A, n)
            i = np.arange(1, n + 1)
            increments = tm.t[n - i + 1] - tm.t[n - i]
            got = float(np.sum(An[i - 1] * increments))
            expected = tm.t[n] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            assert got == pytest.approx(expected, rel=1e-12)


def test_l1_monotone_positive_chain():
    rng = np.random.default_rng(21)
    for _ in range(25):
        M = int(rng.integers(1, 30))
        gamma = float(rng.uniform(1.0, 5.0))
        alpha = float(rng.uniform(0.05, 0.95))
        tm = GradedTimeMesh(M, gamma, float(rng.uniform(0.05, 2.0)))
        A = L1Kernel(alpha, tm)
        for n in range(1, M + 1):
            chain = l1_row(A, n)
            assert chain[-1] > 0.0
            assert (np.diff(chain) <= 1e-14 * chain[0]).all()


def test_l1_validation():
    tm = GradedTimeMesh(3, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        L1Kernel(0.0, tm)
    with pytest.raises(InvalidArgumentError):
        L1Kernel(1.0, tm)


def test_a0_rejects_step_index_outside_the_mesh():
    # A_0^n exists for the steps 1..M of the kernel's mesh only.
    A = L1Kernel(0.5, GradedTimeMesh(5, 1.0, 0.1))
    with pytest.raises(InvalidArgumentError, match=r"^step index 0 outside 1\.\.5$"):
        A.a0(0)
    with pytest.raises(InvalidArgumentError, match=r"^step index 6 outside 1\.\.5$"):
        A.a0(6)


@pytest.mark.parametrize("alpha,gamma", [(0.6, 2.0), (0.5, 3.0)], ids=["alpha", "gamma"])
def test_kernel_is_a_value_of_alpha_and_its_mesh(alpha, gamma):
    # The kernel compares and hashes by alpha and its time mesh, which
    # compares by (M, T, gamma): equal inputs give equal kernels with equal
    # hashes, and a different alpha or gamma an unequal one.
    A, same = (L1Kernel(0.5, GradedTimeMesh(5, 2.0, 0.1)) for _ in range(2))
    assert A == same and hash(A) == hash(same) and len({A, same}) == 1
    assert A != L1Kernel(alpha, GradedTimeMesh(5, gamma, 0.1))


def _table_memory_weights(table, n: int) -> np.ndarray:
    """Memory-weight row of step n read off the stored table: c_0 = -A_{n-1}^n,
    c_j = A_{n-j}^n - A_{n-j-1}^n."""
    lags = table[n][::-1]
    c = np.empty(n)
    c[0] = -lags[0]
    c[1:] = lags[:-1] - lags[1:]
    return c


def _check_weights_match_table_bitwise(M: int, gamma: float, alpha: float, T: float) -> None:
    # The weights are evaluated on demand, block by block, by the same closed
    # form and operation order as the stored table, so every value a run
    # reads must equal the table entry exactly. History.sum reads them back
    # exactly: with kappa = 0 and the unit vectors w_j = e_j as levels, the
    # entry j of a memory sum is its weight of level j, whether the panel
    # GEMM (j < n - n % HISTORY_PANEL) or the step itself (the rest) formed it.
    tm = GradedTimeMesh(M, gamma, T)
    A = L1Kernel(alpha, tm)
    table = l1_table(tm, alpha)
    probe = np.eye(M + 1)
    for n, full in march(History(A, np.zeros(M + 1), 0.0), probe):
        assert A.a0(n) == table[n][0], n
        assert np.array_equal(full[:n], _table_memory_weights(table, n)) and not full[n:].any(), n


@pytest.mark.parametrize("M", [1, 31, 32, 33])
@pytest.mark.parametrize("gamma,alpha,T", [(6.0, 0.3, 0.1), (1.0, 0.5, 1.0), (2.5, 0.9, 2.0)])
def test_weights_match_table_bitwise_around_a_panel(M, gamma, alpha, T):
    _check_weights_match_table_bitwise(M, gamma, alpha, T)


@settings(max_examples=20, deadline=None)
@given(
    M=st.integers(1, 200),
    gamma=st.floats(1.0, 6.0),
    alpha=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    T=st.floats(0.05, 2.0),
)
def test_weights_match_table_bitwise(M, gamma, alpha, T):
    _check_weights_match_table_bitwise(M, gamma, alpha, T)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 6.0, 17.5])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_a0_is_one_number_in_kernel_history_and_table(gamma, alpha):
    # A_0^n has one evaluator, the memory-weight block: L1Kernel.a0 reads
    # the diagonal of step n's one-row block, History.a0 that of its panel's
    # block, and both carry the bits of the table's first entry, at every
    # step and around every panel edge.
    for M in (1, 2, 31, 32, 33, 100, 2000):
        tm = GradedTimeMesh(M, gamma, 1.0)
        A = L1Kernel(alpha, tm)
        table = l1_table(tm, alpha)
        history = History(A, np.zeros(1), 0.0)
        history.push(0, np.zeros(1))
        for n in range(1, M + 1):
            assert A.a0(n) == history.a0(n) == table[n][0], (M, n)
            history.push(n, np.zeros(1))


@pytest.mark.parametrize("M", [1, 31, 32, 33, 40, 100, 800, 2000])
@pytest.mark.parametrize("gamma,alpha,T", [(6.0, 0.3, 0.1), (1.0, 0.5, 1.0), (2.5, 0.9, 2.0)])
def test_block_weights_match_the_row_loop_bitwise(M, gamma, alpha, T):
    # Every panel block, and the one-row blocks the unpanelled memory sum
    # reads, equals the row-by-row form entry for entry, the zeros past the
    # diagonal included.
    A = L1Kernel(alpha, GradedTimeMesh(M, gamma, T))
    bufsize = np.getbufsize()
    for start in range(0, M + 1, HISTORY_PANEL):
        steps = range(start, min(start + HISTORY_PANEL, M + 1))
        assert np.array_equal(_memory_weights(A, steps), memory_weights_by_rows(A, steps)), start
    for n in sorted({1, M // 2 + 1, M}):
        assert np.array_equal(_memory_weights(A, (n,)), memory_weights_by_rows(A, (n,))), n
    assert np.getbufsize() == bufsize  # the weights' iterator buffer is restored


def test_panel_weights_fit_the_history_block_term():
    # A count of bytes, not a timing: a panel's memory weights are evaluated
    # in the block and one scratch block of its size, with the iterator
    # buffers of the ufuncs held small, within twice the largest block that
    # History.nbytes books. Measured peaks, of the bytes booked: the 32 x 256
    # panel at 224 of M = 255, 134 700 of 139 264 B; the 32 x 1984 panel at
    # 1952 of M = 2000, 1 019 532 of 1 024 000 B; the 32 x 8000 panel at 7968
    # of M = 8000, 4 099 724 of 4 104 192 B. Over every panel of M in {127,
    # 128, 129, 255, 256, 500, 799, 800, 1000, 2000, 4000, 8000}, the worst
    # ratio to the booking is M = 8000's (0.999); evaluated in strips of 256
    # columns with one strip of scratch it was M = 255's (0.967, 134 676 B).
    # Whole-block ufuncs with numpy's default iterator buffers peaked at
    # 1 224 728 B at M = 2000.
    assert_panel_weights_fit_the_history_block_term(2000, 1952)


@pytest.mark.parametrize("M,start", [(255, 224), (8000, 7968)])
def test_panel_weights_fit_the_history_block_term_at_other_M(M, start):
    # The last panels of two more of the meshes measured above: M = 255,
    # whose block is the smallest, and M = 8000, whose block is the widest.
    assert_panel_weights_fit_the_history_block_term(M, start)


def assert_panel_weights_fit_the_history_block_term(M, start):
    import tracemalloc

    A = L1Kernel(0.5, GradedTimeMesh(M, 2.0, 0.1))
    tracemalloc.start()
    try:
        C = _memory_weights(A, range(start, start + HISTORY_PANEL))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.shape == (HISTORY_PANEL, start + HISTORY_PANEL)
    assert peak <= History.nbytes(M, 0), (peak, History.nbytes(M, 0))


def test_convolution_kernel_matches_linear_system_inversion():
    tm = GradedTimeMesh(12, 2.0, 0.3)
    A = L1Kernel(0.4, tm)
    P = convolution_kernel(A)
    P_ref = complementary_kernels_by_inversion(A)
    for n in range(1, 13):
        np.testing.assert_allclose(P.P[n], P_ref[n], rtol=1e-11)


def test_convolution_kernel_identity():
    tm = GradedTimeMesh(40, 3.0, 0.1)
    A = L1Kernel(0.6, tm)
    P = convolution_kernel(A)
    for n in range(1, 41):
        for m in range(1, n + 1):
            total = sum(P.P[n][n - j] * l1_row(A, j)[j - m] for j in range(m, n + 1))
            assert abs(total - 1.0) <= 1e-11


def test_mittag_leffler_basic_values():
    assert mittag_leffler(0.5, 0.0) == 1.0


def test_mittag_leffler_frozen_regressions():
    assert mittag_leffler(0.3, -4.9) == pytest.approx(ML_03_NEG49, rel=1e-10)
    assert mittag_leffler(0.5, -2.0) == pytest.approx(ML_05_NEG2, rel=1e-10)
    assert mittag_leffler(0.7, -8.0) == pytest.approx(ML_07_NEG8, rel=1e-10)


def test_mittag_leffler_series_vs_contour_band():
    # The two routes overlap on moderate negative arguments; they are
    # algorithmically unrelated, so agreement there validates both.
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for z in (-3.0, -3.7, -4.4, -5.0):
            s = mittag_leffler_series(alpha, z)
            c = _mittag_leffler_contour(alpha, z)
            assert abs(s - c) <= 1e-8 * abs(s)


def test_mittag_leffler_half_order_erfcx_identity():
    # E_{1/2}(-x) = exp(x^2) * erfc(x) for x > 0.
    for x in np.linspace(0.25, 10.0, 14):
        got = mittag_leffler(0.5, -float(x))
        ref = float(erfcx(x))
        assert abs(got - ref) <= 1e-9 * abs(ref)


def test_mittag_leffler_monotone_decay():
    xs = np.linspace(0.05, 30.0, 40)
    vals = [mittag_leffler(0.7, -float(x)) for x in xs]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mittag_leffler_validation():
    with pytest.raises(InvalidArgumentError):
        mittag_leffler(1.2, -1.0)
    with pytest.raises(InvalidArgumentError):
        mittag_leffler(1.0, -1.0)  # orders 0 < alpha < 1 only, as everywhere else
    with pytest.raises(InvalidArgumentError):
        mittag_leffler(0.5, 6.0)
    with pytest.raises(InvalidArgumentError):
        mittag_leffler(0.5, 1.0)  # non-positive arguments only
    with pytest.raises(InvalidArgumentError):
        _mittag_leffler_contour(0.5, 1.0)


def test_substantial_history_validation():
    mesh = SpatialMesh(2, 2)
    basis = BasisSpec(0)
    grid = VolumeGrid.build(mesh, basis)
    quad = grid.quad
    tm = GradedTimeMesh(4, 1.0, 0.1)
    A = L1Kernel(0.5, tm)
    kq = grid.at(lambda x, y: 0.0 * x)
    u0 = grid.project(lambda x, y: np.ones_like(x * y))
    history = History(A, kq, 0.0)
    history.push(0, u0.eval_volume_quad(quad))  # only w^0
    with pytest.raises(InvalidArgumentError, match="need w"):
        history.sum(2)  # w^1 not stored
    with pytest.raises(InvalidArgumentError, match="steps run 1..4"):
        history.sum(0)  # no step before t_1
    for n in range(1, 5):
        history.push(n, u0.eval_volume_quad(quad))
    with pytest.raises(InvalidArgumentError, match="steps run 1..4"):
        history.sum(5)  # step 5 is past M = 4, though w^0..w^4 are stored


#: Agreement demanded between the tempered-buffer contraction and the
#: per-level loop, relative to sum_j |c_j| * max|u| (sum_j |c_j| = A_0^n by
#: the monotone chain). With at most 60 levels and c_kappa * T <= 3, the
#: rounding of either route is below 2 * 64 * eps * e^3 ~ 6e-13.
HISTORY_DIFF_RTOL = 1e-12


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    gamma=st.floats(1.0, 6.0),
    M=st.integers(1, 60),
    k=st.integers(0, 2),
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    T=st.floats(0.05, 1.0),
    kappa_coef=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_substantial_history_matches_loop_oracle(alpha, gamma, M, k, nx, ny, T, kappa_coef, seed):
    # History.sum over its tempered buffer w_j = e^{kappa t_j} u^j, pushed
    # exactly as solve() pushes it, against the per-level loop on the
    # untempered fields, at every step n of a random run.
    mesh = SpatialMesh(nx, ny)
    basis = BasisSpec(k)
    grid = VolumeGrid.build(mesh, basis)
    quad = grid.quad
    tm = GradedTimeMesh(M, gamma, T)
    A = L1Kernel(alpha, tm)
    a, b, c = kappa_coef
    kq = grid.at(lambda x, y: a * np.cos(2 * math.pi * x) + b * np.sin(2 * math.pi * y) + c)
    assert np.max(np.abs(kq)) <= abs(a) + abs(b) + abs(c) <= 3.0
    rng = np.random.default_rng(seed)
    # u^0..u^M: march pushes u^M after the last sum, which never reads it.
    fields = [DgField(rng.standard_normal((nx, k + 1, ny, k + 1)), basis, mesh)
              for _ in range(M + 1)]
    history = History(A, kq, abs(a) + abs(b) + abs(c))
    levels = [u.eval_volume_quad(quad) for u in fields]
    umax = max(float(np.max(np.abs(v))) for v in levels[:M])
    for n, got in march(history, levels):
        ref = substantial_history_loop(A, kq, fields[:n], n, quad=quad)
        scale = float(np.sum(np.abs(np.diff(l1_row(A, n)[::-1], prepend=0.0)))) * umax
        assert np.max(np.abs(got - ref)) <= HISTORY_DIFF_RTOL * scale


#: Agreement demanded between a panel row plus its remainder and the full
#: sum, relative to sum_j |c_j| * max|w| * max e^{-kappa t_n}. Both add the
#: same at most 100 terms in different orders: rounding ~100 * eps ~ 1e-14.
PANEL_SUM_RTOL = 1e-13


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    gamma=st.floats(1.0, 6.0),
    M=st.integers(1, 100),
    k=st.integers(0, 2),
    nx=st.integers(1, 3),
    ny=st.integers(1, 3),
    kappa0=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_panel_row_plus_remainder_matches_full_history(alpha, gamma, M, k, nx, ny, kappa0, seed):
    # History.sum in step order: the panel row plus the sum over the levels
    # written since the panel start equals the unpanelled full sum.
    mesh = SpatialMesh(nx, ny)
    tm = GradedTimeMesh(M, gamma, 0.5)
    A = L1Kernel(alpha, tm)
    grid = VolumeGrid.build(mesh, BasisSpec(k))
    kq = grid.at(lambda x, y: kappa0 * np.cos(2 * math.pi * x) + 0.0 * y)
    history = History(A, kq, abs(kappa0))
    rng = np.random.default_rng(seed)
    levels = [rng.standard_normal(kq.shape) for _ in range(M + 1)]
    tempered = np.stack([np.exp(kq * tm.t[n]) * values for n, values in enumerate(levels)])
    wmax = float(np.max(np.abs(tempered)))
    for n, got in march(history, levels):
        ref = memory_sum(A, kq, tempered, n)
        scale = l1_row(A, n)[0] * wmax * float(np.max(np.exp(-kq * tm.t[n])))
        assert np.max(np.abs(got - ref)) <= PANEL_SUM_RTOL * scale, n
