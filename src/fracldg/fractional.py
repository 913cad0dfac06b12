"""Time-fractional machinery: L1 coefficients on graded meshes, the
substantial-derivative memory sum (History), and the Mittag-Leffler function.

The discrete substantial derivative of order alpha with weight kappa(x) is

    D_M u(t_n, x) = A_0^n u^n(x) - A_{n-1}^n e^{-kappa(x) t_n} u^0(x)
                    + sum_{i=1}^{n-1} (A_i^n - A_{i-1}^n)
                      e^{-kappa(x)(t_n - t_{n-i})} u^{n-i}(x),

with the L1 coefficients A defined on the (possibly graded) time mesh.
History.sum returns everything except the A_0^n u^n term; the time stepper
negates it onto the right-hand side. History stores the levels tempered,
w_j = e^{kappa t_j} u^j at the quadrature points, so the factors
e^{-kappa(t_n - t_j)} collapse to one e^{-kappa t_n} and the sum is a plain
weighted sum of the stored levels. Each level is tempered once, when it is
computed; a run costs M exponentials per quadrature point instead of M^2/2.

The sum stays exact and costs O(M^2 N_q) flops per run (N_q quadrature
points), but it is blocked in panels of HISTORY_PANEL steps: one
matrix-matrix product (BLAS-3) per panel forms the share of all levels
stored before it, so the stored levels are read once per panel instead of
once per step. History owns the levels, this schedule, the order of its
calls and the check that the tempering factors stay within the float64
range.

No table of L1 coefficients is kept: L1Kernel holds alpha and the time mesh,
and each panel evaluates every coefficient its steps read from their closed
form in one block of HISTORY_PANEL rows by at most M + 1 levels
(_memory_weights, the form's one evaluator), with ufuncs over the whole
block, in place in it and one scratch block of its size; no step evaluates
one. The flops stay O(M^2) per run; the coefficient memory drops from
M (M + 1) / 2 stored values to that transient block and the HISTORY_PANEL^2
near weights a panel keeps.

The Mittag-Leffler function E_alpha gives example1 its closed-form
solution. It takes the orders 0 < alpha < 1 that the rest of the package
admits, and the non-positive arguments a shipped run evaluates: negative
ones take a Laplace-inversion contour, and E_alpha(0) = 1. Positive
arguments are rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, NumericError, check_alpha
from .meshes import GradedTimeMesh

__all__ = ["L1Kernel", "mittag_leffler", "History"]

#: Steps per memory-sum panel. One panel GEMM covers this many steps, and a
#: step reads fewer than this many stored levels itself. On a 2-vCPU VM with
#: one BLAS thread, solve() of example2, Q1, nx 8, M 800, gamma 6 takes a
#: median 0.23 s at panels of 32 to 128, 0.245 s at 16 and 0.26 s at 256.
HISTORY_PANEL = 32

#: Largest admissible c_kappa * T. The history is stored tempered,
#: e^{kappa t_j} u^j, and untempered by e^{-kappa t_n}; both factors lie in
#: [e^-200, e^200] ~ [1e-87, 1e87], which leaves more than 200 decades to
#: float64 overflow (1.8e308) and underflow (2.2e-308) either side.
MAX_TEMPERING_EXPONENT = 200.0

#: Relative slack allowed when checking max|kappa| at the quadrature points
#: against the certified bound c_kappa (rounding in the kappa callable).
KAPPA_BOUND_RTOL = 1e-12


@dataclass(frozen=True)
class L1Kernel:
    """L1 coefficients of fractional order alpha in (0, 1) on a time mesh,
    evaluated on demand by _memory_weights; no table is stored.

    Step n weighs the interval (t_j, t_{j+1}) of level j < n with
    a_j^n = A_{n-1-j}^n. The chain A_0^n >= A_1^n >= ... >= A_{n-1}^n > 0
    holds on any admissible mesh and is what the stability results lean on.
    A value: kernels of equal alpha and time mesh compare equal and hash
    alike.
    """

    alpha: float
    tm: GradedTimeMesh = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))

    def a0(self, n: int) -> float:
        """A_0^n, the newest interval's weight and the step-n mass factor: the
        diagonal of step n's one-row block, O(n), the bits History.a0 reads."""
        if not 1 <= n <= self.tm.M:
            raise InvalidArgumentError(f"step index {n} outside 1..{self.tm.M}")
        return float(_memory_weights(self, (n,))[0, n])


#: Iterator buffer, in values, of the ufuncs in _memory_weights. Their
#: operands are aligned float64 and need none, yet a ufunc that broadcasts or
#: writes into a strided view would take np.getbufsize() values (64 KiB) per
#: operand, more than a panel's block holds at small M.
_WEIGHT_BUFSIZE = 64


def _memory_weights(A: L1Kernel, steps) -> np.ndarray:
    """Memory weights of the consecutive steps n in steps, a row of
    steps[-1] + 1 levels each: c_0^n = -a_0^n and c_j^n = a_{j-1}^n - a_j^n
    for 0 < j < n, the weight of the tempered level w_j in History.sum, then
    c_n^n = a_{n-1}^n = A_0^n on the diagonal and zeros.

    The interval weight a_j^n = ((t_n - t_j)^{1-a} - (t_n - t_{j+1})^{1-a})
    / (Gamma(2-a) tau_j) of level j < n is evaluated as
    x^(1-a) expm1((1-a) log1p(-tau_j/x)) / -(Gamma(2-a) tau_j), x = t_n - t_j:
    on strongly graded meshes the two powers agree to many digits, and their
    naive difference breaks the monotone ordering of the tail weights. The
    whole block is evaluated at once, with ufuncs over it, in the result and
    one scratch block of its size; an entry takes the same operations in
    every block, so its bits do not depend on the block. The entries past a
    row's diagonal are evaluated too (a division by zero or a power of a
    negative number) and then set to zero.
    """
    first, rows = steps[0], len(steps)
    t, tau, alpha = A.tm.t[: first + rows], A.tm.tau[: first + rows - 1], A.alpha
    c = np.empty((rows, first + rows))
    c[:, 0] = 0.0
    a = c[:, 1:]  # a[i, j] = a_j^n of step n = first + i
    x = np.empty((rows, first + rows - 1))
    old_bufsize = np.setbufsize(_WEIGHT_BUFSIZE)
    try:
        np.subtract(t[first : first + rows, None], t[None, :-1], out=x)
        # log1p(-1) = -inf at the newest interval; past the diagonal
        # x <= 0 gives infinities and nans, zeroed below.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(tau, x, out=a)
            np.negative(a, out=a)  # -tau / x
            np.log1p(a, out=a)
            a *= 1.0 - alpha
            np.expm1(a, out=a)
            x **= 1.0 - alpha
            a *= x
            a /= np.multiply(tau, -math.gamma(2.0 - alpha), out=x[0])  # x is used up
        near = c[:, 1 + first :]  # a_j^n with j >= first, zero from j = n on
        np.copyto(near, 0.0, where=np.arange(rows)[:, None] <= np.arange(near.shape[1]))
        np.subtract(c[:, :-1], a, out=x)
        c[:, :-1] = x
    finally:
        np.setbufsize(old_bufsize)
    return c


#: Midpoint nodes of the Mittag-Leffler contour rule; with 32 the truncation
#: floor e^{-8 mu} ~ 1e-14 dominates, uniformly over alpha in (0, 1) and
#: z in [-1e3, 0).
ML_CONTOUR_NODES = 32


def _mittag_leffler_contour(alpha: float, z: float) -> float:
    """Laplace-inversion route: E_alpha(z) = (1/2*pi*i) int e^s s^(a-1)/(s^a - z) ds
    on the parabola s = mu (1 + i u)^2, valid for z < 0.

    Midpoint nodes u_k = (k + 1/2) h with mu = 0.125 * ML_CONTOUR_NODES and
    h = 6 / ML_CONTOUR_NODES; conjugate symmetry folds the sum onto u > 0.
    """
    if not z < 0.0:
        raise InvalidArgumentError(f"contour route requires z < 0, got {z}")
    mu = 0.125 * ML_CONTOUR_NODES
    h = 6.0 / ML_CONTOUR_NODES
    acc = 0.0 + 0.0j
    for m in range(ML_CONTOUR_NODES // 2):
        u = (m + 0.5) * h
        s = mu * (1.0 + 1j * u) ** 2
        ds = 2j * mu * (1.0 + 1j * u) * h
        acc += cmath.exp(s) * s ** (alpha - 1.0) / (s**alpha - z) * ds
    val = (2.0 * acc / (2j * math.pi)).real
    if not math.isfinite(val):
        raise NumericError(f"Mittag-Leffler contour produced {val} for alpha={alpha}, z={z}")
    return val


@lru_cache(maxsize=65536)
def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0 < alpha < 1 and real z <= 0, to ~1e-12 relative.

    Negative arguments take the contour route (fast and uniformly accurate),
    and E_alpha(0) = 1. No shipped run evaluates a positive argument
    (example1 takes lambda t^alpha with lambda < 0), so one is rejected with
    InvalidArgumentError.
    """
    check_alpha(alpha)
    if not (math.isfinite(z) and z <= 0.0):
        raise InvalidArgumentError(f"argument must be finite and <= 0, got {z}")
    if z == 0.0:
        return 1.0
    return _mittag_leffler_contour(alpha, z)


def _weight_block_entries(M: int) -> int:
    """Entries of the largest memory-weight block a History of M steps forms:
    the panel at start s covers rows = min(HISTORY_PANEL, M + 1 - s) steps
    over s + rows levels, so the last full panel or the last panel is the
    largest; panel 0, the only one when M < HISTORY_PANEL, is (M + 1)^2 then."""
    last = M - M % HISTORY_PANEL
    panels = ((last - HISTORY_PANEL, HISTORY_PANEL), (last, M + 1 - last))
    return max(rows * (s + rows) for s, rows in panels if s >= 0)


class History:
    """The memory of a run at the volume quadrature points, behind three
    calls, and the only evaluator of the memory sum and of its weights.

    push(n, values) takes u^n evaluated at the points, tempers it to
    w_n = e^{kappa t_n} u^n and stores it as row n of an (M+1, nx, q, ny, q)
    buffer, the point layout of basis.VolumeGrid. Levels are pushed in
    order, u^0 first.

    sum(n) returns, shaped like kappa_at_quad, the known part of the discrete
    substantial derivative at step n,

        -A_{n-1}^n e^{-kappa t_n} u^0 +
        sum_{i=1}^{n-1} (A_i^n - A_{i-1}^n) e^{-kappa (t_n - t_{n-i})} u^{n-i},

    i.e. everything in D_M u^n but the A_0^n u^n term; the time stepper
    moves it to the right-hand side with a sign flip. Since
    e^{-kappa (t_n - t_j)} u^j = e^{-kappa t_n} w_j, the sum is
    e^{-kappa t_n} sum_j c_j^n w_j with the memory weights
    c_0^n = -A_{n-1}^n and c_j^n = A_{n-j}^n - A_{n-j-1}^n (j = 1..n-1).
    a0(n) returns A_0^n, the mass factor of the step-n system.

    One contract orders the calls: sum(n) and a0(n) are taken between
    push(n - 1) and push(n), when exactly the n levels w_0..w_{n-1} are
    stored, for 1 <= n <= M. That is the order in which the time stepper
    runs; any other n raises InvalidArgumentError.

    The sum stays exact, O(M^2 N_q) flops per run, but is blocked. The panel
    at start = 0 mod HISTORY_PANEL forms every weight its steps read in one
    block (_memory_weights): panel 0 when the History is built, each later
    one once the levels before it are stored. Then one GEMM of the block's
    far columns with those levels writes their share in the panel's sums
    into the buffer rows the panel's levels will fill, none written yet;
    panel 0 has no far column, and its GEMM writes zeros. The near columns,
    a square of at most HISTORY_PANEL, are kept: step n contracts its row
    of them with the levels stored since start, adds its panel row, row n,
    and reads A_0^n off the diagonal; push(n) then overwrites the row with
    w_n. Every panel and every level takes the same path: w_0 is tempered
    by e^{kappa t_0} = 1 like any other level. No step evaluates a weight,
    and the stored levels are read once per panel instead of once per step;
    a step's contraction with its own panel's levels is one row-vector
    product.

    Memory: nbytes(M, N_q), N_q the number of points of one level. solve
    builds it on the (k+1)-point Gauss rule per axis, where N_q equals the
    level's N_dof coefficients.
    """

    def __init__(self, A: L1Kernel, kappa_at_quad: np.ndarray, c_kappa: float):
        """Reject kappa fields the tempered history cannot represent, before
        anything is allocated: kappa must respect its certified bound c_kappa,
        and c_kappa * T must stay within MAX_TEMPERING_EXPONENT so e^{+-kappa t}
        stays finite on [0, T]. Then form panel 0."""
        kmax = float(np.max(np.abs(kappa_at_quad)))
        if not kmax <= c_kappa * (1.0 + KAPPA_BOUND_RTOL):  # also rejects nan
            raise InvalidArgumentError(
                f"max |kappa| = {kmax!r} at the quadrature points exceeds c_kappa = {c_kappa!r}"
            )
        if c_kappa * A.tm.T > MAX_TEMPERING_EXPONENT:
            raise InvalidArgumentError(
                f"c_kappa * T = {c_kappa * A.tm.T:g} exceeds {MAX_TEMPERING_EXPONENT:g}: "
                "the tempering factors e^(+-kappa t) would leave the float64 range"
            )
        self.A = A
        self.kappa = kappa_at_quad
        self._count = 0  # levels stored
        self._levels = np.empty((A.tm.M + 1,) + kappa_at_quad.shape)
        self._form_panel(0)

    @staticmethod
    def nbytes(M: int, n_q: int) -> int:
        """Bytes a History of M steps holds at n_q points per level: the
        M + 1 tempered levels, the near square a panel keeps and twice the
        largest block a panel forms: the block, and the scratch block of its
        size _memory_weights evaluates it with. The previous near square is
        dropped before the next block is formed."""
        near = min(HISTORY_PANEL, M + 1) ** 2
        return 8 * ((M + 1) * n_q + 2 * _weight_block_entries(M) + near)

    def _form_panel(self, start: int) -> None:
        """Form the block of the panel at start, keep its near columns and
        write the far columns' share into its steps' rows (zeros at panel 0,
        which has none)."""
        M = self.A.tm.M
        rows = min(HISTORY_PANEL, M + 1 - start)
        self._near = None  # the previous panel's, read by no later step
        C = _memory_weights(self.A, range(start, start + rows))
        levels = self._levels.reshape(M + 1, -1)
        np.matmul(C[:, :start], levels[:start], out=levels[start : start + rows])
        self._near = np.ascontiguousarray(C[:, start:])

    def push(self, n: int, values: np.ndarray) -> None:
        """Temper u^n, given at the quadrature points, and store it; n must be
        the number of levels stored. When step n + 1 starts a panel, form it."""
        M = self.A.tm.M
        if n != self._count or n > M:
            raise InvalidArgumentError(
                f"level {n} pushed after {self._count} levels; push u^0..u^{M} in order"
            )
        if np.shape(values) != self.kappa.shape:  # would broadcast into the row
            raise InvalidArgumentError(
                f"level {n} has shape {np.shape(values)}, kappa at the points {self.kappa.shape}"
            )
        row = self._levels[n]
        np.multiply(self.kappa, self.A.tm.t[n], out=row)
        np.exp(row, out=row)
        row *= values
        self._count += 1
        if self._count % HISTORY_PANEL == 0 and self._count <= M:
            self._form_panel(self._count)

    def _near_row(self, n: int) -> np.ndarray:
        """Step n's near weights, under the call contract of sum and a0."""
        M = self.A.tm.M
        if not (n == self._count and 1 <= n <= M):
            raise InvalidArgumentError(
                f"weights of step {n}: steps run 1..{M}, each between push(n - 1) and "
                f"push(n), and need w^0..w^{n - 1}, {self._count} levels stored"
            )
        return self._near[n % HISTORY_PANEL]

    def sum(self, n: int) -> np.ndarray:
        """Memory sum of step n at the points, shaped like kappa; taken
        between push(n - 1) and push(n)."""
        c = self._near_row(n)[: n % HISTORY_PANEL]
        start = n - n % HISTORY_PANEL
        levels = self._levels.reshape(self.A.tm.M + 1, -1)
        total = (c[None, :] @ levels[start:n]).reshape(self.kappa.shape)
        total += self._levels[n]  # the panel row of step n
        factor = np.negative(self.kappa)
        factor *= self.A.tm.t[n]
        np.exp(factor, out=factor)
        total *= factor
        return total

    def a0(self, n: int) -> float:
        """A_0^n, the mass factor of the step-n system; taken between
        push(n - 1) and push(n)."""
        return float(self._near_row(n)[n % HISTORY_PANEL])
