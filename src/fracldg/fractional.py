"""Time-fractional machinery: L1 coefficients on graded meshes, the
substantial-derivative history operator, and the Mittag-Leffler function.

The discrete substantial derivative of order alpha with weight kappa(x) is

    D_M u(t_n, x) = A_0^n u^n(x) - A_{n-1}^n e^{-kappa(x) t_n} u^0(x)
                    + sum_{i=1}^{n-1} (A_i^n - A_{i-1}^n)
                      e^{-kappa(x)(t_n - t_{n-i})} u^{n-i}(x),

with the L1 coefficients A defined on the (possibly graded) time mesh.
`substantial_history` returns everything except the A_0^n u^n term; the time
stepper negates it onto the right-hand side. It reads the history tempered,
w_j = e^{kappa t_j} u^j at the quadrature points, so the factors
e^{-kappa(t_n - t_j)} collapse to one e^{-kappa t_n} and the sum is a plain
weighted sum of the stored levels. Each level is tempered once, when it is
computed; a run costs M exponentials per quadrature point instead of M^2/2.

The sum stays exact and costs O(M^2 N_q) flops per run (N_q quadrature
points), but it is not read level by level. Every HISTORY_PANEL steps,
`history_panel` forms the contribution of all levels stored so far to the
next HISTORY_PANEL steps in one matrix-matrix product (BLAS-3); each step then
adds its panel row to a sum over the fewer than HISTORY_PANEL levels written
since. The stored levels are read once per panel instead of once per step,
which cuts the memory traffic of the sum by the panel factor. The buffer
of stored levels, the panel and this schedule live in fracldg.ldg.History.

No table of L1 coefficients is kept: L1Kernel holds alpha and the time mesh,
and each panel and each step evaluates the coefficients it reads from their
closed form, a HISTORY_PANEL x M block per panel and at most HISTORY_PANEL
values per step. The flops stay O(M^2) per run; the coefficient memory drops
from M (M + 1) / 2 stored values to that transient block.

The Mittag-Leffler function E_alpha gives example1 its closed-form
solution. Negative arguments, the only ones a shipped run evaluates, take
a Laplace-inversion contour; arguments in (0, 5] sum the defining series
in float64, where every term is positive and nothing cancels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .meshes import GradedTimeMesh

__all__ = [
    "L1Kernel",
    "l1_coefficients",
    "mittag_leffler",
    "mittag_leffler_contour",
    "substantial_history",
    "history_panel",
]

#: Steps per memory-sum panel. One panel GEMM covers this many steps, and a
#: step reads fewer than this many stored levels itself. On a 2-vCPU VM with
#: one BLAS thread, solve() of example2, Q1, nx 8, M 800, gamma 6 takes a
#: median 0.23 s at panels of 32 to 128, 0.245 s at 16 and 0.26 s at 256.
HISTORY_PANEL = 32


@dataclass(frozen=True)
class L1Kernel:
    """L1 coefficients of fractional order alpha on a time mesh, evaluated on
    demand from their closed form; no table is stored.

    Step n weighs the interval (t_j, t_{j+1}) of level j < n with
    a_j^n = A_{n-1-j}^n, and row(n) is (A_0^n, ..., A_{n-1}^n). The chain
    A_0^n >= A_1^n >= ... >= A_{n-1}^n > 0 holds on any admissible mesh and
    is what the stability results lean on.
    """

    alpha: float
    tm: GradedTimeMesh = field(repr=False)

    def row(self, n: int) -> np.ndarray:
        """(A_0^n, ..., A_{n-1}^n); empty for n = 0."""
        if not 0 <= n <= self.tm.M:
            raise InvalidArgumentError(f"step index {n} outside 0..{self.tm.M}")
        return _interval_weights(self, n, 0, n)[::-1]

    def a0(self, n: int) -> float:
        """A_0^n = tau_n^(1-a) / (Gamma(2-a) tau_n), the weight of the newest
        interval and the mass factor of the step-n system.

        Nothing cancels here, so the expm1/log1p form is skipped. Where tau
        is the difference of t, as build_graded_time_mesh makes it, that form
        reduces to this one exactly (log1p(-1) = -inf, expm1(-inf) = -1), and
        both give the same bits.
        """
        if not 1 <= n <= self.tm.M:
            raise InvalidArgumentError(f"step index {n} outside 1..{self.tm.M}")
        step_tau = self.tm.tau[n - 1 : n]
        a = step_tau ** (1.0 - self.alpha) / (math.gamma(2.0 - self.alpha) * step_tau)
        return float(a[0])


def _interval_weights(A: L1Kernel, n, lo: int, stop: int) -> np.ndarray:
    """a_j^n = A_{n-1-j}^n for the levels j = lo, ..., stop - 1 (stop <= n),
    the weight of the interval (t_j, t_{j+1}) at step n. n is a step index,
    or a column of them, shape (rows, 1), for a (rows, stop - lo) block.

    A_{n-1-j}^n = ((t_n - t_j)^{1-a} - (t_n - t_{j+1})^{1-a}) / (Gamma(2-a) tau_j)
    is evaluated as x^(1-a) * (-expm1((1-a) * log1p(-tau_j/x))) with
    x = t_n - t_j: on strongly graded meshes the two powers agree to many
    digits and the naive subtraction loses enough precision to break the
    monotone ordering of the tail weights.
    """
    t, tau, alpha = A.tm.t, A.tm.tau, A.alpha
    x = t[n] - t[lo:stop]
    step_tau = tau[lo:stop]
    with np.errstate(divide="ignore"):
        ratio = np.expm1((1.0 - alpha) * np.log1p(-step_tau / x))
    return -ratio * x ** (1.0 - alpha) / (math.gamma(2.0 - alpha) * step_tau)


def _memory_weights(A: L1Kernel, n, start: int, stop: int) -> np.ndarray:
    """Memory weights c_j^n of the levels j = start, ..., stop - 1, shaped as
    _interval_weights: c_0^n = -a_0^n and c_j^n = a_{j-1}^n - a_j^n, the
    weight of the tempered level w_j in substantial_history. Only the
    interval weights from max(start - 1, 0) on are evaluated.
    """
    if start > 0:
        a = _interval_weights(A, n, start - 1, stop)
        return a[..., :-1] - a[..., 1:]
    a = _interval_weights(A, n, 0, stop)
    c = np.empty_like(a)
    c[..., 0] = -a[..., 0]
    c[..., 1:] = a[..., :-1] - a[..., 1:]
    return c


def l1_coefficients(tm: GradedTimeMesh, alpha: float) -> L1Kernel:
    """L1 kernel of fractional order alpha in (0, 1) on the mesh tm.

    A_{i-1}^n = ((t_n - t_{n-i})^{1-a} - (t_n - t_{n-i+1})^{1-a})
                / (Gamma(2-a) * tau_{n-i+1}),   i = 1..n.

    Nothing is tabulated: history_panel and substantial_history evaluate the
    coefficients they read, so a run holds at most a HISTORY_PANEL x M block
    of them at a time instead of all M (M + 1) / 2.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
    return L1Kernel(alpha=float(alpha), tm=tm)


def mittag_leffler_contour(alpha: float, z: float, npoints: int = 32) -> float:
    """Laplace-inversion route: E_alpha(z) = (1/2*pi*i) int e^s s^(a-1)/(s^a - z) ds
    on the parabola s = mu (1 + i u)^2, valid for z < 0.

    Midpoint nodes u_k = (k + 1/2) h with mu = 0.125*npoints, h = 6/npoints;
    conjugate symmetry folds the sum onto u > 0. With 32 nodes the truncation
    floor e^{-8 mu} ~ 1e-14 dominates, uniformly over alpha in (0, 1) and
    z in [-1e3, 0).
    """
    if not z < 0.0:
        raise InvalidArgumentError(f"contour route requires z < 0, got {z}")
    mu = 0.125 * npoints
    h = 6.0 / npoints
    acc = 0.0 + 0.0j
    for m in range(npoints // 2):
        u = (m + 0.5) * h
        s = mu * (1.0 + 1j * u) ** 2
        ds = 2j * mu * (1.0 + 1j * u) * h
        acc += cmath.exp(s) * s ** (alpha - 1.0) / (s**alpha - z) * ds
    val = (2.0 * acc / (2j * math.pi)).real
    if not math.isfinite(val):
        raise NumericError(f"Mittag-Leffler contour produced {val} for alpha={alpha}, z={z}")
    return val


#: Term budget of the positive-argument series; a sum still growing after
#: this many terms raises NumericError.
ML_MAX_TERMS = 500_000


def _mittag_leffler_positive(alpha: float, z: float) -> float:
    """Defining series sum_l z^l / Gamma(alpha*l + 1) in float64, for 0 < z <= 5.

    Every term is positive, so nothing cancels; terms are formed as
    exp(l ln z - lgamma(alpha l + 1)). The log-terms are concave in l, so
    once terms fall their ratio r only decreases and the tail after a term
    t is below t r / (1 - r); the sum stops when that bound drops under
    1e-17 of the total.
    """
    lz = math.log(z)
    total, prev = 1.0, 1.0
    for l in range(1, ML_MAX_TERMS + 1):
        try:
            term = math.exp(l * lz - math.lgamma(alpha * l + 1.0))
        except OverflowError:
            term = math.inf
        total += term
        if math.isinf(total):
            raise NumericError(f"Mittag-Leffler E_{alpha}({z}) exceeds the float64 range")
        r = term / prev
        if r < 1.0 and term * r <= 1e-17 * total * (1.0 - r):
            return total
        prev = term
    raise NumericError(
        f"Mittag-Leffler series did not converge for alpha={alpha}, z={z} "
        f"after {ML_MAX_TERMS} terms"
    )


@lru_cache(maxsize=65536)
def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0 < alpha <= 1 and real z <= 5, to ~1e-12 relative.

    Routing: alpha = 1 is exp(z); negative arguments go to the contour route
    (fast and uniformly accurate); (0, 5] sums the defining series in
    float64, which has no cancellation there. Raises NumericError where
    E_alpha(z) exceeds the float64 range (small alpha near z = 5). Larger
    positive arguments are outside the supported range of this solver and
    are rejected.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1], got {alpha}")
    if not math.isfinite(z) or z > 5.0:
        raise InvalidArgumentError(f"argument must be finite and <= 5, got {z}")
    if alpha == 1.0:
        return math.exp(z)
    if z < 0.0:
        return mittag_leffler_contour(alpha, z)
    if z == 0.0:
        return 1.0
    return _mittag_leffler_positive(alpha, z)


def history_panel(
    A: L1Kernel, tempered_at_quad: np.ndarray, start: int, out: np.ndarray
) -> np.ndarray:
    """Contribution of the levels stored before `start` to the memory sums of
    the steps start, start + 1, ..., start + len(out) - 1, as one GEMM.

    out has shape (rows, N_q), N_q the number of quadrature points of one
    level; row b receives sum_{j < start} c^{(start+b)}_j w_j, flattened,
    where c^{(n)} is the coefficient row of substantial_history and w_j =
    tempered_at_quad[j]. It is the untempered panel row that
    substantial_history(..., start + b, out[b], start) completes.
    """
    rows = len(out)
    if start < 1 or start + rows - 1 > A.tm.M:
        raise InvalidArgumentError(
            f"a panel of {rows} steps from step {start} must lie within steps 1..{A.tm.M}"
        )
    if len(tempered_at_quad) < start:
        raise InvalidArgumentError(
            f"tempered history must hold w^0..w^{start - 1} ({start} rows), "
            f"got {len(tempered_at_quad)}"
        )
    C = _memory_weights(A, np.arange(start, start + rows)[:, None], 0, start)
    return np.matmul(C, tempered_at_quad[:start].reshape(start, -1), out=out)


def substantial_history(
    A: L1Kernel,
    kappa_at_quad: np.ndarray,
    tempered_at_quad: np.ndarray,
    n: int,
    panel_row: np.ndarray | None = None,
    start: int = 0,
) -> np.ndarray:
    """Known part of the discrete substantial derivative at step n, evaluated
    at every volume quadrature point.

    Returns, with shape matching kappa_at_quad (nx, ny, qx, qy),

        -A_{n-1}^n e^{-kappa t_n} u^0 +
        sum_{i=1}^{n-1} (A_i^n - A_{i-1}^n) e^{-kappa (t_n - t_{n-i})} u^{n-i},

    i.e. everything in D_M u except the A_0^n u^n term. The caller moves this
    to the right-hand side with a sign flip.

    tempered_at_quad[j] holds the tempered history w_j = e^{kappa t_j} u^j at
    the quadrature points for j = 0..n-1; rows from n on are not read. Since
    e^{-kappa (t_n - t_j)} u^j = e^{-kappa t_n} w_j, the sum is one
    contraction of the coefficient row c_n with the stacked rows, followed by
    a single tempering factor:

        e^{-kappa t_n} * sum_j c_j w_j,   c_0 = -A_{n-1}^n,
        c_j = A_{n-j}^n - A_{n-j-1}^n  (j = 1..n-1).

    Without panel_row this reads all n rows. With panel_row, the row of a
    history_panel formed at `start` for step n (start <= n < start +
    HISTORY_PANEL), the levels before `start` are already summed into it and
    only rows start..n-1 are read.
    """
    if not 1 <= n <= A.tm.M:
        raise InvalidArgumentError(f"step index {n} outside 1..{A.tm.M}")
    if len(tempered_at_quad) < n:
        raise InvalidArgumentError(
            f"tempered history must hold w^0..w^{n - 1} ({n} rows), got {len(tempered_at_quad)}"
        )
    if panel_row is None and start != 0:
        raise InvalidArgumentError(f"levels before {start} need a panel row")
    if panel_row is not None and not 0 <= n - start < HISTORY_PANEL:
        raise InvalidArgumentError(
            f"step {n} lies outside the panel of steps {start}..{start + HISTORY_PANEL - 1}"
        )
    c = _memory_weights(A, n, start, n)
    total = np.tensordot(c, tempered_at_quad[start:n], axes=1)
    if panel_row is not None:
        total += panel_row.reshape(total.shape)
    return np.exp(-kappa_at_quad * A.tm.t[n]) * total
