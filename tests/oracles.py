"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built by a different route than the library
code: dense loop-based assembly instead of Kronecker products, adaptive
panel quadrature instead of closed-form coefficient tables, and dense SVD
instead of power iteration. Slow and simple on purpose.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import legendre as npleg
from scipy.linalg import svdvals

from fracldg.analysis import _power_lambda_max
from fracldg.basis import eval_on_grid, gauss_rule, l2_project, quad_vandermonde
from fracldg.errors import InvalidArgumentError, NumericError
from fracldg.fractional import l1_coefficients, substantial_history
from fracldg.ldg import _check_tempering_range, assemble_operators


def orthonormal_legendre_value(r: int, x: float) -> float:
    """Lhat_r(x) = sqrt(r + 1/2) * P_r(x), one value at a time."""
    coef = np.zeros(r + 1)
    coef[r] = 1.0
    return math.sqrt(r + 0.5) * float(npleg.legval(x, coef))


def orthonormal_legendre_derivative(r: int, x: float) -> float:
    """Lhat_r'(x), one value at a time."""
    if r == 0:
        return 0.0
    coef = np.zeros(r + 1)
    coef[r] = 1.0
    return math.sqrt(r + 0.5) * float(npleg.legval(x, npleg.legder(coef)))


def dense_directional_operator(n: int, k: int, sigma: float) -> np.ndarray:
    """Dense 1D flux-difference operator built cell by cell from definitions.

    Unknown layout: index i * (k + 1) + a holds the coefficient of Lhat_a on
    cell i. Row (i, b) collects

        uhat_{i+1/2} * Lhat_b(+1) - uhat_{i-1/2} * Lhat_b(-1)
        - sum_a u_{i,a} * int Lhat_a Lhat_b' dx

    with uhat = sigma * u(-) + (1 - sigma) * u(+) and periodic neighbors.
    """
    kk = k + 1
    G = np.zeros((n * kk, n * kk))
    nodes, weights = npleg.leggauss(k + 2)
    for i in range(n):
        ip = (i + 1) % n
        im = (i - 1) % n
        for b in range(kk):
            row = i * kk + b
            lb_p = orthonormal_legendre_value(b, 1.0)
            lb_m = orthonormal_legendre_value(b, -1.0)
            for a in range(kk):
                la_p = orthonormal_legendre_value(a, 1.0)
                la_m = orthonormal_legendre_value(a, -1.0)
                # uhat at i+1/2: minus-trace from cell i, plus-trace from i+1.
                G[row, i * kk + a] += sigma * la_p * lb_p
                G[row, ip * kk + a] += (1.0 - sigma) * la_m * lb_p
                # uhat at i-1/2: minus-trace from cell i-1, plus-trace from i.
                G[row, im * kk + a] -= sigma * la_p * lb_m
                G[row, i * kk + a] -= (1.0 - sigma) * la_m * lb_m
                # Volume term: exact Gauss quadrature of Lhat_a * Lhat_b'.
                vol = sum(
                    w * orthonormal_legendre_value(a, x) * orthonormal_legendre_derivative(b, x)
                    for x, w in zip(nodes, weights)
                )
                G[row, i * kk + a] -= vol
    return G


def lifted_stiffness(nx: int, ny: int, k: int, sigma1: float, sigma2: float,
                     hx: float, hy: float) -> np.ndarray:
    """Dense global stiffness K = -(Hx Gx + Hy Gy) / m, m = hx * hy / 4.

    Each 1D operator is lifted to 2D, in (i, r, j, s) ordering, by a
    Kronecker product with the transverse cell mass h/2 times the identity;
    H is the directional operator at the complementary weight 1 - sigma.
    """
    eye_x = np.eye(nx * (k + 1))
    eye_y = np.eye(ny * (k + 1))
    Gx = np.kron(dense_directional_operator(nx, k, sigma1), (hy / 2.0) * eye_y)
    Hx = np.kron(dense_directional_operator(nx, k, 1.0 - sigma1), (hy / 2.0) * eye_y)
    Gy = np.kron((hx / 2.0) * eye_x, dense_directional_operator(ny, k, sigma2))
    Hy = np.kron((hx / 2.0) * eye_x, dense_directional_operator(ny, k, 1.0 - sigma2))
    return -(Hx @ Gx + Hy @ Gy) / (hx * hy / 4.0)


def caputo_derivative(g, alpha: float, t: float, panels_per_side: int = 45) -> float:
    """Caputo derivative (1/Gamma(1-alpha)) * int_0^t g'(s) (t-s)^(-alpha) ds.

    g'(s) comes from a 5-point central difference with step proportional to
    s, which keeps the relative differentiation error tiny even for
    g(s) = s^delta with delta < 1. The integral is split at t/2. The left
    half integrates in s with panels refined geometrically (ratio 1/2)
    toward s = 0, where g' may blow up; the right half substitutes
    u = t - s and integrates in u with panels refined toward u = 0, so the
    kernel u^(-alpha) is computed without the cancellation that evaluating
    t - s near s = t would suffer. The innermost sliver on each side, where
    panel widths approach the floating-point resolution, is added in closed
    form: over [0, tiny] the kernel (left side) respectively g' (right
    side) is constant to ~1e-14 relative.
    """

    def dg(s: float) -> float:
        h = 3e-3 * s
        return (-g(s + 2 * h) + 8 * g(s + h) - 8 * g(s - h) + g(s - 2 * h)) / (12 * h)

    nodes, weights = npleg.leggauss(12)
    mid = 0.5 * t
    lengths = np.array([0.5**p for p in range(panels_per_side, 0, -1)], dtype=float)
    lengths *= mid / lengths.sum()
    edges = np.concatenate(([0.0], np.cumsum(lengths)))
    edges[-1] = mid
    tiny = float(edges[1])

    def panel_quad(f) -> float:
        total = 0.0
        for lo, hi in zip(edges[1:-1], edges[2:]):
            half = 0.5 * (hi - lo)
            midp = 0.5 * (hi + lo)
            for x, w in zip(nodes, weights):
                total += w * half * f(midp + half * x)
        return total

    total = panel_quad(lambda s: dg(s) * (t - s) ** (-alpha))
    total += (g(tiny) - g(0.0)) * t ** (-alpha)
    total += panel_quad(lambda u: dg(t - u) * u ** (-alpha))
    total += dg(t - tiny) * tiny ** (1.0 - alpha) / (1.0 - alpha)
    return total / math.gamma(1.0 - alpha)


def laplacian_fd(u2d, x: float, y: float, h: float = 1e-3) -> float:
    """8th-order centered finite-difference Laplacian of u2d(x, y)."""
    c = np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                  8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560])
    offs = np.arange(-4, 5)
    uxx = sum(ci * u2d(x + oi * h, y) for ci, oi in zip(c, offs)) / h**2
    uyy = sum(ci * u2d(x, y + oi * h) for ci, oi in zip(c, offs)) / h**2
    return uxx + uyy


def dense_condition_2norm(S) -> float:
    """Exact 2-norm condition number through dense singular values."""
    sv = svdvals(np.asarray(S.todense() if hasattr(S, "todense") else S))
    return float(sv[0] / sv[-1])


def spd_condition_splu(S) -> float:
    """2-norm condition number of a symmetric positive definite matrix by
    power iteration on S and on its splu-factorized inverse.

    The package's original route, kept as the reference for
    fracldg.analysis.condition_number, which runs the same seeded power
    iteration but applies the inverse by fast diagonalization.
    """
    S = sp.csc_matrix(S)
    n = S.shape[0]
    try:
        factor = spla.splu(S)
    except RuntimeError as exc:
        raise NumericError(f"matrix factorization failed: {exc}") from exc
    diag_u = factor.U.diagonal()
    if np.any(diag_u == 0.0) or not np.all(np.isfinite(diag_u)):
        raise NumericError("matrix is singular to working precision")
    lam_max = _power_lambda_max(lambda v: S @ v, n)
    inv_lam_max = _power_lambda_max(factor.solve, n)
    if lam_max == 0.0 or inv_lam_max == 0.0:
        raise NumericError("power iteration collapsed to zero")
    return lam_max * inv_lam_max


def complementary_kernels_by_inversion(A) -> list[np.ndarray]:
    """Complementary kernels P^n computed by solving the defining linear
    system sum_{j=m}^{n} P_{n-j}^n A_{j-m}^j = 1 (m = 1..n) directly,
    instead of the package's recursion. Returns [empty, P^1, ..., P^M].
    """
    out = [np.empty(0)]
    for n in range(1, A.tm.M + 1):
        mat = np.zeros((n, n))
        for m in range(1, n + 1):
            for j in range(m, n + 1):
                mat[m - 1, n - j] = A.A[j][j - m]
        P = np.linalg.solve(mat, np.ones(n))
        out.append(P)
    return out


def substantial_history_loop(
    A,
    kappa_at_quad: np.ndarray,
    history,
    n: int,
    quad=None,
    history_at_quad: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Known part of the discrete substantial derivative at step n, evaluated
    at every volume quadrature point.

    Returns, with shape matching kappa_at_quad (nx, ny, qx, qy),

        -A_{n-1}^n e^{-kappa t_n} u^0 +
        sum_{i=1}^{n-1} (A_i^n - A_{i-1}^n) e^{-kappa (t_n - t_{n-i})} u^{n-i},

    i.e. everything in D_M u except the A_0^n u^n term. The caller moves this
    to the right-hand side with a sign flip.

    history holds u^0..u^{n-1}. history_at_quad optionally carries the same
    fields already evaluated at the quadrature points (the time stepper uses
    this to avoid re-evaluating the whole history every step); when absent,
    fields are evaluated here with `quad`.

    The package's original loop, one fresh untempered exponential per past
    level, kept as the exact reference for fracldg.fractional.substantial_history.
    """
    if len(history) != n:
        raise InvalidArgumentError(f"history must hold u^0..u^{n - 1} ({n} fields), got {len(history)}")
    if n < 1:
        raise InvalidArgumentError(f"step index must be >= 1, got {n}")
    if history_at_quad is None:
        if quad is None:
            raise InvalidArgumentError("either quad or history_at_quad is required")
        history_at_quad = [f.eval_volume_quad(quad) for f in history]
    t = A.tm.t
    An = A.A[n]
    out = -An[n - 1] * np.exp(-kappa_at_quad * t[n]) * history_at_quad[0]
    for i in range(1, n):
        out += (An[i] - An[i - 1]) * np.exp(-kappa_at_quad * (t[n] - t[n - i])) * history_at_quad[n - i]
    return out


def solve_stepwise(prob, mesh, tm, basis, fw) -> list:
    """Fields u^0..u^M of the fully discrete scheme, by the package's original
    time loop: every step sums the whole tempered history with the unpanelled
    substantial_history, evaluates f through eval_on_grid and rebuilds the
    weighted Vandermonde of the moments.

    Kept as the exact reference for fracldg.ldg.solve, whose panelled memory
    sum adds the same terms in another order.
    """
    ops = assemble_operators(mesh, basis, fw)
    quad = gauss_rule(basis.default_quad_points)
    A = l1_coefficients(tm, prob.alpha)
    kappa_at_quad = eval_on_grid(lambda x, y: prob.kappa(x, y), mesh, quad)
    _check_tempering_range(prob, tm, kappa_at_quad)
    u0 = l2_project(lambda x, y: prob.u0(x, y), mesh, basis, quad)
    fields = [u0]
    tempered = np.empty((tm.M + 1,) + kappa_at_quad.shape)
    tempered[0] = u0.eval_volume_quad(quad)  # e^{kappa t_0} = 1
    for n in range(1, tm.M + 1):
        hist = substantial_history(A, kappa_at_quad, tempered, n)
        rhs_values = -hist
        if prob.f is not None:
            t_n = A.tm.t[n]
            rhs_values = rhs_values + eval_on_grid(
                lambda x, y: prob.f(t_n, x, y), ops.mesh, quad
            )
        WV = quad.weights[:, None] * quad_vandermonde(ops.basis.k, quad.npoints)
        moments = ops.M * (WV.T @ (rhs_values @ WV))
        b = np.ascontiguousarray(moments.transpose(0, 2, 1, 3)).ravel()
        u_n = ops.unflatten(ops.solve_system(A.A[n][0], b))
        fields.append(u_n)
        tempered[n] = np.exp(kappa_at_quad * tm.t[n]) * u_n.eval_volume_quad(quad)
    return fields
