"""Reference implementations and proof devices used only by the tests.

Two kinds of code live here. The cross-check oracles are deliberately built
by a different route than the library code: dense loop-based assembly
instead of Kronecker products, adaptive panel quadrature instead of
closed-form L1 coefficients, dense SVD instead of per-mode Fourier
blocks, and an adaptive-precision Mittag-Leffler series instead of the
contour rule. Slow and simple on purpose. The exceptions are l1_table,
the stored L1 table the package once built: the same formula row by row,
against which the coefficients the package evaluates on demand must agree
bit for bit; and l1_row, which reads one step's row of those coefficients
off the package itself.
The error functionals are recomputed by their defining formulas from the
levels that a collecting observer keeps (solve_fields), against which the
streaming observers of fracldg.analysis must also agree bit for bit.

The proof devices are objects of the stability and convergence analysis
that no run needs: the weighted-trace projections P and Q, the bilinear
form B with its interface traces, one-sided edge traces and point values
of a field (field_eval), the sparse system matrix, and the complementary
convolution kernels P^n of the L1 coefficients. The tests check the
properties the analysis claims for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg
from scipy.linalg import svdvals

from fracldg.basis import (
    BasisSpec,
    DgField,
    QuadRule,
    VolumeGrid,
    edge_values,
    gauss_rule,
    legendre_derivatives,
    legendre_values,
    quad_vandermonde,
)
from fracldg.errors import InvalidArgumentError, NumericError
from fracldg.fractional import L1Kernel, _interval_weights, _memory_weights
from fracldg.ldg import FluxWeights, LdgOperators, assemble_operators, solve


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


def l1_row(A: L1Kernel, n: int) -> np.ndarray:
    """(A_0^n, ..., A_{n-1}^n) as the package evaluates them: its interval
    weights of step n, newest first; empty for n = 0."""
    return _interval_weights(A, n)[::-1]


def l1_table(tm, alpha: float) -> tuple[np.ndarray, ...]:
    """Full triangular L1 coefficient table for fractional order alpha in (0,1):
    entry n is the array (A_0^n, ..., A_{n-1}^n) for n = 1..M; entry 0 is empty.

    A_{i-1}^n = ((t_n - t_{n-i})^{1-a} - (t_n - t_{n-i+1})^{1-a})
                / (Gamma(2-a) * tau_{n-i+1}),   i = 1..n.

    The package's original table builder, one row per step, kept as the
    exact reference for the coefficients fracldg.fractional evaluates on
    demand.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
    t, tau = tm.t, tm.tau
    g = math.gamma(2.0 - alpha)
    tables: list[np.ndarray] = [np.empty(0)]
    for n in range(1, tm.M + 1):
        i = np.arange(1, n + 1)
        x = t[n] - t[n - i]
        step_tau = tau[n - i]
        with np.errstate(divide="ignore"):
            ratio = np.expm1((1.0 - alpha) * np.log1p(-step_tau / x))
        tables.append(-ratio * x ** (1.0 - alpha) / (g * step_tau))
    return tuple(tables)


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
                mat[m - 1, n - j] = l1_row(A, j)[j - m]
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
    level, kept as the exact reference for fracldg.fractional.History.sum.
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
    An = l1_row(A, n)
    out = -An[n - 1] * np.exp(-kappa_at_quad * t[n]) * history_at_quad[0]
    for i in range(1, n):
        out += (An[i] - An[i - 1]) * np.exp(-kappa_at_quad * (t[n] - t[n - i])) * history_at_quad[n - i]
    return out


def memory_sum(A, kappa_at_quad: np.ndarray, tempered_at_quad: np.ndarray, n: int) -> np.ndarray:
    """Memory sum of step n read from all n tempered levels at once,
    e^{-kappa t_n} sum_j c_j^n w_j with w_j = tempered_at_quad[j], j < n.

    The unpanelled form of fracldg.fractional.History.sum, which adds the
    same terms, panel by panel, in another order; the exact reference for it.
    Unlike History.sum it may be read at any step, in any order.
    """
    c = _memory_weights(A, (n,), n + 1)[0, :n]
    return np.exp(-kappa_at_quad * A.tm.t[n]) * np.tensordot(c, tempered_at_quad[:n], axes=1)


def march(history, levels):
    """Drive a fracldg.fractional.History in the order of the time stepper,
    the only order in which its sum is defined: push levels[0] = u^0, then
    for n = 1, ..., len(levels) - 1 yield (n, history.sum(n)) before
    pushing levels[n]. levels are the untempered values at the points."""
    history.push(0, levels[0])
    for n in range(1, len(levels)):
        yield n, history.sum(n)
        history.push(n, levels[n])


def solve_stepwise(prob, mesh, tm, basis, fw, history_points: int) -> list:
    """Fields u^0..u^M of the fully discrete scheme, by the package's original
    time loop: every step sums the whole tempered history with the unpanelled
    memory_sum, evaluates f through VolumeGrid.at and rebuilds the weighted
    Vandermonde of the moments of each rule. The history is held, and its
    moments taken, on the history_points-point Gauss rule per axis; the
    projection of u0 and the source take basis.default_quad_points.

    With history_points = basis.history_quad_points it is the exact
    reference for fracldg.ldg.solve, whose panelled memory sum adds the same
    terms in another order; with basis.default_quad_points it is the scheme
    with the history on the source's rule.
    """
    ops = assemble_operators(mesh, basis, fw)
    grid = VolumeGrid.build(mesh, basis)
    hquad = gauss_rule(history_points)
    hgrid = VolumeGrid.build(mesh, basis, hquad)
    A = L1Kernel(prob.alpha, tm)

    def moments(quad, values):
        WV = quad.weights[:, None] * quad_vandermonde(basis.k, quad.npoints)
        return WV.T @ (values @ WV)

    kappa_at_quad = hgrid.at(lambda x, y: prob.kappa(x, y))
    u0 = grid.project(lambda x, y: prob.u0(x, y))
    fields = [u0]
    tempered = np.empty((tm.M + 1,) + kappa_at_quad.shape)
    tempered[0] = u0.eval_volume_quad(hquad)  # e^{kappa t_0} = 1
    for n in range(1, tm.M + 1):
        rhs = moments(hquad, -memory_sum(A, kappa_at_quad, tempered, n))
        if prob.f is not None:
            t_n = A.tm.t[n]
            rhs = rhs + moments(grid.quad, grid.at(lambda x, y: prob.f(t_n, x, y)))
        b = np.ascontiguousarray((ops.M * rhs).transpose(0, 2, 1, 3)).ravel()
        u_n = ops.unflatten(ops.solve_system(l1_row(A, n)[0], b))
        fields.append(u_n)
        tempered[n] = np.exp(kappa_at_quad * tm.t[n]) * u_n.eval_volume_quad(hquad)
    return fields


def flatten(f: DgField) -> np.ndarray:
    """Coefficient tensor (i, j, r, s) -> solver vector in (i, r, j, s) order,
    the inverse of LdgOperators.unflatten."""
    return np.ascontiguousarray(f.coeffs.transpose(0, 2, 1, 3)).ravel()


def solve_fields(prob, mesh, tm, basis, fw) -> list:
    """Fields u^0..u^M of fracldg.ldg.solve, kept by a collecting observer."""
    fields = []
    solve(prob, mesh, tm, basis, fw, lambda n, u: fields.append(u))
    return fields


def final_time_error(fields, tm, mesh, basis, exact) -> float:
    """The convergence functional by its definition, T ||u(T) - u^M||, from
    the stored levels."""
    grid = VolumeGrid.build(mesh, basis)
    vals = exact(tm.t[tm.M], grid.x, grid.y)
    return tm.T * grid.norm(vals - fields[tm.M].eval_volume_quad(grid.quad))


def mittag_leffler_series(alpha: float, z: float) -> float:
    """Defining series sum_l z^l / Gamma(alpha*l + 1), in adaptive precision.

    For z < 0 the series cancels catastrophically (terms peak at exp of
    hundreds while the sum is O(1)), so the working precision is scaled to
    the largest term. alpha is promoted to an exact mpf before forming
    Gamma(alpha*l + 1): per-term float rounding of alpha*l would otherwise
    be amplified by the cancellation into O(1) absolute garbage.
    """
    if z == 0.0:
        return 1.0
    peak = _series_peak_log(alpha, abs(z))
    dps = 30 + int(peak / math.log(10.0))
    with mp.workdps(dps):
        zz = mp.mpf(z)
        aa = mp.mpf(alpha)
        acc = mp.mpf(1)
        tol = mp.mpf(10) ** (-(dps - 8))
        tiny_run = 0
        l = 1
        while True:
            term = mp.power(zz, l) / mp.gamma(aa * l + 1)
            acc += term
            tiny_run = tiny_run + 1 if abs(term) < tol else 0
            if tiny_run >= 3:
                break
            l += 1
            if l > 500000:
                raise NumericError(
                    f"Mittag-Leffler series did not converge for alpha={alpha}, z={z} "
                    f"after {l} terms at {dps} digits"
                )
        return float(acc)


def _series_peak_log(alpha: float, absz: float) -> float:
    """Natural log of the largest series term magnitude (precision budget)."""
    peak, val, l = 0.0, 0.0, 1
    lz = math.log(absz)
    while l < 200000:
        val = l * lz - math.lgamma(alpha * l + 1.0)
        peak = max(peak, val)
        if l > 10 and val < peak - 50.0:
            break
        l += 1
    return peak


# ---------------------------------------------------------------------------
# Proof devices: objects of the stability and convergence analysis.
# ---------------------------------------------------------------------------


def system_matrix(ops: LdgOperators, a0: float) -> sp.csr_matrix:
    """Sparse step matrix a0 * M * I + K, from the on-demand sparse ops.K."""
    return (a0 * ops.M) * sp.eye(ops.ndof, format="csr") + ops.K


@dataclass(frozen=True)
class ConvKernel:
    """Complementary discrete convolution kernels.

    P[n] is the array (P_0^n, ..., P_{n-1}^n); they invert the L1 table in
    the sense sum_{j=m}^{n} P_{n-j}^n A_{j-m}^j = 1 for all 1 <= m <= n.
    """

    P: tuple[np.ndarray, ...] = field(repr=False)


def convolution_kernel(A: L1Kernel) -> ConvKernel:
    """Complementary kernels by the recursive definition.

    P_0^n = 1/A_0^n;
    P_{n-j}^n = (1/A_0^j) * sum_{i=j+1}^{n} (A_{i-j-1}^i - A_{i-j}^i) P_{n-i}^n.

    For fixed n the lag n-i of every kernel on the right is smaller than the
    lag n-j being computed, so filling lags in increasing order closes the
    recursion.
    """
    M = A.tm.M
    tabs = [l1_row(A, n) for n in range(M + 1)]
    out: list[np.ndarray] = [np.empty(0)]
    for n in range(1, M + 1):
        P = np.empty(n)
        P[0] = 1.0 / tabs[n][0]
        for lag in range(1, n):
            j = n - lag
            i = np.arange(j + 1, n + 1)
            diff = np.array([tabs[ii][ii - j - 1] - tabs[ii][ii - j] for ii in i])
            P[lag] = np.dot(diff, P[n - i]) / tabs[j][0]
        out.append(P)
    return ConvKernel(P=tuple(out))


_EDGE_AXES = {"E": ("x", +1), "W": ("x", -1), "N": ("y", +1), "S": ("y", -1)}


def _locate(coord: np.ndarray, n: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices and reference coordinates for points along one axis of
    the periodic unit square cut into n cells.

    `side` picks the cell when a point sits exactly on an interface: '-' takes
    the cell to the left (trace from below), '+' the cell to the right.
    """
    if side not in ("-", "+"):
        raise InvalidArgumentError(f"side must be '-' or '+', got {side!r}")
    u = np.asarray(coord, dtype=float) * n
    u = np.mod(u, n)
    idx = np.floor(u).astype(int)
    idx = np.minimum(idx, n - 1)
    on_edge = u == idx
    if side == "-":
        idx = np.where(on_edge, (idx - 1) % n, idx)
        ref = np.where(on_edge, 1.0, 2.0 * (u - idx) - 1.0)
    else:
        ref = 2.0 * (u - idx) - 1.0
    return idx, ref


def field_eval(
    f: DgField,
    x: float | np.ndarray,
    y: float | np.ndarray,
    side_x: str = "-",
    side_y: str = "-",
) -> float | np.ndarray:
    """Point values of the piecewise polynomial, with periodic wrap.

    Points exactly on a cell interface are ambiguous; `side_x`/`side_y`
    select the one-sided limit per axis ('-' from below, '+' from above).
    Scalar inputs return a scalar.
    """
    mesh, k = f.mesh, f.basis.k
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    i, xi = _locate(xb.ravel(), mesh.nx, side_x)
    j, eta = _locate(yb.ravel(), mesh.ny, side_y)
    Vx = legendre_values(k, xi)
    Vy = legendre_values(k, eta)
    vals = np.einsum("nrs,nr,ns->n", f.coeffs[i, j], Vx, Vy)
    if np.isscalar(x) and np.isscalar(y):
        return float(vals[0])
    return vals.reshape(xb.shape)


def edge_trace(
    f: DgField,
    cell: tuple[int, int],
    edge: str,
    side: str,
    t1d: float | np.ndarray,
) -> float | np.ndarray:
    """One-sided trace of f on an edge of `cell` at tangential reference coordinate t1d.

    edge: 'E'/'W' are the x-normal interfaces at x_{i+1/2} / x_{i-1/2};
    'N'/'S' the y-normal ones. side '-' takes the limit from the cell on the
    negative side of the interface, '+' from the positive side, with periodic
    neighbor lookup across the domain boundary.
    """
    if edge not in _EDGE_AXES:
        raise InvalidArgumentError(f"edge must be one of E/W/N/S, got {edge!r}")
    if side not in ("-", "+"):
        raise InvalidArgumentError(f"side must be '-' or '+', got {side!r}")
    axis, orient = _EDGE_AXES[edge]
    i, j = cell
    k = f.basis.k
    e_minus, e_plus = edge_values(k)
    # Which cell owns the requested one-sided limit, and at which reference
    # abscissa the normal coordinate sits in that cell.
    if axis == "x":
        iface = i if orient < 0 else i + 1  # interface index i-1/2 or i+1/2
        if side == "-":
            ci, normal_vec = (iface - 1) % f.mesh.nx, e_plus
        else:
            ci, normal_vec = iface % f.mesh.nx, e_minus
        cj = j % f.mesh.ny
        Vt = legendre_values(k, np.atleast_1d(t1d))
        vals = np.einsum("rs,r,qs->q", f.coeffs[ci, cj], normal_vec, Vt)
    else:
        iface = j if orient < 0 else j + 1
        if side == "-":
            cj, normal_vec = (iface - 1) % f.mesh.ny, e_plus
        else:
            cj, normal_vec = iface % f.mesh.ny, e_minus
        ci = i % f.mesh.nx
        Vt = legendre_values(k, np.atleast_1d(t1d))
        vals = np.einsum("rs,qr,s->q", f.coeffs[ci, cj], Vt, normal_vec)
    if np.isscalar(t1d):
        return float(vals[0])
    return vals


def _x_interface_traces(f: DgField, t_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Traces at every x-interface i+1/2 (indexed by the left cell i), shape (nx, ny, q)."""
    e_minus, e_plus = edge_values(f.basis.k)
    Vt = legendre_values(f.basis.k, t_nodes)
    minus = np.einsum("ijrs,r,qs->ijq", f.coeffs, e_plus, Vt)
    plus = np.einsum("ijrs,r,qs->ijq", np.roll(f.coeffs, -1, axis=0), e_minus, Vt)
    return minus, plus


def _y_interface_traces(f: DgField, t_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Traces at every y-interface j+1/2 (indexed by the lower cell j), shape (nx, ny, q)."""
    e_minus, e_plus = edge_values(f.basis.k)
    Vt = legendre_values(f.basis.k, t_nodes)
    minus = np.einsum("ijrs,qr,s->ijq", f.coeffs, Vt, e_plus)
    plus = np.einsum("ijrs,qr,s->ijq", np.roll(f.coeffs, -1, axis=1), Vt, e_minus)
    return minus, plus


def bilinear_form_B(
    u: DgField,
    v: DgField,
    p: tuple[DgField, DgField],
    w: tuple[DgField, DgField],
    fw: FluxWeights,
) -> float:
    """B(u, v; p, w) = (u, div w) - <u-hat, w . n> + (p, grad v) - <p-hat . n, v>.

    Direct quadrature over cells and interfaces, independent of the operator
    assembly; used as a cross-check oracle (its vanishing at v = u, w = p
    under periodic boundaries is the energy identity of the scheme).
    """
    mesh, basis = u.mesh, u.basis
    quad = gauss_rule(basis.default_quad_points)
    V = legendre_values(basis.k, quad.nodes)
    Vd = legendre_derivatives(basis.k, quad.nodes)
    px, py = p
    wx, wy = w
    jac = mesh.hx * mesh.hy / 4.0
    w2 = quad.weights[:, None] * quad.weights[None, :]

    def vol(a: DgField, b_vals: np.ndarray) -> float:
        return jac * float(np.einsum("ijqp,ijqp,qp->", a.eval_volume_quad(quad), b_vals, w2))

    dwx = (2.0 / mesh.hx) * np.einsum("ijrs,qr,ps->ijqp", wx.coeffs, Vd, V)
    dwy = (2.0 / mesh.hy) * np.einsum("ijrs,qr,ps->ijqp", wy.coeffs, V, Vd)
    dvx = (2.0 / mesh.hx) * np.einsum("ijrs,qr,ps->ijqp", v.coeffs, Vd, V)
    dvy = (2.0 / mesh.hy) * np.einsum("ijrs,qr,ps->ijqp", v.coeffs, V, Vd)

    total = vol(u, dwx + dwy)
    total += jac * float(
        np.einsum(
            "ijqp,ijqp,qp->",
            px.eval_volume_quad(quad),
            dvx,
            w2,
        )
    ) + jac * float(np.einsum("ijqp,ijqp,qp->", py.eval_volume_quad(quad), dvy, w2))

    # Interface sums: summing <., .> over cell boundaries pairs each interior
    # interface twice with opposite normals, leaving flux * (trace- - trace+).
    tn = quad.nodes
    um, up = _x_interface_traces(u, tn)
    wxm, wxp = _x_interface_traces(wx, tn)
    vm, vp = _x_interface_traces(v, tn)
    pxm, pxp = _x_interface_traces(px, tn)
    uhat = fw.sigma1 * um + (1.0 - fw.sigma1) * up
    pxhat = (1.0 - fw.sigma1) * pxm + fw.sigma1 * pxp
    wq = quad.weights
    total -= (mesh.hy / 2.0) * float(np.einsum("ijq,ijq,q->", uhat, wxm - wxp, wq))
    total -= (mesh.hy / 2.0) * float(np.einsum("ijq,ijq,q->", pxhat, vm - vp, wq))

    um, up = _y_interface_traces(u, tn)
    wym, wyp = _y_interface_traces(wy, tn)
    vm, vp = _y_interface_traces(v, tn)
    pym, pyp = _y_interface_traces(py, tn)
    uhat = fw.sigma2 * um + (1.0 - fw.sigma2) * up
    pyhat = (1.0 - fw.sigma2) * pym + fw.sigma2 * pyp
    total -= (mesh.hx / 2.0) * float(np.einsum("ijq,ijq,q->", uhat, wym - wyp, wq))
    total -= (mesh.hx / 2.0) * float(np.einsum("ijq,ijq,q->", pyhat, vm - vp, wq))
    return total


SpaceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _edge_moment_quad(k: int) -> QuadRule:
    return gauss_rule(k + 4)


def _interface_solve(sigma: float, n: int, rhs: np.ndarray, e_plus_k: float, e_minus_k: float) -> np.ndarray:
    """Solve the periodic bidiagonal system sigma*e+ * x_i + (1-sigma)*e- * x_{i+1} = rhs_i.

    rhs has the interface axis first; remaining axes are solved batched.
    """
    col = np.zeros(n)
    col[0] = sigma * e_plus_k
    col[-1] = (1.0 - sigma) * e_minus_k
    try:
        return scipy.linalg.solve_circulant(col, rhs, singular="raise", baxis=0, outaxis=0)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError(
            f"weighted-trace projection is singular at weight {sigma}"
        ) from exc


def _edge_values_x(u: SpaceFn, mesh, quad: QuadRule, k: int) -> np.ndarray:
    """Moments of u along every x-interface: out[i, j, s] = (2/hy) int_{J_j} u(x_{i+1/2}, y) phi_s(y) dy."""
    V = legendre_values(k, quad.nodes)
    x_if = mesh.x_edges[1:]
    Y = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    vals = u(x_if[:, None, None], Y[None, :, :])
    return np.einsum("ijq,qs->ijs", vals, quad.weights[:, None] * V)


def _edge_values_y(u: SpaceFn, mesh, quad: QuadRule, k: int) -> np.ndarray:
    """Moments of u along every y-interface: out[i, j, r] = (2/hx) int_{I_i} u(x, y_{j+1/2}) phi_r(x) dx."""
    V = legendre_values(k, quad.nodes)
    y_if = mesh.y_edges[1:]
    X = mesh.x_centers()[:, None] + 0.5 * mesh.hx * quad.nodes[None, :]
    vals = u(X[:, None, :], y_if[None, :, None])
    return np.einsum("ijq,qr->ijr", vals, quad.weights[:, None] * V)


def project_P(u: SpaceFn, fw: FluxWeights, mesh, basis: BasisSpec) -> DgField:
    """Weighted-trace projection matching the scheme's u-flux in both axes.

    Defining conditions per cell: interior moments against all modes of
    degree < k in each axis, weighted-average moments across every
    x-interface against y-modes of degree < k (and symmetrically in y), and
    the doubly weighted point value at every cell corner. Interface and
    corner conditions couple neighbor cells; periodicity makes each coupled
    family circulant along its mesh line.
    """
    if fw.sigma1 == 0.5 or fw.sigma2 == 0.5:
        raise InvalidArgumentError("weighted-trace projection requires weights != 1/2")
    k = basis.k
    quad = _edge_moment_quad(k)
    e_minus, e_plus = edge_values(k)
    full = VolumeGrid.build(mesh, basis, quad).project(u)
    c = np.zeros_like(full.coeffs)
    if k >= 1:
        c[:, :, : k, : k] = full.coeffs[:, :, : k, : k]

        # x-interface conditions determine the (k, s) coefficients, s < k.
        U = _edge_values_x(u, mesh, quad, k)[:, :, :k]
        rhs = (
            U
            - fw.sigma1 * np.einsum("ijas,a->ijs", c[:, :, :k, :k], e_plus[:k])
            - (1.0 - fw.sigma1)
            * np.einsum("ijas,a->ijs", np.roll(c[:, :, :k, :k], -1, axis=0), e_minus[:k])
        )
        sol = _interface_solve(fw.sigma1, mesh.nx, rhs.reshape(mesh.nx, -1), e_plus[k], e_minus[k])
        c[:, :, k, :k] = sol.reshape(rhs.shape)

        # y-interface conditions determine the (r, k) coefficients, r < k.
        V = _edge_values_y(u, mesh, quad, k)[:, :, :k]
        rhs = (
            V
            - fw.sigma2 * np.einsum("ijrb,b->ijr", c[:, :, :k, :k], e_plus[:k])
            - (1.0 - fw.sigma2)
            * np.einsum("ijrb,b->ijr", np.roll(c[:, :, :k, :k], -1, axis=1), e_minus[:k])
        )
        rhs_j_first = rhs.transpose(1, 0, 2).reshape(mesh.ny, -1)
        sol = _interface_solve(fw.sigma2, mesh.ny, rhs_j_first, e_plus[k], e_minus[k])
        c[:, :, :k, k] = sol.reshape(mesh.ny, mesh.nx, k).transpose(1, 0, 2)

    # Corner conditions determine the (k, k) coefficients through the tensor
    # product of the two interface operators.
    corners = u(mesh.x_edges[1:, None], mesh.y_edges[None, 1:])
    trace_pp = np.einsum("ijab,a,b->ij", c, e_plus, e_plus)
    trace_pm = np.einsum("ijab,a,b->ij", c, e_plus, e_minus)
    trace_mp = np.einsum("ijab,a,b->ij", c, e_minus, e_plus)
    trace_mm = np.einsum("ijab,a,b->ij", c, e_minus, e_minus)
    s1, s2 = fw.sigma1, fw.sigma2
    known = (
        s1 * s2 * trace_pp
        + s1 * (1.0 - s2) * np.roll(trace_pm, -1, axis=1)
        + (1.0 - s1) * s2 * np.roll(trace_mp, -1, axis=0)
        + (1.0 - s1) * (1.0 - s2) * np.roll(np.roll(trace_mm, -1, axis=0), -1, axis=1)
    )
    rhs = corners - known
    w = _interface_solve(s1, mesh.nx, rhs, e_plus[k], e_minus[k])
    z = _interface_solve(s2, mesh.ny, w.T, e_plus[k], e_minus[k]).T
    c[:, :, k, k] = z
    return DgField(c, basis, mesh)


def project_Q(u: SpaceFn, sigma: float, axis: str, mesh, basis: BasisSpec) -> DgField:
    """Single-axis weighted-trace projection.

    Matches interior moments against modes of degree < k in the chosen axis
    (all degrees in the other axis) plus weighted-average moments across
    every interface of that axis against all transverse modes.
    """
    if sigma == 0.5:
        raise InvalidArgumentError("weighted-trace projection requires weight != 1/2")
    if axis not in ("x", "y"):
        raise InvalidArgumentError(f"axis must be 'x' or 'y', got {axis!r}")
    k = basis.k
    quad = _edge_moment_quad(k)
    e_minus, e_plus = edge_values(k)
    full = VolumeGrid.build(mesh, basis, quad).project(u)
    c = np.zeros_like(full.coeffs)
    if axis == "x":
        c[:, :, :k, :] = full.coeffs[:, :, :k, :]
        U = _edge_values_x(u, mesh, quad, k)
        rhs = (
            U
            - sigma * np.einsum("ijas,a->ijs", c[:, :, :k, :], e_plus[:k])
            - (1.0 - sigma)
            * np.einsum("ijas,a->ijs", np.roll(c[:, :, :k, :], -1, axis=0), e_minus[:k])
        )
        sol = _interface_solve(sigma, mesh.nx, rhs.reshape(mesh.nx, -1), e_plus[k], e_minus[k])
        c[:, :, k, :] = sol.reshape(rhs.shape)
    else:
        c[:, :, :, :k] = full.coeffs[:, :, :, :k]
        V = _edge_values_y(u, mesh, quad, k)
        rhs = (
            V
            - sigma * np.einsum("ijrb,b->ijr", c[:, :, :, :k], e_plus[:k])
            - (1.0 - sigma)
            * np.einsum("ijrb,b->ijr", np.roll(c[:, :, :, :k], -1, axis=1), e_minus[:k])
        )
        rhs_j_first = rhs.transpose(1, 0, 2).reshape(mesh.ny, -1)
        sol = _interface_solve(sigma, mesh.ny, rhs_j_first, e_plus[k], e_minus[k])
        c[:, :, :, k] = sol.reshape(mesh.ny, mesh.nx, k + 1).transpose(1, 0, 2)
    return DgField(c, basis, mesh)
