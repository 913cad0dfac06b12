"""Projection operators, the error functional, convergence rates, and
condition-number estimates.

The weighted-trace projections defined here match interior moments plus
weighted interface conditions. Because each interface condition couples the
two adjacent cells through the same weighted average the scheme's fluxes
use, the top-mode coefficients satisfy periodic bidiagonal systems, which
are circulant and solved directly per mesh line. The projections exist for
any weight except 1/2, where the circulant symbol can vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .basis import (
    BasisSpec,
    DgField,
    QuadRule,
    edge_values,
    gauss_rule,
    legendre_values,
    l2_project,
    quad_l2_norm,
    volume_quad_points,
)
from .errors import InvalidArgumentError, NumericError
from .fractional import L1Kernel
from .ldg import FluxWeights, LdgOperators, Trajectory

__all__ = [
    "ErrorReport",
    "project_P",
    "project_Q",
    "error_E",
    "error_time_integrated",
    "rates",
    "condition_number",
]


@dataclass
class ErrorReport:
    """One convergence (or conditioning) study: parameters, errors, rates.

    params are kept as display strings ("1/12", "20", "(1,0)") so reports
    and CSV files show exactly what was run; rate entries pair with the
    second row of each consecutive pair, so len(rates) == len(errors) - 1.
    """

    kind: str
    param_name: str
    params: list[str]
    errors: list[float]
    rates: list[float]
    meta: dict = dc_field(default_factory=dict)

    def _rate_str(self, i: int) -> str:
        if i == 0 or i > len(self.rates):
            return ""
        return f"{self.rates[i - 1]:.4f}"

    def to_csv(self) -> str:
        lines = ["param,error,rate"]
        for i, (p, e) in enumerate(zip(self.params, self.errors)):
            lines.append(f"{p},{e:.10e},{self._rate_str(i)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(self.param_name), max((len(p) for p in self.params), default=0))
        header = f"{self.param_name:>{width}}  {'error':>16}  {'rate':>8}"
        lines = [header, "-" * len(header)]
        for i, (p, e) in enumerate(zip(self.params, self.errors)):
            lines.append(f"{p:>{width}}  {e:16.10e}  {self._rate_str(i):>8}")
        return "\n".join(lines) + "\n"


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
    _, Y = volume_quad_points(mesh, quad)
    vals = u(x_if[:, None, None], Y[None, :, :])
    return np.einsum("ijq,qs->ijs", vals, quad.weights[:, None] * V)


def _edge_values_y(u: SpaceFn, mesh, quad: QuadRule, k: int) -> np.ndarray:
    """Moments of u along every y-interface: out[i, j, r] = (2/hx) int_{I_i} u(x, y_{j+1/2}) phi_r(x) dx."""
    V = legendre_values(k, quad.nodes)
    y_if = mesh.y_edges[1:]
    X, _ = volume_quad_points(mesh, quad)
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
    full = l2_project(u, mesh, basis, quad)
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
    full = l2_project(u, mesh, basis, quad)
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


def _nodal_error(traj: Trajectory, exact, n: int, squad) -> np.ndarray:
    X, Y = volume_quad_points(traj.mesh, squad)
    vals = exact(traj.tm.t[n], X[:, None, :, None], Y[None, :, None, :])
    return vals - traj.fields[n].eval_volume_quad(squad)


def error_E(
    traj: Trajectory,
    exact: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Convergence functional of the benchmark tables: the final-time L2
    error scaled by the time horizon, E(h, M) = T * ||u(T) - u_h^M||.

    The scaling gives E the dimensions of a time-integrated error while the
    measurement itself is taken where the full memory history has
    accumulated. All shipped table presets use this functional; the
    interpolant-based integral is available separately as
    error_time_integrated.
    """
    squad = gauss_rule(traj.basis.default_quad_points)
    e_final = _nodal_error(traj, exact, traj.tm.M, squad)
    return traj.tm.T * quad_l2_norm(e_final, traj.mesh, squad)


def error_time_integrated(
    traj: Trajectory,
    exact: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    quad_t: int = 3,
) -> float:
    """Time-integrated L2 distance between the piecewise-linear-in-time
    interpolants of the exact solution and of the discrete trajectory.

    sum_n int_{t_{n-1}}^{t_n} ||I_1 u(t) - I_1 u_h(t)|| dt. Since both
    interpolants are linear on each interval, the integrand at an interior
    time is the norm of the matching convex combination of the endpoint
    error fields, sampled on the spatial quadrature grid. This diagnostic
    weights the whole history, so early-time errors that have already
    decayed by t = T still contribute.
    """
    if quad_t < 2:
        raise InvalidArgumentError(f"need at least 2 time quadrature points, got {quad_t}")
    mesh, basis, tm = traj.mesh, traj.basis, traj.tm
    squad = gauss_rule(basis.default_quad_points)
    tquad = gauss_rule(quad_t)

    total = 0.0
    e_prev = _nodal_error(traj, exact, 0, squad)
    for n in range(1, tm.M + 1):
        e_next = _nodal_error(traj, exact, n, squad)
        tau = tm.tau[n - 1]
        for theta, w in zip(tquad.nodes, tquad.weights):
            z = (theta + 1.0) / 2.0
            total += w * (tau / 2.0) * quad_l2_norm(
                (1.0 - z) * e_prev + z * e_next, mesh, squad
            )
        e_prev = e_next
    return total


def rates(errors: Sequence[float], params: Sequence[float]) -> list[float]:
    """Consecutive-pair convergence rates log(E_i/E_{i+1}) / log(p_i/p_{i+1})."""
    if len(errors) != len(params):
        raise InvalidArgumentError("errors and params must have equal length")
    if len(errors) < 2:
        raise InvalidArgumentError("need at least two entries to compute a rate")
    if any(e <= 0.0 for e in errors):
        raise InvalidArgumentError("errors must be positive")
    if any(p <= 0.0 for p in params):
        raise InvalidArgumentError("params must be positive")
    out = []
    for i in range(len(errors) - 1):
        dp = math.log(params[i] / params[i + 1])
        if dp == 0.0:
            raise InvalidArgumentError("consecutive params must differ")
        out.append(math.log(errors[i] / errors[i + 1]) / dp)
    return out


def _power_lambda_max(matvec: Callable[[np.ndarray], np.ndarray], n: int,
                      iters: int = 50, tol: float = 1e-6) -> float:
    """Largest-magnitude eigenvalue of a symmetric operator by power
    iteration with Rayleigh quotients; stops on relative stagnation."""
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        lam_new = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if lam != 0.0 and abs(lam_new - lam) <= tol * abs(lam_new):
            return abs(lam_new)
        lam = lam_new
    return abs(lam)


def condition_number(ops: LdgOperators, A: L1Kernel, M: int) -> float:
    """2-norm condition number of the final-step system matrix A_0^M * mass + K.

    The solver works internally with orthonormal Legendre modes, which act
    as a diagonal preconditioner on the mass term. The matrix is reported
    in the classical (unnormalized) Legendre modal basis, the conventional
    choice for DG system conditioning: with d the diagonal that rescales
    each mode, the measured matrix is D S D. Its largest eigenvalue and that
    of its inverse come from seeded power iteration; the inverse is applied
    through ops.solve_system, (D S D)^-1 v = D^-1 S^-1 D^-1 v, so no matrix
    is factorized.
    """
    if not 1 <= M < len(A.A):
        raise InvalidArgumentError(f"step index {M} outside 1..{len(A.A) - 1}")
    a0 = A.A[M][0]
    inv_norm = 1.0 / np.sqrt(np.arange(ops.basis.k + 1) + 0.5)
    # Solver order (i, r, j, s): mode (r, s) is scaled by inv_norm[r] * inv_norm[s].
    d = np.kron(np.kron(np.ones(ops.mesh.nx), inv_norm), np.kron(np.ones(ops.mesh.ny), inv_norm))

    def forward(v: np.ndarray) -> np.ndarray:
        dv = d * v
        return d * ((a0 * ops.M) * dv + ops.apply_K(dv))

    lam_max = _power_lambda_max(forward, ops.ndof)
    inv_lam_max = _power_lambda_max(lambda v: ops.solve_system(a0, v / d) / d, ops.ndof)
    if lam_max == 0.0 or inv_lam_max == 0.0:
        raise NumericError("power iteration collapsed to zero")
    return lam_max * inv_lam_max
