"""Error functionals, convergence rates, and condition numbers.

error_E is the final-time L2 error scaled by the horizon, the functional of
every shipped convergence table; error_time_integrated weights the whole
history through the piecewise-linear-in-time interpolants. rates turns a
sweep into consecutive-pair orders, and condition_number estimates the
2-norm conditioning of a step matrix by seeded power iteration, applying
the inverse through the solver's own fast-diagonalization solve. ErrorReport
carries one study's numbers to the CLI's CSV and text output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .basis import gauss_rule, quad_l2_norm, volume_quad_points
from .errors import InvalidArgumentError, NumericError
from .fractional import L1Kernel
from .ldg import LdgOperators, Trajectory

__all__ = [
    "ErrorReport",
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
    a0 = A.a0(M)  # raises InvalidArgumentError unless 1 <= M <= A.tm.M
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
