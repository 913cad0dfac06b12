"""Error functionals, convergence rates, and condition numbers.

error_E is the final-time L2 error scaled by the horizon, the functional of
every shipped convergence table; error_time_integrated weights the whole
history through the piecewise-linear-in-time interpolants. Each also exists
as a solve observer (FinalTimeError, TimeIntegratedError) that computes it
while the run goes and keeps no trajectory; the Trajectory forms replay the
stored fields through the same observers. rates turns a sweep into
consecutive-pair orders, and condition_number estimates the 2-norm
conditioning of a step matrix by seeded power iteration, applying the
inverse through the solver's own fast-diagonalization solve. ErrorReport
carries one study's numbers to the CLI's CSV and text output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .basis import BasisSpec, DgField, gauss_rule, quad_l2_norm, volume_quad_points
from .errors import InvalidArgumentError, NumericError
from .fractional import L1Kernel
from .ldg import LdgOperators, Trajectory
from .meshes import GradedTimeMesh, SpatialMesh

#: An exact solution u(t, x, y), broadcasting over point arrays.
Exact = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

__all__ = [
    "ErrorReport",
    "FinalTimeError",
    "TimeIntegratedError",
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


class _LevelError:
    """What the streaming error functionals share: the spatial quadrature
    and the points where the exact solution is evaluated, built once."""

    def __init__(self, tm: GradedTimeMesh, mesh: SpatialMesh, basis: BasisSpec, exact: Exact):
        self.tm, self.mesh, self.exact = tm, mesh, exact
        self.squad = gauss_rule(basis.default_quad_points)
        X, Y = volume_quad_points(mesh, self.squad)
        self._x, self._y = X[:, None, :, None], Y[None, :, None, :]

    def _nodal_error(self, n: int, u: DgField) -> np.ndarray:
        vals = self.exact(self.tm.t[n], self._x, self._y)
        return vals - u.eval_volume_quad(self.squad)


class FinalTimeError(_LevelError):
    """error_E as a solve observer: reads only the final level u^M and
    keeps no field. value is nan until u^M has been seen.

        acc = FinalTimeError(tm, mesh, basis, prob.exact)
        solve(prob, mesh, tm, basis, fw, acc)
        acc.value  # == error_E(solve(prob, mesh, tm, basis, fw), prob.exact)
    """

    def __init__(self, tm: GradedTimeMesh, mesh: SpatialMesh, basis: BasisSpec, exact: Exact):
        super().__init__(tm, mesh, basis, exact)
        self.value = math.nan

    def __call__(self, n: int, u: DgField) -> None:
        if n == self.tm.M:
            self.value = self.tm.T * quad_l2_norm(self._nodal_error(n, u), self.mesh, self.squad)


class TimeIntegratedError(_LevelError):
    """error_time_integrated as a solve observer: folds each consecutive
    pair of levels into the running value and keeps only the error at the
    points of the latest level. Levels must arrive in order, u^0 first.
    """

    def __init__(
        self,
        tm: GradedTimeMesh,
        mesh: SpatialMesh,
        basis: BasisSpec,
        exact: Exact,
        quad_t: int = 3,
    ):
        if quad_t < 2:
            raise InvalidArgumentError(f"need at least 2 time quadrature points, got {quad_t}")
        super().__init__(tm, mesh, basis, exact)
        self.tquad = gauss_rule(quad_t)
        self.value = 0.0
        self._seen = 0
        self._e_prev: np.ndarray | None = None

    def __call__(self, n: int, u: DgField) -> None:
        if n != self._seen:
            raise InvalidArgumentError(f"level {n} observed after {self._seen} levels")
        e_next = self._nodal_error(n, u)
        if n > 0:
            tau = self.tm.tau[n - 1]
            for theta, w in zip(self.tquad.nodes, self.tquad.weights):
                z = (theta + 1.0) / 2.0
                self.value += w * (tau / 2.0) * quad_l2_norm(
                    (1.0 - z) * self._e_prev + z * e_next, self.mesh, self.squad
                )
        self._e_prev = e_next
        self._seen += 1


def _replay(traj: Trajectory, observer: _LevelError) -> float:
    for n, u in enumerate(traj.fields):
        observer(n, u)
    return observer.value


def error_E(traj: Trajectory, exact: Exact) -> float:
    """Convergence functional of the benchmark tables: the final-time L2
    error scaled by the time horizon, E(h, M) = T * ||u(T) - u_h^M||.

    The scaling gives E the dimensions of a time-integrated error while the
    measurement itself is taken where the full memory history has
    accumulated. All shipped table presets use this functional; the
    interpolant-based integral is available separately as
    error_time_integrated. FinalTimeError computes it during a solve that
    keeps no trajectory; this replays traj.fields through it.
    """
    return _replay(traj, FinalTimeError(traj.tm, traj.mesh, traj.basis, exact))


def error_time_integrated(traj: Trajectory, exact: Exact, quad_t: int = 3) -> float:
    """Time-integrated L2 distance between the piecewise-linear-in-time
    interpolants of the exact solution and of the discrete trajectory.

    sum_n int_{t_{n-1}}^{t_n} ||I_1 u(t) - I_1 u_h(t)|| dt. Since both
    interpolants are linear on each interval, the integrand at an interior
    time is the norm of the matching convex combination of the endpoint
    error fields, sampled on the spatial quadrature grid. This diagnostic
    weights the whole history, so early-time errors that have already
    decayed by t = T still contribute. TimeIntegratedError computes it
    during a solve that keeps no trajectory; this replays traj.fields
    through it.
    """
    return _replay(traj, TimeIntegratedError(traj.tm, traj.mesh, traj.basis, exact, quad_t))


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
