"""The error functional, convergence rates, and condition numbers.

The error functional FinalTimeError, the final-time L2 error scaled by the
horizon and the functional of every shipped convergence table, is a solve
observer that computes its value while the run goes, keeps no field, and
takes its norm on the basis.VolumeGrid rule that solve projects u0 and
takes the source moments on (basis.default_quad_points). rates
turns a sweep into consecutive-pair orders, and condition_number gives the
exact 2-norm conditioning of a step matrix from the extreme eigenvalues of
its small Fourier blocks on the periodic mesh, solving nothing. ErrorReport
carries one study's numbers to the CLI's CSV and text output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .basis import BasisSpec, DgField, VolumeGrid
from .errors import InvalidArgumentError
from .fractional import L1Kernel
from .ldg import LdgOperators, block_symbol
from .meshes import GradedTimeMesh, SpatialMesh

#: An exact solution u(t, x, y), broadcasting over point arrays.
Exact = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

__all__ = [
    "ErrorReport",
    "FinalTimeError",
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


class FinalTimeError:
    """Convergence functional of the benchmark tables, as a solve observer:
    the final-time L2 error scaled by the time horizon,
    E(h, M) = T * ||u(T) - u_h^M||.

    The scaling gives E the dimensions of a time-integrated error while the
    measurement itself is taken where the full memory history has
    accumulated. It reads only the final level u^M, evaluates the exact
    solution at the points of a VolumeGrid built once, and keeps no field;
    value is nan until u^M has been seen.

        acc = FinalTimeError(tm, mesh, basis, prob.exact)
        solve(prob, mesh, tm, basis, fw, acc)
        acc.value
    """

    def __init__(self, tm: GradedTimeMesh, mesh: SpatialMesh, basis: BasisSpec, exact: Exact):
        self.tm, self.exact = tm, exact
        self.grid = VolumeGrid.build(mesh, basis)
        self.value = math.nan

    def __call__(self, n: int, u: DgField) -> None:
        if n == self.tm.M:
            vals = self.exact(self.tm.t[n], self.grid.x, self.grid.y)
            self.value = self.tm.T * self.grid.norm(vals - u.eval_volume_quad(self.grid.quad))


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


def condition_number(ops: LdgOperators, A: L1Kernel, M: int) -> float:
    """Exact 2-norm condition number of the final-step system matrix
    S = A_0^M * mass + K.

    The solver works internally with orthonormal Legendre modes, which act
    as a diagonal preconditioner on the mass term. The matrix is reported
    in the classical (unnormalized) Legendre modal basis, the conventional
    choice for DG system conditioning: with d the diagonal that rescales
    each mode, the measured matrix is D S D. S is symmetric positive
    definite (A_0^M * mass > 0, K is PSD), so the condition number is
    max(lambda) / min(lambda) of D S D.

    d repeats in every cell and K = Kx (x) I + I (x) Ky with block-circulant
    Kx, Ky (ldg.block_symbol), so D S D splits into one Hermitian
    (k+1)^2 x (k+1)^2 block per Fourier pair (mx, my),
    Dhat (A_0^M m I + Kxhat(mx) (x) I + I (x) Kyhat(my)) Dhat with
    Dhat = diag(dc) (x) diag(dc), dc the part of d on one cell's modes in one
    direction. Each x mode takes one batched eigvalsh over all y modes;
    nothing is solved or factorized.
    """
    a0 = A.a0(M)  # raises InvalidArgumentError unless 1 <= M <= A.tm.M
    kk = ops.basis.k + 1
    eye = np.eye(kk)
    dc = 1.0 / np.sqrt(np.arange(kk) + 0.5)
    # Block order (r, s), as in the solver order (i, r, j, s).
    dhat = np.kron(dc, dc)
    scale = dhat[:, None] * dhat[None, :]
    y_part = (a0 * ops.M) * np.eye(kk * kk) + np.kron(eye, block_symbol(ops.Ky, ops.mesh.ny))
    lam = [
        np.linalg.eigvalsh(scale * (np.kron(kx_hat, eye) + y_part))
        for kx_hat in block_symbol(ops.Kx, ops.mesh.nx)
    ]
    return float(np.max(lam) / np.min(lam))
