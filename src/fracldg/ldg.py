"""LDG spatial operators with generalized alternating fluxes, auxiliary
variable elimination, and the fully discrete time stepper.

The second-order operator is rewritten as the first-order system
p = grad(u), D_M u = div(p) + f. Testing both equations against the
orthonormal tensor basis and inserting the weighted-average fluxes

    u-hat on x-interfaces: sigma1 * u(-) + (1 - sigma1) * u(+)
    p-hat on x-interfaces: (1 - sigma1) * p(-) + sigma1 * p(+)

(and sigma2 likewise in y) makes the cell mass matrix a scalar, so the
p-coefficients are an explicit linear map of the u-coefficients. Composing
that map into the u-equation yields one global operator K acting on
u-coefficients; the step-n system is (A_0^n * m * I + K) U^n = RHS, where m
is the cell mass scalar and only the scalar A_0^n changes with n.

Internally coefficient tensors (i, j, r, s) are flattened in (i, r, j, s)
order, so K = Kx (x) I + I (x) Ky is a Kronecker sum of 1D blocks, each
symmetric PSD by the discrete duality H = -G^T. The blocks are small dense
arrays, (nx (k+1))^2 and (ny (k+1))^2; the 2D K is never formed on the run
path. K x is applied as Kx X + X Ky^T with X = x reshaped to (i r, j s).
Eigendecomposing each block once, Kx = Qx diag(lx) Qx^T, solves every step
exactly for any A_0^n by fast diagonalization (Lynch, Rice & Thomas, Numer.
Math. 6, 1964): U = Qx [(Qx^T B Qy) / (A_0^n m + lx_i + ly_j)] Qy^T, with B
and U the right-hand side and solution reshaped to (i r, j s). The module
needs numpy only; the sparse 2D K is the one exception, a scipy matrix
built on first access for residual recomputation outside the run path.

The earlier levels enter a step only through the memory sum, which one
History object holds and evaluates. solve keeps the fields themselves only
when its caller asks for the whole Trajectory, and refuses, before it
allocates, a run whose footprint exceeds the physical memory.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (
    BasisSpec,
    DgField,
    QuadRule,
    edge_values,
    eval_on_grid,
    gauss_rule,
    legendre_derivatives,
    legendre_values,
    l2_project,
    quad_vandermonde,
    volume_quad_points,
)
from .errors import InvalidArgumentError, NumericError
from .fractional import (
    HISTORY_PANEL,
    L1Kernel,
    history_panel,
    l1_coefficients,
    substantial_history,
)
from .meshes import GradedTimeMesh, SpatialMesh
from .problems import ProblemSpec

__all__ = [
    "FluxWeights",
    "History",
    "LdgOperators",
    "StepGrid",
    "Trajectory",
    "assemble_operators",
    "step",
    "solve",
]

#: Relative residual demanded from every linear solve.
SOLVER_RTOL = 1e-12

#: Largest admissible c_kappa * T. The history is stored tempered,
#: e^{kappa t_j} u^j, and untempered by e^{-kappa t_n}; both factors lie in
#: [e^-200, e^200] ~ [1e-87, 1e87], which leaves more than 200 decades to
#: float64 overflow (1.8e308) and underflow (2.2e-308) either side.
MAX_TEMPERING_EXPONENT = 200.0

#: Relative slack allowed when checking max|kappa| at the quadrature points
#: against the certified bound c_kappa (rounding in the kappa callable).
KAPPA_BOUND_RTOL = 1e-12


@dataclass(frozen=True)
class FluxWeights:
    """Weights of the x- and y-direction weighted averages.

    Each weight must be a finite number in [0, 1]. sigma = 1/2 (central
    flux) is accepted but degrades the spatial order; construction emits a
    warning so experiment logs show the choice.
    """

    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        for name, s in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not 0.0 <= s <= 1.0:  # also rejects nan
                raise InvalidArgumentError(f"flux weight {name} must lie in [0, 1], got {s}")
        if self.is_central:
            warnings.warn(
                "central flux weight 1/2 in use: optimal spatial order is not expected",
                stacklevel=3,
            )

    @property
    def is_central(self) -> bool:
        return self.sigma1 == 0.5 or self.sigma2 == 0.5


def _derivative_matrix(k: int) -> np.ndarray:
    """D[a, b] = int_{-1}^{1} Lhat_a(x) * Lhat_b'(x) dx, exact."""
    quad = gauss_rule(max(k + 1, 1))
    V = legendre_values(k, quad.nodes)
    Vd = legendre_derivatives(k, quad.nodes)
    return (V * quad.weights[:, None]).T @ Vd


def _directional_operator(n: int, k: int, sigma: float) -> np.ndarray:
    """Dense 1D operator G on (cell, mode) unknowns realizing, per cell i and mode b,

        (G u)_{i,b} = uhat_{i+1/2} Lhat_b(1) - uhat_{i-1/2} Lhat_b(-1)
                      - sum_a u_{i,a} D[a, b],

    with uhat = sigma * u(-) + (1 - sigma) * u(+) and periodic neighbors.
    The same routine with weight 1 - sigma realizes the p-hat flux operator.
    """
    e_minus, e_plus = edge_values(k)
    D = _derivative_matrix(k)
    diag = sigma * np.outer(e_plus, e_plus) - (1.0 - sigma) * np.outer(e_minus, e_minus) - D.T
    upper = (1.0 - sigma) * np.outer(e_plus, e_minus)
    lower = -sigma * np.outer(e_minus, e_plus)
    kk = k + 1
    G = np.zeros((n, kk, n, kk))
    cells = np.arange(n)
    # One statement per block kind: for n <= 2 the periodic neighbors coincide
    # with each other or with the cell itself, and every term must add.
    G[cells, :, cells, :] += diag
    G[cells, :, (cells + 1) % n, :] += upper
    G[cells, :, (cells - 1) % n, :] += lower
    return G.reshape(n * kk, n * kk)


@dataclass
class LdgOperators:
    """Assembled operators on flattened u-coefficients.

    K = Kx (x) I + I (x) Ky is the spatial operator after auxiliary
    elimination, held as its dense 1D blocks Kx and Ky and applied by
    apply_K; M is the scalar cell mass (the mass operator is M times
    identity). The step-n matrix is A_0^n * M * I + K; (Qx, lam_x) and
    (Qy, lam_y) are the eigenpairs of Kx and Ky that solve it. The sparse
    K is built on first access, for residual recomputation outside the run
    path; no solve reads it.
    """

    Kx: np.ndarray
    Ky: np.ndarray
    M: float
    mesh: SpatialMesh
    basis: BasisSpec
    fw: FluxWeights
    Qx: np.ndarray
    lam_x: np.ndarray
    Qy: np.ndarray
    lam_y: np.ndarray

    @property
    def ndof(self) -> int:
        return len(self.lam_x) * len(self.lam_y)

    @cached_property
    def K(self):
        """Sparse global K as a scipy.sparse CSR matrix, built on first access;
        (i, r, j, s) ordering: kronsum(Ky, Kx) = Kx (x) I + I (x) Ky."""
        import scipy.sparse as sp

        return sp.kronsum(self.Ky, self.Kx, format="csr")

    def apply_K(self, x: np.ndarray) -> np.ndarray:
        """K x from the 1D blocks, never from their eigenpairs, so a residual
        computed with it checks the diagonalized solve independently."""
        X = x.reshape(self.Kx.shape[0], self.Ky.shape[0])
        return (self.Kx @ X + X @ self.Ky.T).ravel()

    def flatten(self, f: DgField) -> np.ndarray:
        """Coefficient tensor (i, j, r, s) -> solver vector in (i, r, j, s) order."""
        return np.ascontiguousarray(f.coeffs.transpose(0, 2, 1, 3)).ravel()

    def unflatten(self, vec: np.ndarray) -> DgField:
        kk = self.basis.k + 1
        coeffs = vec.reshape(self.mesh.nx, kk, self.mesh.ny, kk).transpose(0, 2, 1, 3)
        return DgField(np.ascontiguousarray(coeffs), self.basis, self.mesh)

    def _diagonalized_solve(self, a0: float, b: np.ndarray) -> np.ndarray:
        B = b.reshape(len(self.lam_x), len(self.lam_y))
        denom = (a0 * self.M) + self.lam_x[:, None] + self.lam_y[None, :]
        return (self.Qx @ ((self.Qx.T @ B @ self.Qy) / denom) @ self.Qy.T).ravel()

    def solve_system(self, a0: float, b: np.ndarray) -> np.ndarray:
        """Solve (a0 * M * I + K) x = b by fast diagonalization. A relative
        residual above SOLVER_RTOL gets one step of iterative refinement; one
        still above 100 * SOLVER_RTOL, or a non-finite b or x, raises
        NumericError instead of propagating into the trajectory."""
        bnorm = float(np.linalg.norm(b))
        if not math.isfinite(bnorm):
            raise NumericError(f"linear solve: right-hand side is not finite (|b| = {bnorm})")
        x = self._diagonalized_solve(a0, b)
        r = b - ((a0 * self.M) * x + self.apply_K(x))
        res = float(np.linalg.norm(r))
        if res > SOLVER_RTOL * bnorm:
            # Eigenvalue rounding (~eps * max(lam)) is large against the
            # smallest denominators when a small a0 * M leaves near-null
            # modes of K ill-conditioned; one refinement step with the same
            # eigenpairs removes that error.
            x = x + self._diagonalized_solve(a0, r)
            res = float(np.linalg.norm((a0 * self.M) * x + self.apply_K(x) - b))
        if not math.isfinite(res):
            raise NumericError(f"linear solve: solution is not finite (residual {res})")
        if bnorm > 0.0 and res > SOLVER_RTOL * bnorm * 100.0:
            raise NumericError(
                f"linear solve residual {res:.3e} exceeds {SOLVER_RTOL:.0e} * |b| = "
                f"{SOLVER_RTOL * bnorm:.3e}"
            )
        return x


def assemble_operators(mesh: SpatialMesh, basis: BasisSpec, fw: FluxWeights) -> LdgOperators:
    """Assemble the 1D blocks of K, their eigendecompositions, and the mass scalar.

    The u-flux operators G and the p-flux operators H are assembled
    independently from their definitions (H is the directional operator with
    the complementary weight); the discrete duality H = -G^T, which makes the
    1D blocks symmetric, is a consequence checked by tests, not an assumption
    of the assembly.
    """
    hx, hy = mesh.hx, mesh.hy
    Gx1 = _directional_operator(mesh.nx, basis.k, fw.sigma1)
    Gy1 = _directional_operator(mesh.ny, basis.k, fw.sigma2)
    Hx1 = _directional_operator(mesh.nx, basis.k, 1.0 - fw.sigma1)
    Hy1 = _directional_operator(mesh.ny, basis.k, 1.0 - fw.sigma2)
    # Cell mass m = hx*hy/4 cancels against the transverse mass h/2 of each
    # lift, leaving the aspect-ratio factors.
    Kx = -(hy / hx) * (Hx1 @ Gx1)
    Ky = -(hx / hy) * (Hy1 @ Gy1)
    lam_x, Qx = np.linalg.eigh(Kx)
    lam_y, Qy = np.linalg.eigh(Ky)
    return LdgOperators(
        Kx=Kx,
        Ky=Ky,
        M=hx * hy / 4.0,
        mesh=mesh,
        basis=basis,
        fw=fw,
        Qx=Qx,
        lam_x=lam_x,
        Qy=Qy,
        lam_y=lam_y,
    )


@dataclass
class Trajectory:
    """Every level u^0..u^M of a run, with its mesh/problem context.

    solve returns one when it is given no observer. It holds (M+1) N_dof
    floats, N_dof the number of coefficients of one field; a caller that
    needs less passes solve an observer instead and keeps what it reads.
    """

    fields: list[DgField]
    tm: GradedTimeMesh
    prob: ProblemSpec
    mesh: SpatialMesh
    basis: BasisSpec
    fw: FluxWeights

    def __len__(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class StepGrid:
    """Everything a step reads at the volume quadrature points that does not
    change with n, built once per run.

    x and y are the physical points shaped (nx, 1, q, 1) and (1, ny, 1, q),
    so a callable f(t, x, y) broadcasts to the (nx, ny, q, q) grid; WV[q, r]
    = w_q Lhat_r(x_q) is the weighted Vandermonde of the moments; kappa is
    the tempering field at the points.
    """

    x: np.ndarray
    y: np.ndarray
    WV: np.ndarray
    kappa: np.ndarray

    @classmethod
    def build(
        cls, prob: ProblemSpec, mesh: SpatialMesh, basis: BasisSpec, quad: QuadRule
    ) -> StepGrid:
        X, Y = volume_quad_points(mesh, quad)
        return cls(
            x=X[:, None, :, None],
            y=Y[None, :, None, :],
            WV=quad.weights[:, None] * quad_vandermonde(basis.k, quad.npoints),
            kappa=eval_on_grid(prob.kappa, mesh, quad),
        )


def _panel_rows(M: int) -> int:
    """Rows of the panel buffer: the first panel, the largest; none forms
    when M < HISTORY_PANEL."""
    return min(HISTORY_PANEL, max(M + 1 - HISTORY_PANEL, 0))


class History:
    """The memory of a run at the volume quadrature points, behind two calls.

    push(n, u) evaluates u^n at the points, tempers it to w_n = e^{kappa t_n}
    u^n and stores it as row n of an (M+1, nx, ny, q, q) buffer. Levels are
    pushed in order, u^0 first.

    sum(n) returns the memory sum of step n at the points: everything in
    D_M u^n but the A_0^n u^n term (see substantial_history). It needs the
    levels u^0..u^{n-1}. The sum stays exact, O(M^2 N_q) flops per run, but
    is blocked. A step n >= HISTORY_PANEL takes the share of the levels
    before start = n - n % HISTORY_PANEL from one GEMM (history_panel), which
    forms it for the steps start..start + HISTORY_PANEL - 1 into a panel
    buffer allocated once. The step adds the fewer than HISTORY_PANEL levels
    from start on itself. The stored levels are thus read once per panel
    instead of once per step. A panel forms when a step of it first asks, so
    in step order it forms at n = start.

    Memory: (M+1) N_q floats for the levels plus at most HISTORY_PANEL N_q
    for the panel, N_q the number of quadrature points of one level.
    """

    def __init__(self, A: L1Kernel, kappa_at_quad: np.ndarray, quad: QuadRule):
        self.A = A
        self.kappa = kappa_at_quad
        self.quad = quad
        self._count = 0  # levels stored
        self._levels = np.empty((A.tm.M + 1,) + kappa_at_quad.shape)
        self._panel = np.empty((_panel_rows(A.tm.M), kappa_at_quad.size))
        self._panel_start = 0  # 0: no panel formed

    def push(self, n: int, u: DgField) -> None:
        """Temper u^n and store it; n must be the number of levels stored."""
        if n != self._count or n > self.A.tm.M:
            raise InvalidArgumentError(
                f"level {n} pushed after {self._count} levels; push u^0..u^{self.A.tm.M} in order"
            )
        values = u.eval_volume_quad(self.quad)
        # e^{kappa t_0} = 1
        self._levels[n] = values if n == 0 else np.exp(self.kappa * self.A.tm.t[n]) * values
        self._count += 1

    def sum(self, n: int) -> np.ndarray:
        """Memory sum of step n at the points, shaped like kappa."""
        levels = self._levels[: self._count]
        start = n - n % HISTORY_PANEL
        if start and start != self._panel_start:
            history_panel(self.A, levels, start, self._panel[: self.A.tm.M + 1 - start])
            self._panel_start = start
        row = self._panel[n - start] if start else None
        return substantial_history(self.A, self.kappa, levels, n, row, start)


def _moment_vector(values: np.ndarray, ops: LdgOperators, WV: np.ndarray) -> np.ndarray:
    """(g, Phi_B) for every basis function, flattened in solver order, from
    grid values g at the volume quadrature points; WV is StepGrid.WV."""
    moments = ops.M * (WV.T @ (values @ WV))
    return np.ascontiguousarray(moments.transpose(0, 2, 1, 3)).ravel()


def step(
    ops: LdgOperators,
    A: L1Kernel,
    n: int,
    prob: ProblemSpec,
    grid: StepGrid,
    history: History,
) -> DgField:
    """Advance one time step: solve (A_0^n M I + K) U^n = -(hist, v) + (f(t_n), v).

    history holds u^0..u^{n-1}, tempered at the points of grid, and hist is
    its sum(n). The step does not store u^n; the caller pushes it.
    """
    hist = history.sum(n)
    # The history part of D_M u moves to the right-hand side: this negation is
    # the single place the sign convention is applied.
    rhs_values = -hist
    if prob.f is not None:
        rhs_values = rhs_values + prob.f(A.tm.t[n], grid.x, grid.y)
    b = _moment_vector(rhs_values, ops, grid.WV)
    x = ops.solve_system(A.a0(n), b)
    return ops.unflatten(x)


def _check_tempering_range(prob: ProblemSpec, tm: GradedTimeMesh, kappa_at_quad: np.ndarray) -> None:
    """Reject kappa fields the tempered history cannot represent: kappa must
    respect its certified bound c_kappa, and c_kappa * T must stay within
    MAX_TEMPERING_EXPONENT so e^{+-kappa t} stays finite on [0, T]."""
    kmax = float(np.max(np.abs(kappa_at_quad)))
    if not kmax <= prob.c_kappa * (1.0 + KAPPA_BOUND_RTOL):  # also rejects nan
        raise InvalidArgumentError(
            f"max |kappa| = {kmax!r} at the quadrature points exceeds c_kappa = {prob.c_kappa!r}"
        )
    if prob.c_kappa * tm.T > MAX_TEMPERING_EXPONENT:
        raise InvalidArgumentError(
            f"c_kappa * T = {prob.c_kappa * tm.T:g} exceeds {MAX_TEMPERING_EXPONENT:g}: "
            "the tempering factors e^(+-kappa t) would leave the float64 range"
        )


def physical_memory_bytes() -> int | None:
    """Physical memory of the machine, SC_PHYS_PAGES * SC_PAGE_SIZE, or None
    where the platform does not report it.

    Free pages are not used: they leave out the reclaimable page cache, so a
    limit taken from them would refuse runs that fit.
    """
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def footprint_bytes(mesh: SpatialMesh, tm: GradedTimeMesh, basis: BasisSpec, keep_fields: bool) -> int:
    """Bytes solve holds for a whole run, from the sizes alone: the tempered
    levels and the panel of History, the dense 1D blocks Kx, Ky and their
    eigenvectors, and the M + 1 fields of the Trajectory when they are kept."""
    kk = basis.k + 1
    q = basis.default_quad_points
    n_q = mesh.nx * mesh.ny * q * q
    floats = (tm.M + 1 + _panel_rows(tm.M)) * n_q
    floats += 2 * ((mesh.nx * kk) ** 2 + (mesh.ny * kk) ** 2)
    if keep_fields:
        floats += (tm.M + 1) * mesh.nx * mesh.ny * kk * kk
    return 8 * floats


def solve(
    prob: ProblemSpec,
    mesh: SpatialMesh,
    tm: GradedTimeMesh,
    basis: BasisSpec,
    fw: FluxWeights,
    observe: Callable[[int, DgField], object] | None = None,
) -> Trajectory | None:
    """Run the fully discrete scheme from t = 0 to t = T.

    u^0 is the L2 projection of the initial condition; each subsequent field
    solves the step system. The quadrature points, the moment Vandermonde
    and kappa at the points are built once, as a StepGrid. Every level is
    pushed once into a History, which holds it tempered at the quadrature
    points and forms the memory sum of each step from it.

    Without observe, every field is kept and the Trajectory of all M + 1
    levels is returned. With observe, solve calls observe(n, u^n) for
    n = 0..M in order, keeps no field and returns None; the observer keeps
    what it needs (see analysis.FinalTimeError). Memory is then
    O(M N_q) for the History plus O(N_dof) for the fields in flight.

    Before it allocates anything, solve works out from (M, nx, ny, k) the
    bytes it will hold (footprint_bytes) and raises NumericError naming them
    when they exceed the physical memory (physical_memory_bytes). It raises
    InvalidArgumentError when kappa exceeds c_kappa or c_kappa * T exceeds
    MAX_TEMPERING_EXPONENT.
    """
    need = footprint_bytes(mesh, tm, basis, keep_fields=observe is None)
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        held = "history and operators" if observe is not None else "history, operators and fields"
        raise NumericError(
            f"the run needs {need} bytes ({need / 2**30:.3g} GiB) for its {held}, "
            f"more than the {limit} bytes of physical memory"
        )
    ops = assemble_operators(mesh, basis, fw)
    quad = gauss_rule(basis.default_quad_points)
    A = l1_coefficients(tm, prob.alpha)
    grid = StepGrid.build(prob, mesh, basis, quad)
    _check_tempering_range(prob, tm, grid.kappa)
    history = History(A, grid.kappa, quad)
    fields: list[DgField] = []
    record = observe if observe is not None else (lambda n, u: fields.append(u))
    u_n = l2_project(prob.u0, mesh, basis, quad)
    record(0, u_n)
    history.push(0, u_n)
    for n in range(1, tm.M + 1):
        u_n = step(ops, A, n, prob, grid, history)
        record(n, u_n)
        history.push(n, u_n)
    if observe is not None:
        return None
    return Trajectory(fields=fields, tm=tm, prob=prob, mesh=mesh, basis=basis, fw=fw)
