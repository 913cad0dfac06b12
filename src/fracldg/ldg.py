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

Coefficient tensors are held in the order (i, r, j, s) (basis.DgField)
and flattened as they are, so K = Kx (x) I + I (x) Ky is a Kronecker sum
of 1D blocks, each symmetric PSD by the discrete duality H = -G^T, and a
step's right-hand side and solution are its moments and its field, each
one reshape away. The blocks are small dense arrays, (nx (k+1))^2 and
(ny (k+1))^2; the 2D K is never formed on the run path. K x is applied as
Kx X + X Ky^T with X = x reshaped to (i r, j s). Eigendecomposing each
block once, Kx = Qx diag(lx) Qx^T, solves every step
exactly for any A_0^n by fast diagonalization (Lynch, Rice & Thomas, Numer.
Math. 6, 1964): U = Qx [(Qx^T B Qy) / (A_0^n m + lx_i + ly_j)] Qy^T, with B
and U the right-hand side and solution reshaped to (i r, j s). On the
uniform periodic mesh each block is also block-circulant over the cells;
block_symbol reduces it to one (k+1) x (k+1) Hermitian block per Fourier
mode, from which analysis.condition_number takes exact extreme
eigenvalues. LdgOperators(mesh, basis, fw) derives the blocks, their
eigenpairs and the mass scalar from those three inputs, the one way to
build them; it is a value, frozen, that compares and hashes by its
inputs. The module needs numpy only; the sparse 2D K is the one
exception, a scipy matrix built on first access for residual
recomputation outside the run path.

The earlier levels enter a step only through the memory sum, which one
fracldg.fractional.History holds and evaluates: solve pushes each level,
evaluated at the points of the history rule, and step reads the sum and
the mass factor A_0^n. A run has two basis.VolumeGrids. The history grid,
basis.history_quad_points (k+1) Gauss points per axis, holds the levels
and takes the moments of the memory sum: a level there has as many values
as coefficients, and for a constant kappa the rule integrates the memory
term exactly. The source grid, basis.default_quad_points (k+3), projects
u0 and takes the moments of the source, which is not a polynomial; the
source is separable, so a step reads only the points of one axis at a
time there and never the (k+3)^2 grid. solve
hands each level to an observer and keeps none itself, and refuses, before
it allocates, a run whose footprint exceeds the physical memory.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .basis import (
    BasisSpec,
    DgField,
    VolumeGrid,
    edge_values,
    gauss_rule,
    legendre_derivatives,
    legendre_values,
)
from .errors import NumericError, check_count, check_sigma, require_memory
from .fractional import History, L1Kernel
from .meshes import GradedTimeMesh, SpatialMesh
from .problems import ProblemSpec

__all__ = [
    "FluxWeights",
    "LdgOperators",
    "step",
    "solve",
]

#: Relative residual demanded from every linear solve.
SOLVER_RTOL = 1e-12


@dataclass(frozen=True)
class FluxWeights:
    """Weights of the x- and y-direction weighted averages.

    Each weight is a finite real in [0, 1] (errors.check_sigma), stored as
    a float. sigma = 1/2 (central
    flux) is accepted but degrades the spatial order; construction emits a
    warning so experiment logs show the choice.
    """

    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma1", check_sigma(self.sigma1, "sigma1"))
        object.__setattr__(self, "sigma2", check_sigma(self.sigma2, "sigma2"))
        if self.sigma1 == 0.5 or self.sigma2 == 0.5:
            warnings.warn(
                "central flux weight 1/2 in use: optimal spatial order is not expected",
                stacklevel=3,
            )


@lru_cache(maxsize=None)
def _derivative_matrix(k: int) -> np.ndarray:
    """D[a, b] = int_{-1}^{1} Lhat_a(x) * Lhat_b'(x) dx, exact; built once
    per k and read-only, since every caller shares it."""
    quad = gauss_rule(max(k + 1, 1))
    V = legendre_values(k, quad.nodes)
    Vd = legendre_derivatives(k, quad.nodes)
    D = (V * quad.weights[:, None]).T @ Vd
    D.setflags(write=False)
    return D


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


def block_symbol(K1: np.ndarray, n: int) -> np.ndarray:
    """Fourier symbol of a 1D block on n periodic cells, shape (n, k+1, k+1).

    On the uniform periodic mesh the (cell, cell') block of K1 depends only
    on d = (cell' - cell) mod n, so K1 is block-circulant with block row
    C_d = K1[:k+1, d (k+1):(d+1) (k+1)] (Davis, Circulant Matrices, 1979,
    ch. 5). The vectors e^{2 pi i c m / n} w over the cells c reduce it to
    K1hat(m) = sum_d C_d e^{2 pi i d m / n}, whose eigenvalues over all m are
    those of K1; K1hat(m) is Hermitian when K1 is symmetric.
    """
    kk = K1.shape[0] // n
    C = K1[:kk].reshape(kk, n, kk).transpose(1, 0, 2)  # C[d] = C_d
    return n * np.fft.ifft(C, axis=0)


@dataclass(frozen=True)
class LdgOperators:
    """The LDG operators of one (mesh, basis, fw), on flattened u-coefficients.

    K = Kx (x) I + I (x) Ky is the spatial operator after auxiliary
    elimination, held as its dense 1D blocks Kx and Ky and applied by
    apply_K; M is the scalar cell mass (the mass operator is M times
    identity). The step-n matrix is A_0^n * M * I + K; (Qx, lam_x) and
    (Qy, lam_y) are the eigenpairs of Kx and Ky that solve it. The sparse
    K is built on first access, for residual recomputation outside the run
    path; no solve reads it.

    The mesh, the degree and the flux weights fix every operator, so the
    class derives them and takes none: LdgOperators(mesh, basis, fw) is the
    one way to build them, and dataclasses.replace with a new input derives
    them again. A value: operators of equal inputs compare equal and hash
    alike, and no field can be set.

    The u-flux operators G and the p-flux operators H are assembled
    independently from their definitions (H is the directional operator with
    the complementary weight); the discrete duality H = -G^T, which makes the
    1D blocks symmetric, is a consequence checked by tests, not an assumption
    of the assembly.
    """

    mesh: SpatialMesh
    basis: BasisSpec
    fw: FluxWeights
    Kx: np.ndarray = field(init=False, repr=False, compare=False)
    Ky: np.ndarray = field(init=False, repr=False, compare=False)
    M: float = field(init=False, repr=False, compare=False)
    Qx: np.ndarray = field(init=False, repr=False, compare=False)
    lam_x: np.ndarray = field(init=False, repr=False, compare=False)
    Qy: np.ndarray = field(init=False, repr=False, compare=False)
    lam_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mesh, basis, fw = self.mesh, self.basis, self.fw
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
        for name, value in (("Kx", Kx), ("Ky", Ky), ("M", hx * hy / 4.0), ("Qx", Qx),
                            ("lam_x", lam_x), ("Qy", Qy), ("lam_y", lam_y)):
            object.__setattr__(self, name, value)

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

    def _diagonalized_solve(self, a0: float, b: np.ndarray) -> np.ndarray:
        B = b.reshape(len(self.lam_x), len(self.lam_y))
        denom = (a0 * self.M) + self.lam_x[:, None] + self.lam_y[None, :]
        return (self.Qx @ ((self.Qx.T @ B @ self.Qy) / denom) @ self.Qy.T).ravel()

    @np.errstate(over="ignore")  # an overflow ends in the finiteness checks below
    def solve_system(self, a0: float, b: np.ndarray) -> np.ndarray:
        """Solve (a0 * M * I + K) x = b by fast diagonalization. A relative
        residual above SOLVER_RTOL gets one step of iterative refinement; one
        still above 100 * SOLVER_RTOL, or a non-finite b or x, raises
        NumericError instead of propagating into the trajectory."""
        bnorm = _norm(b)
        if not math.isfinite(bnorm):
            raise NumericError(f"linear solve: right-hand side is not finite (|b| = {bnorm})")
        x = self._diagonalized_solve(a0, b)
        r = b - ((a0 * self.M) * x + self.apply_K(x))
        res = _norm(r)
        if res > SOLVER_RTOL * bnorm:
            # Eigenvalue rounding (~eps * max(lam)) is large against the
            # smallest denominators when a small a0 * M leaves near-null
            # modes of K ill-conditioned; one refinement step with the same
            # eigenpairs removes that error.
            x = x + self._diagonalized_solve(a0, r)
            r = (a0 * self.M) * x + self.apply_K(x) - b
            res = _norm(r)
        if not math.isfinite(res):
            raise NumericError(f"linear solve: solution is not finite (residual {res})")
        if bnorm > 0.0 and res > SOLVER_RTOL * bnorm * 100.0:
            raise NumericError(
                f"linear solve residual {res:.3e} exceeds {SOLVER_RTOL:.0e} * |b| = "
                f"{SOLVER_RTOL * bnorm:.3e}"
            )
        return x


def _norm(v: np.ndarray) -> float:
    """|v| as sqrt(v @ v), what np.linalg.norm computes for a 1-D float
    vector. Where v is finite but v @ v overflows (|v| > 1.3e154), v is
    scaled by max|v| first; solve_system ignores that overflow."""
    s = math.sqrt(v @ v)
    if s == math.inf and np.isfinite(v).all():
        m = float(np.max(np.abs(v)))
        s = m * math.sqrt((v / m) @ (v / m))
    return s


def step(
    ops: LdgOperators,
    n: int,
    prob: ProblemSpec,
    grid: VolumeGrid,
    history_grid: VolumeGrid,
    history: History,
) -> DgField:
    """Advance one time step: solve (A_0^n M I + K) U^n = -(hist, v) + (f(t_n), v).

    history holds u^0..u^{n-1}, tempered at the points of history_grid, and
    gives hist = sum(n), A_0^n = a0(n) and t_n from the time mesh of its
    kernel, so the step evaluates no weight and reads no other kernel;
    history_grid takes the moments (hist, v). The source is separable:
    grid takes its moments (f(t_n), v) from its two factors at the points
    of one axis each (VolumeGrid.separable_moments), so the step touches
    only the history grid and never the (k+3)^2 points of grid. The caller
    pushes u^n.
    """
    # The history part of D_M u moves to the right-hand side: this negation is
    # the single place the sign convention is applied.
    moments = history_grid.moments(-history.sum(n))
    if prob.f is not None:
        moments += grid.separable_moments(*prob.f(history.A.tm.t[n], grid.x, grid.y))
    moments *= ops.M
    x = ops.solve_system(history.a0(n), moments.ravel())
    return DgField(x.reshape(moments.shape), ops.basis, ops.mesh)


def footprint_bytes(mesh: SpatialMesh, M: int, basis: BasisSpec) -> int:
    """Bytes solve holds for a run of M steps, from the sizes alone. With N_h
    points per level on the history rule (basis.history_quad_points per
    axis), N_q on the source's rule (basis.default_quad_points) and N_dof
    coefficients, it counts:

    - the History (History.nbytes: the M + 1 tempered levels of N_h values
      and the memory-weight blocks of its panels) and kappa at its points;
    - the dense 1D blocks Kx, Ky and their eigenvectors;
    - the points and the weighted Vandermonde of both VolumeGrids;
    - the arrays in flight: three of N_q values (u0 at the points, with the
      temporaries of VolumeGrid.at and moments, once per run) and four of
      N_dof (the memory sum and its tempering factor, the right-hand side
      and the solution).

    What the problem's callables allocate beyond their result is left out.
    M is a step count (errors.check_count).
    """
    M = check_count(M, "M")
    kk = basis.k + 1
    cells = mesh.nx * mesh.ny
    n_h = cells * basis.history_quad_points**2
    n_q = cells * basis.default_quad_points**2
    n_dof = cells * kk**2
    blocks = 2 * ((mesh.nx * kk) ** 2 + (mesh.ny * kk) ** 2)
    grids = (mesh.nx + mesh.ny + kk) * (basis.history_quad_points + basis.default_quad_points)
    in_flight = 3 * n_q + 4 * n_dof
    return History.nbytes(M, n_h) + 8 * (n_h + blocks + grids + in_flight)


def solve(
    prob: ProblemSpec,
    mesh: SpatialMesh,
    tm: GradedTimeMesh,
    basis: BasisSpec,
    fw: FluxWeights,
    observe: Callable[[int, DgField], object],
) -> None:
    """Run the fully discrete scheme from t = 0 to t = T, calling
    observe(n, u^n) for n = 0..M in order.

    u^0 is the L2 projection of the initial condition; each subsequent field
    solves the step system with one LdgOperators(mesh, basis, fw). Two
    VolumeGrids, built once, hold the quadrature
    points and moment Vandermondes of every step: one on
    basis.default_quad_points for the projection of u0 and the source, one
    on basis.history_quad_points for the memory history, where kappa is
    evaluated once. Every level is evaluated at the history points and
    pushed once into a History, which holds it tempered and forms the memory
    sum of each step from it.

    solve keeps no field: the observer keeps what it needs, such as one
    error functional (analysis.FinalTimeError) or every level. Memory is
    O(M N_dof) for the History, whose levels have as many values as
    coefficients, plus O(N_q + N_dof) for the arrays in flight and whatever
    the observer keeps.

    Before it allocates anything, solve works out from (M, nx, ny, k) the
    bytes it will hold (footprint_bytes) and raises NumericError naming them
    when they exceed the physical memory (errors.require_memory). It raises
    InvalidArgumentError, from History, when kappa exceeds c_kappa or the
    tempering factors e^(+-kappa t) would leave the float64 range.
    """
    require_memory(footprint_bytes(mesh, tm.M, basis))
    ops = LdgOperators(mesh, basis, fw)
    grid = VolumeGrid.build(mesh, basis)
    history_grid = VolumeGrid.build(mesh, basis, gauss_rule(basis.history_quad_points))
    history = History(L1Kernel(prob.alpha, tm), history_grid.at(prob.kappa), prob.c_kappa)
    u_n = grid.project(prob.u0)
    observe(0, u_n)
    history.push(0, u_n.eval_volume_quad(history_grid.quad))
    for n in range(1, tm.M + 1):
        u_n = step(ops, n, prob, grid, history_grid, history)
        observe(n, u_n)
        history.push(n, u_n.eval_volume_quad(history_grid.quad))
