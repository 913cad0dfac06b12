"""Orthonormal Legendre tensor-product basis, Gauss quadrature, and fields.

Basis functions on the reference cell [-1,1]^2 are products
Lhat_r(xi) * Lhat_s(eta) with Lhat_r = sqrt(r + 1/2) * P_r, so the cell mass
matrix is (hx*hy/4) * Identity on a physical cell. That scalar mass is what
makes the auxiliary-variable elimination in the LDG operator a cheap scaling
and keeps L2 norms a plain coefficient 2-norm.

Cells are indexed 0-based: cell (i, j) spans [x_edges[i], x_edges[i+1]] x
[y_edges[j], y_edges[j+1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvalidArgumentError
from .meshes import SpatialMesh

__all__ = [
    "BasisSpec",
    "QuadRule",
    "DgField",
    "gauss_rule",
    "legendre_values",
    "quad_vandermonde",
    "legendre_derivatives",
    "field_eval",
    "l2_project",
]


@dataclass(frozen=True)
class BasisSpec:
    """Tensor-product polynomial space Q^k on each cell.

    k is the degree per axis; dofs_per_cell = (k+1)^2.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise InvalidArgumentError(f"polynomial degree must be >= 0, got {self.k}")

    @property
    def dofs_per_cell(self) -> int:
        return (self.k + 1) ** 2

    @property
    def default_quad_points(self) -> int:
        """Default Gauss points per axis: k+3 over-integrates the variational
        terms by two orders, enough for the exponential-weight integrands."""
        return self.k + 3


@dataclass(frozen=True)
class QuadRule:
    """1D Gauss-Legendre rule on [-1, 1]; exact through degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def gauss_rule(npoints: int) -> QuadRule:
    """Gauss-Legendre rule with `npoints` nodes, 1 <= npoints <= 64."""
    if not 1 <= npoints <= 64:
        raise InvalidArgumentError(f"npoints must be in [1, 64], got {npoints}")
    nodes, weights = npleg.leggauss(npoints)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(nodes=nodes, weights=weights)


def legendre_values(k: int, x: np.ndarray) -> np.ndarray:
    """Matrix V with V[q, r] = Lhat_r(x[q]) for r = 0..k."""
    x = np.asarray(x, dtype=float)
    scale = np.sqrt(np.arange(k + 1) + 0.5)
    return npleg.legvander(x, k) * scale


@lru_cache(maxsize=None)
def quad_vandermonde(k: int, npoints: int) -> np.ndarray:
    """legendre_values(k, gauss_rule(npoints).nodes), built once per (k, npoints)
    and read-only, since every caller shares it."""
    V = legendre_values(k, gauss_rule(npoints).nodes)
    V.setflags(write=False)
    return V


def legendre_derivatives(k: int, x: np.ndarray) -> np.ndarray:
    """Matrix D with D[q, r] = Lhat_r'(x[q]) (derivative in the reference coordinate)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, k + 1))
    for r in range(k + 1):
        coef = np.zeros(r + 1)
        coef[r] = np.sqrt(r + 0.5)
        out[:, r] = npleg.legval(x, npleg.legder(coef)) if r > 0 else 0.0
    return out


def edge_values(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Trace vectors (e_minus, e_plus) with e_minus[r] = Lhat_r(-1), e_plus[r] = Lhat_r(+1)."""
    r = np.arange(k + 1)
    e_plus = np.sqrt(r + 0.5)
    e_minus = e_plus * np.where(r % 2 == 0, 1.0, -1.0)
    return e_minus, e_plus


@dataclass
class DgField:
    """Piecewise Q^k function as a coefficient tensor of shape (nx, ny, k+1, k+1).

    Entry (i, j, r, s) multiplies Lhat_r(xi) * Lhat_s(eta) on cell (i, j).
    """

    coeffs: np.ndarray
    basis: BasisSpec
    mesh: SpatialMesh = field(repr=False)

    def __post_init__(self) -> None:
        kk = self.basis.k + 1
        expected = (self.mesh.nx, self.mesh.ny, kk, kk)
        if self.coeffs.shape != expected:
            raise InvalidArgumentError(
                f"coefficient tensor shape {self.coeffs.shape} does not match {expected}"
            )

    @classmethod
    def zeros(cls, mesh: SpatialMesh, basis: BasisSpec) -> "DgField":
        kk = basis.k + 1
        return cls(np.zeros((mesh.nx, mesh.ny, kk, kk)), basis, mesh)

    def copy(self) -> "DgField":
        return DgField(self.coeffs.copy(), self.basis, self.mesh)

    def __add__(self, other: "DgField") -> "DgField":
        return DgField(self.coeffs + other.coeffs, self.basis, self.mesh)

    def __sub__(self, other: "DgField") -> "DgField":
        return DgField(self.coeffs - other.coeffs, self.basis, self.mesh)

    def __mul__(self, scalar: float) -> "DgField":
        return DgField(self.coeffs * scalar, self.basis, self.mesh)

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        """Global L2 norm; exact because the basis is orthonormal per cell."""
        m = self.mesh.hx * self.mesh.hy / 4.0
        return float(np.sqrt(m * np.sum(self.coeffs**2)))

    def eval_volume_quad(self, quad: QuadRule) -> np.ndarray:
        """Values at the tensor quadrature points of every cell, shape (nx, ny, qx, qy)."""
        V = quad_vandermonde(self.basis.k, quad.npoints)
        return V @ (self.coeffs @ V.T)


def _locate(coord: np.ndarray, lo: float, hi: float, n: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices and reference coordinates for points along one axis.

    `side` picks the cell when a point sits exactly on an interface: '-' takes
    the cell to the left (trace from below), '+' the cell to the right.
    """
    if side not in ("-", "+"):
        raise InvalidArgumentError(f"side must be '-' or '+', got {side!r}")
    u = (np.asarray(coord, dtype=float) - lo) / (hi - lo) * n
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
    x_lo, x_hi, y_lo, y_hi = mesh.domain
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    i, xi = _locate(xb.ravel(), x_lo, x_hi, mesh.nx, side_x)
    j, eta = _locate(yb.ravel(), y_lo, y_hi, mesh.ny, side_y)
    Vx = legendre_values(k, xi)
    Vy = legendre_values(k, eta)
    vals = np.einsum("nrs,nr,ns->n", f.coeffs[i, j], Vx, Vy)
    if np.isscalar(x) and np.isscalar(y):
        return float(vals[0])
    return vals.reshape(xb.shape)


def volume_quad_points(mesh: SpatialMesh, quad: QuadRule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points per axis: X of shape (nx, q), Y of shape (ny, q)."""
    X = mesh.x_centers()[:, None] + 0.5 * mesh.hx * quad.nodes[None, :]
    Y = mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :]
    return X, Y


def eval_on_grid(g, mesh: SpatialMesh, quad: QuadRule) -> np.ndarray:
    """Evaluate g(x, y) at all volume quadrature points, shape (nx, ny, qx, qy).

    g must accept numpy arrays and broadcast.
    """
    X, Y = volume_quad_points(mesh, quad)
    return np.asarray(g(X[:, None, :, None], Y[None, :, None, :])) * np.ones(
        (mesh.nx, mesh.ny, quad.npoints, quad.npoints)
    )


def l2_project(g, mesh: SpatialMesh, basis: BasisSpec, quad: QuadRule | None = None) -> DgField:
    """L2 projection of g(x, y) onto the Q^k space, per cell.

    With the orthonormal basis the coefficients are exactly the quadrature
    moments sum_q w_q g(x_q) Lhat_r Lhat_s (the cell Jacobian cancels against
    the mass scalar).
    """
    if quad is None:
        quad = gauss_rule(basis.default_quad_points)
    G = eval_on_grid(g, mesh, quad)
    WV = quad.weights[:, None] * quad_vandermonde(basis.k, quad.npoints)
    coeffs = np.einsum("ijqp,qr,ps->ijrs", G, WV, WV, optimize=True)
    return DgField(coeffs, basis, mesh)


def quad_l2_norm(values: np.ndarray, mesh: SpatialMesh, quad: QuadRule) -> float:
    """L2 norm of a function given by its values at all volume quadrature points."""
    w2 = quad.weights[:, None] * quad.weights[None, :]
    cell_jac = mesh.hx * mesh.hy / 4.0
    return float(np.sqrt(cell_jac * np.einsum("ijqp,qp->", values**2, w2)))
