"""Orthonormal Legendre tensor-product basis, Gauss quadrature, and fields.

Basis functions on the reference cell [-1,1]^2 are products
Lhat_r(xi) * Lhat_s(eta) with Lhat_r = sqrt(r + 1/2) * P_r, so the cell mass
matrix is (hx*hy/4) * Identity on a physical cell. That scalar mass is what
makes the auxiliary-variable elimination in the LDG operator a cheap scaling
and keeps L2 norms a plain coefficient 2-norm.

Every volume term goes through a tensor Gauss rule per cell, held by a
VolumeGrid. The L2 projection of the initial condition, the source moments
of each step and the error norms take basis.default_quad_points points per
axis; the memory history is held, and its moments taken, at
basis.history_quad_points, the fewest points that hold a level exactly.

Cells are indexed 0-based: cell (i, j) spans [i/nx, (i+1)/nx] x
[j/ny, (j+1)/ny].

Every per-cell array has one layout, x before y: a coefficient tensor is
(nx, k+1, ny, k+1), entry (i, r, j, s), and values at the points of a
q-point rule are (nx, q, ny, q). That is the Kronecker order of the LDG
operator K = Kx (x) I + I (x) Ky, so a coefficient tensor flattened is the
solver's vector and nothing translates between layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvalidArgumentError, check_degree, check_integer, check_range
from .meshes import SpatialMesh

__all__ = [
    "BasisSpec",
    "QuadRule",
    "DgField",
    "gauss_rule",
    "legendre_values",
    "quad_vandermonde",
    "legendre_derivatives",
    "VolumeGrid",
]


@dataclass(frozen=True)
class BasisSpec:
    """Tensor-product polynomial space Q^k on each cell.

    k is the degree per axis, an integer in 0..8 (errors.check_degree), so
    a cell holds (k+1)^2 coefficients.
    """

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_degree(self.k))

    @property
    def default_quad_points(self) -> int:
        """Default Gauss points per axis: k+3 over-integrates the variational
        terms by two orders, enough for the non-polynomial initial condition,
        source and exact solution that the projection, the source moments
        and the error norms integrate."""
        return self.k + 3

    @property
    def history_quad_points(self) -> int:
        """Gauss points per axis of the memory history: k+1, so a stored level
        has exactly as many values as coefficients. The rule is exact through
        degree 2k+1 per axis, so for a constant kappa the memory term
        e^{-kappa (t_n - t_j)} u^j v, of degree 2k, is integrated exactly;
        for a variable kappa its positive weights keep the discrete memory
        term a positive weighted sum."""
        return self.k + 1


@dataclass(frozen=True)
class QuadRule:
    """1D Gauss-Legendre rule on [-1, 1]; exact through degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return self.nodes.size


def gauss_rule(npoints: int) -> QuadRule:
    """Gauss-Legendre rule with `npoints` nodes, an integer in 1..64. The
    argument is checked before the cache sees it, which would answer an
    unhashable one with a bare TypeError."""
    return _gauss_rule(
        check_range(npoints, "npoints", lambda n: 1 <= n <= 64, "must lie in 1..64", check_integer)
    )


@lru_cache(maxsize=None)
def _gauss_rule(npoints: int) -> QuadRule:
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


def _cell_products(B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """B X_c B^T for every cell c of X, shape (nx, a, ny, a) -> (nx, b, ny, b)
    with B of shape (b, a), X_c[r, s] = X[i, r, j, s].

    Each axis is one product on X reshaped, y first: (cells a, a) @ (a, b),
    then B @ (a, ny b) per x cell; per entry it is the same sum as the
    per-cell B @ (X_c @ B^T), in the same order. For b = 1 the x sum of a
    cell is a dot product, which numpy hands to BLAS ddot, and a
    matrix-vector product adds in another order, so it stays per cell.
    """
    nx, a, ny, _ = X.shape
    b = B.shape[0]
    Y = (X.reshape(-1, a) @ B.T).reshape(nx, a, ny * b)
    if b == 1:
        return (B @ np.ascontiguousarray(Y.transpose(0, 2, 1))[..., None]).reshape(nx, 1, ny, 1)
    return (B @ Y).reshape(nx, b, ny, b)


@dataclass
class DgField:
    """Piecewise Q^k function as a coefficient tensor of shape (nx, k+1, ny, k+1).

    Entry (i, r, j, s) multiplies Lhat_r(xi) * Lhat_s(eta) on cell (i, j).
    This is the Kronecker order of K = Kx (x) I + I (x) Ky, so coeffs.ravel()
    is the solver's vector.
    """

    coeffs: np.ndarray
    basis: BasisSpec
    mesh: SpatialMesh = field(repr=False)

    def __post_init__(self) -> None:
        kk = self.basis.k + 1
        expected = (self.mesh.nx, kk, self.mesh.ny, kk)
        if self.coeffs.shape != expected:
            raise InvalidArgumentError(
                f"coefficient tensor shape {self.coeffs.shape} does not match {expected}"
            )

    def eval_volume_quad(self, quad: QuadRule) -> np.ndarray:
        """Values at the tensor quadrature points of every cell, shape
        (nx, q, ny, q): V C V^T per cell (_cell_products)."""
        return _cell_products(quad_vandermonde(self.basis.k, quad.npoints), self.coeffs)


@dataclass(frozen=True)
class VolumeGrid:
    """The tensor Gauss rule of every volume term on a mesh, built once.

    x and y are the physical quadrature points shaped (nx, q, 1, 1) and
    (1, 1, ny, q), so a callable g(x, y) broadcasts to the (nx, q, ny, q)
    grid, point (i, a, j, b) at x-node a and y-node b of cell (i, j): the
    order (i, r, j, s) of the coefficients. WV[q, r] = w_q Lhat_r(x_q) is
    the weighted Vandermonde of the moments. A separable f = fx(x) fy(y)
    never needs that grid: separable_moments takes its moments from fx at
    x and fy at y. A run
    builds two grids: one on basis.default_quad_points for the L2
    projection of u0, the source moments (separable, on the points of one
    axis at a time) and the error norms, and one on
    basis.history_quad_points for the memory history and the moments of
    its sum.
    """

    mesh: SpatialMesh = field(repr=False)
    basis: BasisSpec
    quad: QuadRule = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    WV: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, mesh: SpatialMesh, basis: BasisSpec, quad: QuadRule | None = None) -> VolumeGrid:
        """The grid of quad, by default the rule of basis.default_quad_points."""
        if quad is None:
            quad = gauss_rule(basis.default_quad_points)
        return cls(
            mesh=mesh,
            basis=basis,
            quad=quad,
            x=(mesh.x_centers()[:, None] + 0.5 * mesh.hx * quad.nodes[None, :])[:, :, None, None],
            y=(mesh.y_centers()[:, None] + 0.5 * mesh.hy * quad.nodes[None, :])[None, None, :, :],
            WV=quad.weights[:, None] * quad_vandermonde(basis.k, quad.npoints),
        )

    def at(self, g) -> np.ndarray:
        """g(x, y) at every point, shape (nx, q, ny, q), however little g
        depends on; g must accept numpy arrays and broadcast."""
        return np.asarray(g(self.x, self.y)) * np.ones(np.broadcast(self.x, self.y).shape)

    def moments(self, values: np.ndarray) -> np.ndarray:
        """sum_q w_q g(x_q) Lhat_r Lhat_s per cell, shape (nx, k+1, ny, k+1),
        from the values g at the points, shape (nx, q, ny, q): WV^T G WV
        per cell (_cell_products)."""
        return _cell_products(self.WV.T, values)

    def separable_moments(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """Moments of the product fx(x) fy(y), from fx at the points x
        (shaped like x, (nx, q, 1, 1)) and fy at the points y (shaped like
        y, (1, 1, ny, q)): the outer product of the x-moments of fx and the
        y-moments of fy, shape (nx, k+1, ny, k+1). It costs O((nx + ny) q)
        values, and the (nx, q, ny, q) grid is never formed."""
        q = self.quad.npoints
        mx = np.reshape(fx, (self.mesh.nx, q)) @ self.WV
        my = np.reshape(fy, (self.mesh.ny, q)) @ self.WV
        return mx[:, :, None, None] * my[None, None, :, :]

    def project(self, g) -> DgField:
        """L2 projection of g(x, y) onto the Q^k space, per cell.

        With the orthonormal basis the coefficients are exactly the
        quadrature moments (the cell Jacobian cancels against the mass
        scalar).
        """
        return DgField(self.moments(self.at(g)), self.basis, self.mesh)

    def norm(self, values: np.ndarray) -> float:
        """L2 norm of a function given by its values at every point.

        The weights of the tensor rule over all cells are the Kronecker
        product of one weight vector per axis, so the weighted sum of
        squares is two matrix-vector products on the values reshaped to
        (i q, j q)."""
        w = self.quad.weights
        squares = (values**2).reshape(self.mesh.nx * w.size, -1)
        cell_jac = self.mesh.hx * self.mesh.hy / 4.0
        weighted = cell_jac * np.tile(w, self.mesh.nx) @ squares
        return float(np.sqrt(weighted @ np.tile(w, self.mesh.ny)))
