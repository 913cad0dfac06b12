"""Periodic rectangular spatial meshes and graded temporal meshes.

The spatial mesh is a uniform tensor grid on a rectangle with periodic
topology in both axes; per-cell extents are stored so quasi-uniform meshes
stay representable even though only uniform ones are constructed here.
The temporal mesh concentrates points near t = 0 via the grading
t_n = (n/M)^gamma * T, which is what resolves weak initial singularities
of fractional evolution problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["SpatialMesh", "GradedTimeMesh", "build_spatial_mesh", "build_graded_time_mesh"]


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform periodic tessellation of a rectangle into nx-by-ny cells.

    Attributes
    ----------
    nx, ny : int
        Cell counts per axis.
    x_edges, y_edges : ndarray
        Sorted edge coordinates, lengths nx+1 and ny+1.
    domain : tuple of float
        (x_lo, x_hi, y_lo, y_hi).
    """

    nx: int
    ny: int
    x_edges: np.ndarray
    y_edges: np.ndarray
    domain: tuple[float, float, float, float]

    @property
    def hx(self) -> float:
        """Cell width in x (mesh is uniform)."""
        return (self.domain[1] - self.domain[0]) / self.nx

    @property
    def hy(self) -> float:
        """Cell width in y (mesh is uniform)."""
        return (self.domain[3] - self.domain[2]) / self.ny

    def x_centers(self) -> np.ndarray:
        return 0.5 * (self.x_edges[:-1] + self.x_edges[1:])

    def y_centers(self) -> np.ndarray:
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])


@dataclass(frozen=True)
class GradedTimeMesh:
    """Temporal mesh t_n = (n/M)^gamma * T with step sizes tau_n.

    gamma = 1 reproduces the uniform mesh (to a few ulps of n*T/M).
    """

    M: int
    gamma: float
    T: float
    t: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)


def build_spatial_mesh(
    nx: int, ny: int, domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
) -> SpatialMesh:
    """Construct a uniform periodic mesh of the rectangle `domain`.

    Parameters
    ----------
    nx, ny : int
        Positive cell counts.
    domain : tuple
        (x_lo, x_hi, y_lo, y_hi) with positive extents.
    """
    if nx < 1 or ny < 1:
        raise InvalidArgumentError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    x_lo, x_hi, y_lo, y_hi = map(float, domain)
    if not (x_hi > x_lo and y_hi > y_lo):
        raise InvalidArgumentError(f"degenerate domain {domain}")
    x_edges = x_lo + (x_hi - x_lo) * np.arange(nx + 1) / nx
    y_edges = y_lo + (y_hi - y_lo) * np.arange(ny + 1) / ny
    x_edges[-1] = x_hi
    y_edges[-1] = y_hi
    return SpatialMesh(nx=nx, ny=ny, x_edges=x_edges, y_edges=y_edges, domain=(x_lo, x_hi, y_lo, y_hi))


def build_graded_time_mesh(M: int, gamma: float, T: float) -> GradedTimeMesh:
    """Construct the graded mesh t_n = (n/M)^gamma * T for n = 0..M.

    gamma < 1 is rejected: grading must be at least uniform. Points are
    computed as T*exp(gamma*log(n/M)) with the n = 0 endpoint pinned to 0,
    avoiding pow() domain quirks at the origin.
    """
    if M < 1:
        raise InvalidArgumentError(f"M must be >= 1, got {M}")
    if not gamma >= 1.0:
        raise InvalidArgumentError(f"grading exponent must satisfy gamma >= 1, got {gamma}")
    if not T > 0.0:
        raise InvalidArgumentError(f"final time must be positive, got {T}")
    t = np.empty(M + 1)
    t[0] = 0.0
    n = np.arange(1, M + 1, dtype=float)
    t[1:] = T * np.exp(gamma * np.log(n / M))
    t[M] = T
    tau = np.diff(t)
    if not (tau > 0).all():  # t_1 = T (1/M)^gamma underflows to 0, e.g. at M 1000, gamma 200
        raise InvalidArgumentError("nonpositive time step produced; check (M, gamma, T)")
    return GradedTimeMesh(M=M, gamma=float(gamma), T=float(T), t=t, tau=tau)
