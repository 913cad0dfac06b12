"""Periodic spatial meshes of the unit square and graded temporal meshes.

The spatial mesh is the uniform nx-by-ny tensor grid of the unit square
with periodic topology in both axes, the one domain on which the problems
are posed; it is its two cell counts, from which every coordinate follows.
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
    """Uniform periodic tessellation of the unit square into nx-by-ny cells.

    A value: meshes with equal cell counts compare equal and hash alike.
    Edges, centers and widths are computed from nx and ny on demand.
    """

    nx: int
    ny: int

    @property
    def hx(self) -> float:
        """Cell width in x (mesh is uniform)."""
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        """Cell width in y (mesh is uniform)."""
        return 1.0 / self.ny

    @property
    def x_edges(self) -> np.ndarray:
        """Edge coordinates i / nx for i = 0..nx."""
        return np.arange(self.nx + 1) / self.nx

    @property
    def y_edges(self) -> np.ndarray:
        """Edge coordinates j / ny for j = 0..ny."""
        return np.arange(self.ny + 1) / self.ny

    def x_centers(self) -> np.ndarray:
        e = self.x_edges
        return 0.5 * (e[:-1] + e[1:])

    def y_centers(self) -> np.ndarray:
        e = self.y_edges
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class GradedTimeMesh:
    """Temporal mesh t_n = (n/M)^gamma * T, n = 0..M, with step sizes
    tau_n = t_{n+1} - t_n. It holds the points, not the exponent gamma
    that placed them.

    gamma = 1 reproduces the uniform mesh (to a few ulps of n*T/M).
    """

    M: int
    T: float
    t: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)


def _count(name: str, value) -> int:
    """value as an int >= 1; a bool, a float or any other non-integer is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidArgumentError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def build_spatial_mesh(nx: int, ny: int) -> SpatialMesh:
    """Construct the uniform periodic nx-by-ny mesh of the unit square; the
    cell counts nx and ny are integers >= 1."""
    return SpatialMesh(nx=_count("nx", nx), ny=_count("ny", ny))


def build_graded_time_mesh(M: int, gamma: float, T: float) -> GradedTimeMesh:
    """Construct the graded mesh t_n = (n/M)^gamma * T for n = 0..M.

    gamma < 1 is rejected: grading must be at least uniform. Points are
    computed as T*exp(gamma*log(n/M)) with the n = 0 endpoint pinned to 0,
    avoiding pow() domain quirks at the origin.
    """
    M = _count("M", M)
    if not 1.0 <= gamma < np.inf:
        raise InvalidArgumentError(f"grading exponent must be finite and >= 1, got {gamma}")
    if not 0.0 < T < np.inf:
        raise InvalidArgumentError(f"final time must be finite and positive, got {T}")
    t = np.empty(M + 1)
    t[0] = 0.0
    n = np.arange(1, M + 1, dtype=float)
    t[1:] = T * np.exp(gamma * np.log(n / M))
    t[M] = T
    tau = np.diff(t)
    if not (tau > 0).all():  # t_1 = T (1/M)^gamma underflows to 0, e.g. at M 1000, gamma 200
        raise InvalidArgumentError("nonpositive time step produced; check (M, gamma, T)")
    return GradedTimeMesh(M=M, T=float(T), t=t, tau=tau)
