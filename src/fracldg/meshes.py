"""Periodic spatial meshes of the unit square and graded temporal meshes.

The spatial mesh is the uniform nx-by-ny tensor grid of the unit square
with periodic topology in both axes, the one domain on which the problems
are posed; it is its two cell counts, from which every coordinate follows.
The temporal mesh concentrates points near t = 0 via the grading
t_n = (n/M)^gamma * T, which is what resolves weak initial singularities
of fractional evolution problems.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidArgumentError, check_count, check_gamma, check_T, require_memory

__all__ = ["SpatialMesh", "GradedTimeMesh"]


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform periodic tessellation of the unit square into nx-by-ny cells.

    A value: meshes with equal cell counts compare equal and hash alike.
    Centers and widths are computed from nx and ny on demand. Each count is
    an integer >= 1 (errors.check_count), however the mesh is built.
    """

    nx: int
    ny: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nx", check_count(self.nx, "nx"))
        object.__setattr__(self, "ny", check_count(self.ny, "ny"))

    @property
    def hx(self) -> float:
        """Cell width in x (mesh is uniform)."""
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        """Cell width in y (mesh is uniform)."""
        return 1.0 / self.ny

    def x_centers(self) -> np.ndarray:
        return _centers(self.nx)

    def y_centers(self) -> np.ndarray:
        return _centers(self.ny)


def _centers(n: int) -> np.ndarray:
    """Midpoints of the cells between the edges i / n, i = 0..n."""
    e = np.arange(n + 1) / n
    return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class GradedTimeMesh:
    """Temporal mesh t_n = (n/M)^gamma * T, n = 0..M, with step sizes
    tau_n = t_{n+1} - t_n. M, gamma and T fix every point, so the mesh
    derives its points and takes none. gamma is an init-only argument that
    dataclasses.replace must be given again; the mesh keeps it only in a
    private field, so that it is a value: meshes of equal (M, T, gamma)
    compare equal and hash alike, and the points are never compared.

    M is a count (errors.check_count), gamma >= 1 (check_gamma: grading is
    at least uniform) and T > 0 (check_T). Points are
    computed as T*exp(gamma*log(n/M)) with the n = 0 endpoint pinned to 0,
    avoiding pow() domain quirks at the origin. gamma = 1 reproduces the
    uniform mesh (to a few ulps of n*T/M).

    Before it allocates them, the M + 1 points are sized: the build holds
    four arrays of M + 1 values at once (the points, the steps n / M and two
    temporaries), and errors.require_memory raises NumericError naming the
    time mesh when they exceed the physical memory.
    """

    M: int
    gamma: InitVar[float]
    T: float
    _gamma: float = field(init=False, repr=False)
    t: np.ndarray = field(init=False, repr=False, compare=False)
    tau: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, gamma: float) -> None:
        M, gamma, T = check_count(self.M, "M"), check_gamma(gamma), check_T(self.T)
        require_memory(32 * (M + 1), "its time mesh")
        t = np.empty(M + 1)
        t[0] = 0.0
        n = np.arange(1, M + 1, dtype=float)
        t[1:] = T * np.exp(gamma * np.log(n / M))
        t[M] = T
        tau = np.diff(t)
        if not (tau > 0).all():  # t_1 = T (1/M)^gamma underflows to 0, e.g. at M 1000, gamma 200
            raise InvalidArgumentError("nonpositive time step produced; check (M, gamma, T)")
        for name, value in (("M", M), ("T", T), ("_gamma", gamma), ("t", t), ("tau", tau)):
            object.__setattr__(self, name, value)
