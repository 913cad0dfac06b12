"""Concrete problem instances for the tempered-memory diffusion equation.

Each instance bundles the physics of one test case: the fractional order,
the tempering field kappa with a certified bound, the initial condition,
the source, and (when available) the closed-form solution used to measure
errors. All field callables are vectorized over numpy arrays and periodic
on the unit square. The source is separable: it is given as the factor
pair (fx, fy) of f = fx(x) fy(y), so its moments are the outer product of
two one-dimensional ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_alpha, check_delta, check_range
from .fractional import mittag_leffler

__all__ = ["ProblemSpec", "example1", "example2"]

SpaceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
SeparableFn = Callable[[float, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ProblemSpec:
    """All physics of one test case.

    alpha lies in (0, 1) (errors.check_alpha). kappa is bounded by c_kappa,
    a finite real >= 0, in absolute value, which keeps the tempering
    factor e^{-kappa t} between fixed positive constants on the [0, T] of a
    run; both bounds are what the stability of the scheme rests on. Both
    numbers are checked and stored as floats however the spec is built,
    dataclasses.replace included. f and exact may be None (homogeneous
    source, or no closed form known).

    f(t, x, y) returns the factor pair (fx, fy) of a separable source
    f = fx * fy: fx depends on t and x alone and fy on y alone. Given the
    points x of shape (nx, q, 1, 1) and y of shape (1, 1, ny, q) of a
    basis.VolumeGrid, fx is shaped like x and fy like y, so a step takes
    the source moments from nx q + ny q values
    (VolumeGrid.separable_moments). Their product is the source at the
    points.
    """

    alpha: float
    kappa: SpaceFn
    c_kappa: float
    u0: SpaceFn
    f: SeparableFn | None
    exact: SpaceTimeFn | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "c_kappa", check_range(self.c_kappa, "c_kappa",
                                                        lambda c: c >= 0.0, "must be >= 0"))


def example1(alpha: float) -> ProblemSpec:
    """Homogeneous case with constant tempering kappa = -2.

    The separated closed form e^{2t} E_alpha(-8 pi^2 t^alpha) cos(2 pi x)
    sin(2 pi y) solves the equation with zero source, so every measured
    error is pure discretization error.
    """
    two_pi = 2.0 * math.pi
    lam = -8.0 * math.pi**2

    def kappa(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(np.broadcast(x, y).shape, -2.0)

    def u0(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.cos(two_pi * x) * np.sin(two_pi * y)

    def exact(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        amp = math.exp(2.0 * t) * mittag_leffler(alpha, lam * t**alpha)
        return amp * np.cos(two_pi * x) * np.sin(two_pi * y)

    return ProblemSpec(alpha=alpha, kappa=kappa, c_kappa=2.0, u0=u0, f=None, exact=exact)


def example2(alpha: float, delta: float | None = None) -> ProblemSpec:
    """Inhomogeneous case with variable tempering kappa(x) = cos(2 pi x).

    The source is manufactured so that e^{-t cos(2 pi x)} t^delta
    cos(2 pi x) sin(2 pi y) is exact; delta controls the temporal regularity
    near t = 0 (delta defaults to alpha, the hardest case the time mesh
    grading is designed for). Every term of the source carries sin(2 pi y)
    times a factor of t and x alone, so f returns the pair
    (X(t, x), sin(2 pi y)).

    alpha is checked first (errors.check_alpha), then delta (check_delta).
    With delta > 0 and alpha < 1, delta - alpha exceeds -1, so the memory
    term of the source is integrable.
    """
    alpha = check_alpha(alpha)
    delta = check_delta(alpha if delta is None else delta)
    two_pi = 2.0 * math.pi
    gamma_ratio = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - alpha)

    def kappa(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.cos(two_pi * x) * np.ones_like(np.asarray(y, dtype=float))

    def u0(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros(np.broadcast(x, y).shape)

    def exact(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = np.cos(two_pi * x)
        return np.exp(-t * c) * t**delta * c * np.sin(two_pi * y)

    def f(t: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # X = memory + (2 - t c) (g + h), each term without its sin(2 pi y).
        c = np.cos(two_pi * x)
        damp = np.exp(-t * c)
        X = 4.0 * math.pi**2 * t**delta * damp * c  # g
        X += 4.0 * math.pi**2 * t ** (delta + 1.0) * damp * np.sin(two_pi * x) ** 2  # h
        X *= 2.0 - t * c
        X += damp * gamma_ratio * t ** (delta - alpha) * c  # memory
        return X, np.sin(two_pi * y)

    return ProblemSpec(alpha=alpha, kappa=kappa, c_kappa=1.0, u0=u0, f=f, exact=exact)
