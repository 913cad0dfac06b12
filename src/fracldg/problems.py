"""Concrete problem instances for the tempered-memory diffusion equation.

Each instance bundles the physics of one test case: the fractional order,
the tempering field kappa with a certified bound, the initial condition,
the source, and (when available) the closed-form solution used to measure
errors. All field callables are vectorized over numpy arrays and periodic
on the unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .fractional import mittag_leffler

__all__ = ["ProblemSpec", "example1", "example2"]

SpaceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """All physics of one test case.

    kappa is bounded by c_kappa in absolute value, which keeps the tempering
    factor e^{-kappa t} between fixed positive constants on the [0, T] of a
    run; both bounds are what the stability of the scheme rests on. f and
    exact may be None (homogeneous source, or no closed form known).
    """

    alpha: float
    kappa: SpaceFn
    c_kappa: float
    u0: SpaceFn
    f: SpaceTimeFn | None
    exact: SpaceTimeFn | None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InvalidArgumentError(f"alpha must lie in (0, 1), got {self.alpha}")


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
    grading is designed for).
    """
    if delta is None:
        delta = alpha
    if not (0.0 < delta < 2.0) or delta == 1.0:
        raise InvalidArgumentError(f"delta must lie in (0,1) or (1,2), got {delta}")
    if delta - alpha <= -1.0:
        raise InvalidArgumentError(
            f"delta - alpha must exceed -1 for an integrable memory term, got {delta - alpha}"
        )
    two_pi = 2.0 * math.pi
    gamma_ratio = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - alpha)

    def kappa(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.cos(two_pi * x) * np.ones_like(np.asarray(y, dtype=float))

    def u0(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros(np.broadcast(x, y).shape)

    def exact(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = np.cos(two_pi * x)
        return np.exp(-t * c) * t**delta * c * np.sin(two_pi * y)

    def f(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # memory + (2 - t c) (g + h), built in its result in that order of
        # operations: the bits are the same, and at most two arrays of the
        # result's size are held.
        c = np.cos(two_pi * x)
        s = np.sin(two_pi * y)
        damp = np.exp(-t * c)
        out = 4.0 * math.pi**2 * t**delta * damp * c * s  # g
        out += 4.0 * math.pi**2 * t ** (delta + 1.0) * damp * np.sin(two_pi * x) ** 2 * s  # h
        out *= 2.0 - t * c
        out += damp * gamma_ratio * t ** (delta - alpha) * c * s  # memory
        return out

    return ProblemSpec(alpha=alpha, kappa=kappa, c_kappa=1.0, u0=u0, f=f, exact=exact)
