"""Exception types, and the argument checks that raise them, shared across
the package.

Each admissible range of the scheme has one owner here, which the library
constructors and the CLI's config reader both call: check_alpha (the
fractional order, in (0, 1)), check_delta (the regularity exponent, in
(0, 1) or (1, 2)), check_gamma (the grading exponent, >= 1), check_T (the
final time, > 0), check_count (a cell or step count, an integer >= 1),
check_degree (the degree k of Q^k, an integer in 0..8) and check_sigma (a
flux weight, in [0, 1]). Every owner sits on one of two type checks,
check_real and check_integer, through check_range. A check takes the name
its message opens with: the library passes the parameter's name, the CLI
the key path of the config entry, so both say the same words.

The memory check has one owner too: require_memory refuses, with
NumericError, a size that exceeds the physical memory
(physical_memory_bytes). solve and the CLI call it with ldg.footprint_bytes
before they allocate, and GradedTimeMesh with its points.

Nothing here imports numpy: numpy's scalar types register with the
numbers ABCs themselves, so importing the CLI still loads no numpy.
"""

from __future__ import annotations

import math
import numbers
import os


class FracLdgError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(FracLdgError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(FracLdgError, RuntimeError):
    """A numerical procedure failed to converge or produced an unusable
    result; the message carries diagnostics (residuals, iteration counts)."""


class ConfigError(FracLdgError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


def check_real(value, name: str) -> float:
    """value as a finite float. A bool, None, a str or any other
    non-number is refused, and so are nan and +-inf; numpy's floats and
    integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name}: expected a number, got {value!r}")
    try:
        f = float(value)
    except OverflowError:  # an int past the float range
        f = math.inf
    if not math.isfinite(f):
        raise InvalidArgumentError(f"{name}: expected a finite number, got {value!r}")
    return f


def check_integer(value, name: str) -> int:
    """value as an int. A numpy integer is accepted; a bool, a float (an
    integral one too) or a non-number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        check_real(value, name)  # names a non-number or a non-finite one first
        raise InvalidArgumentError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def check_range(value, name: str, ok, want: str, check=check_real):
    """value read by check (check_real or check_integer), refused unless
    ok(value) holds; want words the range, as in "must be >= 1"."""
    v = check(value, name)
    if not ok(v):
        raise InvalidArgumentError(f"{name} {want}, got {v}")
    return v


def check_alpha(value, name: str = "alpha") -> float:
    """The fractional order alpha, a finite real in (0, 1)."""
    return check_range(value, name, lambda a: 0.0 < a < 1.0,
                       "must lie in the admissible range (0, 1)")


def check_delta(value, name: str = "delta") -> float:
    """The temporal regularity exponent delta of example2, in (0, 1) or (1, 2)."""
    return check_range(value, name, lambda d: 0.0 < d < 2.0 and d != 1.0,
                       "must lie in the admissible range (0,1) or (1,2)")


def check_gamma(value, name: str = "gamma") -> float:
    """The time mesh's grading exponent gamma, >= 1: at least uniform."""
    return check_range(value, name, lambda g: g >= 1.0, "must be >= 1")


def check_T(value, name: str = "T") -> float:
    """The final time T, a finite real > 0."""
    return check_range(value, name, lambda t: t > 0.0, "must be positive")


def check_count(value, name: str) -> int:
    """A cell or step count (nx, ny, M), an integer >= 1."""
    return check_range(value, name, lambda n: n >= 1, "must be >= 1", check_integer)


def check_degree(value, name: str = "k") -> int:
    """The polynomial degree k per axis of Q^k, an integer in 0..8."""
    return check_range(value, name, lambda k: 0 <= k <= 8, "must lie in 0..8", check_integer)


def check_sigma(value, name: str = "sigma") -> float:
    """A weight of the weighted-average interface flux, in [0, 1]."""
    return check_range(value, name, lambda s: 0.0 <= s <= 1.0, "must lie in [0, 1]")


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


def require_memory(need: int, what: str = "its history and operators") -> None:
    """Raise NumericError naming need when a run that holds need bytes for
    what (ldg.footprint_bytes, or a time mesh's points) would exceed the
    physical memory (physical_memory_bytes); where the platform reports
    none, refuse nothing."""
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        # A config's sizes are any finite floats: need may exceed a float.
        gib = need / 2**30 if need.bit_length() < 1000 else math.inf
        raise NumericError(
            f"the run needs {need} bytes ({gib:.3g} GiB) for {what}, "
            f"more than the {limit} bytes of physical memory"
        )
