"""Solver and experiment harness for a tempered-memory diffusion equation.

The equation couples a Caputo-type fractional time derivative, tempered by
a bounded spatial field, with Laplacian diffusion on a periodic square. The
package discretizes it with a tensor-product discontinuous Galerkin method
using weighted-average interface fluxes in space and a piecewise-linear
quadrature of the memory integral on graded time meshes, and ships the
convergence/conditioning studies as CLI presets.

Submodules load lazily so the CLI can pin threading environment variables
before any linear-algebra backend is imported.
"""

from __future__ import annotations

import importlib

from .errors import ConfigError, FracLdgError, InvalidArgumentError, NumericError

__version__ = "1.0.0"

_LAZY = {
    # meshes
    "SpatialMesh": "meshes",
    "GradedTimeMesh": "meshes",
    "build_spatial_mesh": "meshes",
    "build_graded_time_mesh": "meshes",
    # basis
    "BasisSpec": "basis",
    "QuadRule": "basis",
    "DgField": "basis",
    "gauss_rule": "basis",
    "VolumeGrid": "basis",
    # fractional
    "L1Kernel": "fractional",
    "l1_coefficients": "fractional",
    "mittag_leffler": "fractional",
    "History": "fractional",
    # ldg
    "FluxWeights": "ldg",
    "LdgOperators": "ldg",
    "assemble_operators": "ldg",
    "step": "ldg",
    "solve": "ldg",
    # problems
    "ProblemSpec": "problems",
    "example1": "problems",
    "example2": "problems",
    # analysis
    "ErrorReport": "analysis",
    "FinalTimeError": "analysis",
    "TimeIntegratedError": "analysis",
    "rates": "analysis",
    "condition_number": "analysis",
    # plotting / cli
    "write_loglog_svg": "svgplot",
    "ExperimentConfig": "cli",
    "load_config": "cli",
    "main": "cli",
}

__all__ = [
    "ConfigError",
    "FracLdgError",
    "InvalidArgumentError",
    "NumericError",
    "__version__",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
