"""Solver and experiment harness for a tempered-memory diffusion equation.

The equation couples a Caputo-type fractional time derivative, tempered by
a bounded spatial field, with Laplacian diffusion on a periodic square. The
package discretizes it with a tensor-product discontinuous Galerkin method
using weighted-average interface fluxes in space and a piecewise-linear
quadrature of the memory integral on graded time meshes, and ships the
convergence/conditioning studies as CLI presets.

Every public name is imported from its submodule (meshes, basis,
fractional, ldg, problems, analysis, svgplot, cli, errors), whose __all__
lists it. The package itself imports nothing, so the CLI can pin the
threading environment variables before any linear-algebra backend loads.
"""

__version__ = "1.0.0"
