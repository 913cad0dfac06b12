"""The shipped package is numpy + PyYAML only, and its exports resolve.

The runtime-import guard runs the CLI in a fresh interpreter and checks that
importing it loads neither numpy nor scipy, so the CLI can still pin the
thread count, and that the run loads neither scipy nor mpmath; the AST audit
checks the latter statically
for every module, with the sparse K of LdgOperators as the single on-demand
exception, and checks that every name a module imports is used or exported.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracldg
from fracldg.basis import BasisSpec
from fracldg.ldg import FluxWeights, assemble_operators
from fracldg.meshes import build_spatial_mesh

PACKAGE_DIR = Path(fracldg.__file__).resolve().parent
REPO = PACKAGE_DIR.parents[1]
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
#: Attributes the import system gives every package.
MODULE_ATTRIBUTES = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
}

#: Proof devices and oracles that live in tests/oracles.py only.
MOVED = (
    "ConvKernel",
    "convolution_kernel",
    "bilinear_form_B",
    "project_P",
    "project_Q",
    "edge_trace",
    "field_eval",
    "mittag_leffler_series",
)

#: Names of the stored-trajectory mode of solve, removed with it, of the
#: memory-sum functions that fracldg.fractional.History replaced, of the
#: volume-quadrature helpers that fracldg.basis.VolumeGrid replaced, of the
#: power iteration the exact condition number replaced, of the
#: positive-argument Mittag-Leffler series no run evaluated, of the second
#: L1Kernel constructor, of the contour's public alias, of the package's
#: lazy re-export table, and of the time-integrated error functional that no
#: run measured.
REMOVED = (
    "Trajectory",
    "error_E",
    "error_time_integrated",
    "substantial_history",
    "history_panel",
    "StepGrid",
    "_moment_vector",
    "eval_on_grid",
    "l2_project",
    "quad_l2_norm",
    "volume_quad_points",
    "_power_lambda_max",
    "_mittag_leffler_positive",
    "ML_MAX_TERMS",
    "l1_coefficients",
    "mittag_leffler_contour",
    "_LAZY",
    "TimeIntegratedError",
    "_LevelError",
)

_CHILD = (
    "import sys\n"
    "def loaded(*packages):\n"
    "    return sorted(m for m in sys.modules if m.split('.')[0] in packages)\n"
    "from fracldg.cli import main\n"
    "early = loaded('numpy', 'scipy')\n"
    "rc = main(sys.argv[1:])\n"
    "heavy = loaded('scipy', 'mpmath')\n"
    "print(rc, len(early), len(heavy), ' '.join(early[:5] + heavy[:5]))\n"
)


@pytest.mark.parametrize(
    "config",
    ["table6-row1", str(REPO / "perfbench" / "configs" / "long-memory.yaml")],
    ids=["table6-row1", "long-memory"],
)
def test_cli_run_loads_neither_scipy_nor_mpmath(tmp_path, config):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "run", "--config", config,
         "--out", str(tmp_path), "--check", "--deterministic"],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, early, heavy, *names = proc.stdout.splitlines()[-1].split()
    assert rc == "0"
    assert early == "0", names  # main can still pin the thread count
    assert heavy == "0", names


def _third_party_imports(path: Path) -> list[tuple[str, str]]:
    """(enclosing class/function path, module) of every absolute import in
    path whose top-level package is outside the standard library."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                visit(child, scope)
                continue
            for module in modules:
                if module.split(".")[0] not in sys.stdlib_module_names:
                    found.append((".".join(scope), module))

    visit(ast.parse(path.read_text()), ())
    return found


def test_modules_import_only_numpy_and_yaml():
    exceptions = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for scope, module in _third_party_imports(path):
            if module.split(".")[0] not in ("numpy", "yaml"):
                exceptions.append((path.name, scope, module))
    assert exceptions == [("ldg.py", "LdgOperators.K", "scipy.sparse")]


def _unused_imports(path: Path) -> list[str]:
    """Names an import in path binds that the module never reads and does not
    list in its __all__; `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text())
    bound, exported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def test_sparse_K_builds_on_demand():
    ops = assemble_operators(build_spatial_mesh(3, 2), BasisSpec(1), FluxWeights(1.0, 0.0))
    assert "K" not in vars(ops)
    K = ops.K
    assert K.format == "csr" and K.shape == (ops.ndof, ops.ndof)
    assert ops.K is K
    x = np.random.default_rng(3).standard_normal(ops.ndof)
    np.testing.assert_allclose(K @ x, ops.apply_K(x), rtol=0.0, atol=1e-12 * np.max(np.abs(K @ x)))


def test_package_exports_resolve():
    # The package defines its version and nothing else: every public name is
    # imported from its submodule, whose __all__ lists it.
    own = set(vars(fracldg)) - MODULE_ATTRIBUTES - set(SUBMODULES)
    assert own == {"__version__"}


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"fracldg.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"fracldg.{module}.{name}"
    assert not set(MOVED) & set(getattr(mod, "__all__", ())), module


@pytest.mark.parametrize("name", MOVED)
def test_moved_names_are_not_exported(name):
    with pytest.raises(AttributeError):
        getattr(fracldg, name)
    assert name not in dir(fracldg)
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"fracldg.{module}"), name), module


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(fracldg, name)
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"fracldg.{module}"), name), module


#: Members removed from the package's dataclasses: the row of L1
#: coefficients, which only the tests read (oracles.l1_row), and the grading
#: exponent that nothing read off a time mesh. SpatialMesh's fields are
#: checked in test_meshes.
REMOVED_MEMBERS = (
    ("fractional", "L1Kernel", "row"),
    ("meshes", "GradedTimeMesh", "gamma"),
)


@pytest.mark.parametrize("module,cls,name", REMOVED_MEMBERS)
def test_removed_members_are_gone(module, cls, name):
    owner = getattr(importlib.import_module(f"fracldg.{module}"), cls)
    assert not hasattr(owner, name)
    assert name not in {f.name for f in dataclasses.fields(owner)}
