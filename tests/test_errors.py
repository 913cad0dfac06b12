"""The argument checks of fracldg.errors and the probes they close.

Each admissible range has one owner in fracldg.errors; the library
constructors and the CLI reader call it. These tests check the two shared
type checks, that each range's wording is written once in the package, and
that every argument a caller could once pass into a bare TypeError, a numpy
traceback or a silent acceptance is now an InvalidArgumentError naming the
parameter.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fracldg
from fracldg.basis import BasisSpec, gauss_rule
from fracldg.errors import InvalidArgumentError, check_integer, check_real
from fracldg.fractional import L1Kernel, mittag_leffler
from fracldg.ldg import FluxWeights, footprint_bytes
from fracldg.meshes import GradedTimeMesh, SpatialMesh
from fracldg.problems import ProblemSpec, example1, example2

PACKAGE_DIR = Path(fracldg.__file__).resolve().parent

#: The wording of the ranges of alpha, delta, k and sigma. Those of gamma,
#: T and the counts ("must be >= 1", "must be positive") are also the words
#: of two ranges only a config has (expect.cond_anchor's factor and value),
#: so a search cannot tell their copies apart; the differential test in
#: test_cli.py checks that the CLI states none of the seven itself.
RANGE_WORDINGS = (
    "must lie in the admissible range (0, 1)",
    "must lie in the admissible range (0,1) or (1,2)",
    "must lie in 0..8",
    "must lie in [0, 1]",
)


@pytest.mark.parametrize("wording", RANGE_WORDINGS)
def test_each_range_is_stated_once(wording):
    found = [(p.name, line) for p in sorted(PACKAGE_DIR.glob("*.py"))
             for line in p.read_text().splitlines() if wording in line]
    assert len(found) == 1 and found[0][0] == "errors.py", found


def test_check_real_takes_finite_reals_only():
    for value, want in ((2, 2.0), (np.float32(0.5), 0.5), (np.int64(-3), -3.0), (1e-320, 1e-320),
                        (10**20, 1e20)):
        got = check_real(value, "x")
        assert type(got) is float and got == want
    for value in (True, np.True_, None, "1.0", [], {}):
        with pytest.raises(InvalidArgumentError, match=r"^x: expected a number, got "):
            check_real(value, "x")
    for value in (math.nan, math.inf, -math.inf, np.float64(np.nan), 10**400):
        with pytest.raises(InvalidArgumentError, match=r"^x: expected a finite number, got "):
            check_real(value, "x")


def test_check_integer_takes_integers_only():
    for value in (0, -4, np.int64(7), np.uint8(3), 2**63):
        got = check_integer(value, "n")
        assert type(got) is int and got == value
    for value in (2.0, 2.5, np.float64(3.0), 1e-320):
        with pytest.raises(InvalidArgumentError, match=r"^n: expected an integer, got "):
            check_integer(value, "n")
    for value, needle in ((True, "a number"), (np.True_, "a number"), ("3", "a number"),
                          (None, "a number"), (math.nan, "a finite number"),
                          (math.inf, "a finite number")):
        with pytest.raises(InvalidArgumentError, match=rf"^n: expected {needle}, got "):
            check_integer(value, "n")


def _c_kappa_spec(c_kappa):
    return ProblemSpec(alpha=0.5, kappa=lambda x, y: 0.0 * x * y, c_kappa=c_kappa,
                       u0=lambda x, y: 0.0 * x * y, f=None, exact=None)


_TM = GradedTimeMesh(3, 1.0, 0.1)

#: (call, the name its refusal opens with). Each escaped at an earlier
#: version as a bare TypeError or ValueError, a numpy traceback, or was
#: accepted.
PROBES = [
    (lambda: BasisSpec(2.5), "k"),
    (lambda: BasisSpec(True), "k"),
    (lambda: BasisSpec(math.nan), "k"),
    (lambda: BasisSpec(1e400), "k"),
    (lambda: BasisSpec(9), "k"),
    (lambda: BasisSpec("1"), "k"),
    (lambda: FluxWeights("x", 0.0), "sigma1"),
    (lambda: FluxWeights(None, 0.0), "sigma1"),
    (lambda: FluxWeights(True, 0), "sigma1"),
    (lambda: FluxWeights(0.0, "1"), "sigma2"),
    (lambda: example1("x"), "alpha"),
    (lambda: example1(None), "alpha"),
    (lambda: example2(0.5, "x"), "delta"),
    (lambda: example2(0.5, True), "delta"),
    (lambda: example2(2.5, 0.3), "alpha"),
    (lambda: example2(1.3, 0.3), "alpha"),
    (lambda: GradedTimeMesh(3, "x", 0.1), "gamma"),
    (lambda: GradedTimeMesh(3, None, 0.1), "gamma"),
    (lambda: GradedTimeMesh(3, True, 0.1), "gamma"),
    (lambda: GradedTimeMesh(3, 2.0, "x"), "T"),
    (lambda: GradedTimeMesh(3, 2.0, None), "T"),
    (lambda: GradedTimeMesh(3, 2.0, True), "T"),
    (lambda: L1Kernel("x", _TM), "alpha"),
    (lambda: L1Kernel(None, _TM), "alpha"),
    (lambda: mittag_leffler("x", -1.0), "alpha"),
    (lambda: SpatialMesh(2.5, True), "nx"),
    (lambda: _c_kappa_spec("x"), "c_kappa"),
    (lambda: _c_kappa_spec(-1.0), "c_kappa"),
    (lambda: _c_kappa_spec(math.inf), "c_kappa"),
    (lambda: gauss_rule(2.0), "npoints"),
    (lambda: gauss_rule("3"), "npoints"),
    (lambda: gauss_rule(65), "npoints"),
    (lambda: footprint_bytes(SpatialMesh(2, 2), 2.5, BasisSpec(1)), "M"),
    (lambda: footprint_bytes(SpatialMesh(2, 2), "3", BasisSpec(1)), "M"),
]


@pytest.mark.parametrize("call,name", PROBES, ids=[f"{i}-{n}" for i, (_, n) in enumerate(PROBES)])
def test_probe_names_its_parameter(call, name):
    with pytest.raises(InvalidArgumentError, match=rf"^{re.escape(name)}(: | must )"):
        call()


def test_example2_names_alpha_before_delta():
    # delta > 0 and alpha < 1 give delta - alpha > -1, so once alpha is
    # checked the integrability of the memory term needs no check of its own.
    for alpha in (2.5, 1.3):
        with pytest.raises(InvalidArgumentError,
                           match=rf"^alpha must lie in the admissible range \(0, 1\), got {alpha}$"):
            example2(alpha, 0.3)


def test_constructors_store_the_checked_values():
    assert type(BasisSpec(np.int64(2)).k) is int
    fw = FluxWeights(np.float32(0.25), 1)
    assert (type(fw.sigma1), type(fw.sigma2)) == (float, float) and fw == FluxWeights(0.25, 1.0)
    prob = example2(np.float64(0.3))
    assert type(prob.alpha) is float and type(prob.c_kappa) is float
    assert type(L1Kernel(np.float64(0.3), _TM).alpha) is float
    # replace re-runs the checks on the stored values, so a wrapped source
    # (as a traced run makes one) is accepted and a bad field is not.
    wrapped = dataclasses.replace(prob, f=lambda t, x, y: prob.f(t, x, y))
    assert wrapped.alpha == prob.alpha and wrapped.f is not prob.f
    with pytest.raises(InvalidArgumentError, match=r"^c_kappa: expected a number"):
        dataclasses.replace(prob, c_kappa="x")
