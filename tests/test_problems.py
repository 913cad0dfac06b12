from __future__ import annotations

import math

import numpy as np
import pytest

from fracldg.basis import BasisSpec, VolumeGrid
from fracldg.errors import InvalidArgumentError
from fracldg.fractional import mittag_leffler
from fracldg.meshes import build_spatial_mesh
from fracldg.problems import ProblemSpec, example1, example2

from oracles import caputo_derivative, laplacian_fd


def _dummy_kappa(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def _dummy_u0(x, y):
    return np.zeros(np.broadcast(x, y).shape)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
def test_problem_rejects_fractional_order_outside_open_unit_interval(alpha):
    with pytest.raises(InvalidArgumentError):
        ProblemSpec(
            alpha=alpha, kappa=_dummy_kappa, c_kappa=0.0, u0=_dummy_u0,
            f=None, exact=None,
        )


def test_homogeneous_case_structure():
    prob = example1(0.7)
    assert prob.alpha == 0.7
    assert prob.f is None
    assert prob.c_kappa == 2.0
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(prob.kappa(x, y), -2.0, atol=0.0)
    # Exact solution starts at the initial condition ...
    np.testing.assert_allclose(prob.exact(0.0, x, y), prob.u0(x, y), atol=0.0)
    # ... and has decayed substantially by the final time.
    X, Y = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
    assert np.max(np.abs(prob.exact(0.1, X, Y))) < 0.5 * np.max(np.abs(prob.u0(X, Y)))


def test_homogeneous_case_closed_form_solves_its_equation():
    # With kappa constant the tempering cancels inside the memory integral,
    # so the closed form is exact iff the time profile phi(t) = E_a(lam t^a)
    # satisfies the scalar relation (d/dt)^a phi = lam * phi. Check that with
    # the independent quadrature oracle.
    lam = -8.0 * math.pi**2
    for alpha in (0.4, 0.7):
        for t in (0.03, 0.1):
            phi = lambda s, a=alpha: mittag_leffler(a, lam * s**a)
            got = caputo_derivative(phi, alpha, t)
            want = lam * phi(t)
            assert abs(got - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize("delta", [1.0, 0.0, -0.3, 2.0, 2.5])
def test_manufactured_case_rejects_bad_regularity_exponent(delta):
    with pytest.raises(InvalidArgumentError):
        example2(0.5, delta=delta)


def test_manufactured_case_defaults():
    prob = example2(0.6)
    assert prob.c_kappa == 1.0
    x = np.linspace(0.0, 1.0, 9)
    # Without delta the exact solution has the regularity of alpha: at
    # x = 0, y = 1/4 it is e^{-t} t^0.6, as with delta = 0.6 given.
    t = np.array([1e-4, 0.03, 0.1, 0.7])
    np.testing.assert_allclose(prob.exact(t, 0.0, 0.25), np.exp(-t) * t**0.6, rtol=1e-14)
    np.testing.assert_array_equal(prob.exact(0.1, x, x), example2(0.6, delta=0.6).exact(0.1, x, x))
    np.testing.assert_allclose(prob.u0(x, x), 0.0, atol=0.0)
    # Variable tempering stays within its certified bound.
    X, Y = np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 33))
    assert np.max(np.abs(prob.kappa(X, Y))) <= prob.c_kappa + 1e-15


@pytest.mark.parametrize("make", [lambda: example1(0.5), lambda: example2(0.5, delta=1.8)])
def test_fields_are_periodic_on_the_unit_square(make):
    prob = make()
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=12)
    y = rng.uniform(0.0, 1.0, size=12)
    t = 0.07
    for g in (prob.u0, prob.kappa):
        np.testing.assert_allclose(g(x + 1.0, y), g(x, y), atol=1e-12)
        np.testing.assert_allclose(g(x, y + 1.0), g(x, y), atol=1e-12)
    for g in (prob.exact, prob.f):
        if g is None:
            continue
        np.testing.assert_allclose(g(t, x + 1.0, y), g(t, x, y), atol=1e-12)
        np.testing.assert_allclose(g(t, x, y + 1.0), g(t, x, y), atol=1e-12)


@pytest.mark.parametrize(
    "alpha,delta", [(0.3, 0.3), (0.7, 1.8), (0.5, 0.8), (0.4, 1.0)]
)
def test_caputo_oracle_reproduces_power_law(alpha, delta):
    # Self-check of the quadrature oracle before it is trusted in the
    # residual test: the power-function derivative has a closed form.
    for t in (0.05, 0.4, 1.0):
        got = caputo_derivative(lambda s, d=delta: s**d, alpha, t)
        want = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - alpha) * t ** (delta - alpha)
        assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("alpha,delta", [(0.3, 0.3), (0.7, 1.8)])
def test_manufactured_source_satisfies_the_equation_pointwise(alpha, delta):
    # Residual check of the full governing equation at random space-time
    # points: tempered memory derivative of the exact solution minus its
    # Laplacian minus the manufactured source must vanish. Both derivative
    # oracles are independent of the package implementation.
    prob = example2(alpha, delta=delta)
    rng = np.random.default_rng(1234)
    for _ in range(10):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.02, 0.1))
        kap = float(prob.kappa(np.asarray(x), np.asarray(y)))

        def tempered(s: float) -> float:
            return math.exp(kap * s) * float(prob.exact(s, np.asarray(x), np.asarray(y)))

        lhs = math.exp(-kap * t) * caputo_derivative(tempered, alpha, t)
        lap = laplacian_fd(
            lambda xx, yy: float(prob.exact(t, np.asarray(xx), np.asarray(yy))), x, y
        )
        fv = float(prob.f(t, np.asarray(x), np.asarray(y)))
        scale = max(1.0, abs(lap), abs(fv))
        assert abs(lhs - lap - fv) <= 1e-6 * scale


#: Traced bytes one call of example2's source may hold beyond two arrays of
#: its result: two numpy iterator buffers (np.getbufsize() values of 8 B)
#: for the products that broadcast x against y, and 16 KiB for the arrays
#: of one axis and Python's own objects. On 32 x 32 Q1 (a 128 KiB result)
#: the call peaks at 399 944 B against a bound of 409 600 B; the expression
#: memory + (2 - t c) (g + h) over full arrays peaks at 727 184 B.
SOURCE_SMALL_BYTES = 16 * 2**10


def test_manufactured_source_holds_two_arrays_of_its_result():
    # A count of bytes, not a timing: the source is built in its result, so
    # one call holds the result and one term beside it.
    import tracemalloc

    grid = VolumeGrid.build(build_spatial_mesh(32, 32), BasisSpec(1))
    prob = example2(0.3)
    prob.f(0.05, grid.x, grid.y)
    tracemalloc.start()
    try:
        out = prob.f(0.05, grid.x, grid.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (32, 32, 4, 4)
    assert peak <= 2 * out.nbytes + 2 * 8 * np.getbufsize() + SOURCE_SMALL_BYTES, peak
