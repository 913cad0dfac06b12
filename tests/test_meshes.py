from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from fracldg.errors import InvalidArgumentError, NumericError
from fracldg.meshes import GradedTimeMesh, SpatialMesh

from oracles import edges, graded_time_points


def test_spatial_mesh_geometry():
    # The periodic unit square: every coordinate follows from the two counts,
    # and equality is exact. Centers are midpoints of the rounded edges, so
    # the one between 0.2 and 0.4 lands an ulp above 0.3.
    mesh = SpatialMesh(4, 5)
    assert mesh.nx == 4 and mesh.ny == 5
    assert mesh.hx == 0.25 and mesh.hy == 0.2
    np.testing.assert_array_equal(edges(mesh.nx), [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(edges(mesh.ny), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    np.testing.assert_array_equal(mesh.x_centers(), [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_array_equal(mesh.y_centers(), [0.1, 0.30000000000000004, 0.5, 0.7, 0.9])


def test_spatial_mesh_validation():
    with pytest.raises(InvalidArgumentError, match=r"^nx must be >= 1, got 0$"):
        SpatialMesh(0, 4)
    with pytest.raises(InvalidArgumentError, match=r"^ny must be >= 1, got -1$"):
        SpatialMesh(4, -1)
    with pytest.raises(TypeError):
        SpatialMesh(4, 4, domain=(0.0, 1.0, 0.0, 1.0))
    # A count is an integer: 2.5 cells would put edges past the unit square,
    # and a bool or a float is not a count even when it equals one.
    for bad in (2.5, 2.0, True, np.float64(3.0), np.bool_(True), "4", None):
        with pytest.raises(InvalidArgumentError, match=r"^nx: expected an? (integer|number), got"):
            SpatialMesh(bad, 2)
        with pytest.raises(InvalidArgumentError, match=r"^ny: expected an? (integer|number), got"):
            SpatialMesh(2, bad)
        # The dataclass checks its own fields, so no route skips the check.
        with pytest.raises(InvalidArgumentError, match=r"^nx: expected an? (integer|number), got"):
            SpatialMesh(bad, 2)
    with pytest.raises(InvalidArgumentError, match=r"^ny: expected a number, got True$"):
        SpatialMesh(2, True)
    with pytest.raises(InvalidArgumentError, match=r"^nx: expected an integer, got 2.5$"):
        SpatialMesh(2.5, True)
    mesh = SpatialMesh(np.int64(3), np.int32(2))
    assert mesh == SpatialMesh(3, 2) and type(mesh.nx) is type(mesh.ny) is int
    assert SpatialMesh(np.int64(3), 2) == mesh and type(SpatialMesh(np.int64(3), 2).nx) is int


def test_spatial_mesh_is_a_value_of_its_counts():
    assert [f.name for f in dataclasses.fields(SpatialMesh)] == ["nx", "ny"]
    assert SpatialMesh(4, 4) == SpatialMesh(4, 4)
    assert hash(SpatialMesh(4, 4)) == hash(SpatialMesh(4, 4))
    assert len({SpatialMesh(4, 4), SpatialMesh(4, 4)}) == 1
    assert SpatialMesh(4, 5) != SpatialMesh(5, 4)
    assert SpatialMesh(4, 4) != SpatialMesh(4, 5)


def test_graded_mesh_formula():
    M, gamma, T = 10, 2.5, 0.1
    tm = GradedTimeMesh(M, gamma, T)
    assert tm.t[0] == 0.0
    assert tm.t[-1] == T
    n = np.arange(M + 1)
    np.testing.assert_allclose(tm.t, T * (n / M) ** gamma, rtol=1e-13)
    assert (tm.tau > 0).all()
    np.testing.assert_allclose(np.cumsum(tm.tau), tm.t[1:], rtol=1e-13)


def test_graded_mesh_gamma_one_is_uniform():
    tm = GradedTimeMesh(8, 1.0, 0.4)
    assert np.allclose(tm.tau, tm.tau[0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(tm.tau, 0.05, rtol=1e-12)
    graded = GradedTimeMesh(8, 3.0, 0.4)
    assert not np.allclose(graded.tau, graded.tau[0], rtol=1e-12, atol=0.0)
    # Grading concentrates points near t = 0: the first step shrinks.
    assert graded.tau[0] < tm.tau[0] < graded.tau[-1]


def test_graded_mesh_validation():
    with pytest.raises(InvalidArgumentError, match=r"^M must be >= 1, got 0$"):
        GradedTimeMesh(0, 2.0, 0.1)
    with pytest.raises(InvalidArgumentError, match=r"^gamma must be >= 1, got 0.5$"):
        GradedTimeMesh(5, 0.5, 0.1)
    with pytest.raises(InvalidArgumentError, match=r"^T must be positive, got 0.0$"):
        GradedTimeMesh(5, 2.0, 0.0)
    with pytest.raises(InvalidArgumentError, match="nonpositive time step"):
        GradedTimeMesh(1000, 200.0, 0.1)  # t_1 = T (1/M)^gamma underflows to 0
    for bad in (2.5, 5.0, True, np.float64(5.0)):
        with pytest.raises(InvalidArgumentError, match=r"^M: expected an? (integer|number), got"):
            GradedTimeMesh(bad, 1.0, 0.1)
    # gamma and T are finite reals: a bool, a string or None is not one.
    for bad in (True, "2", None):
        with pytest.raises(InvalidArgumentError, match=r"^gamma: expected a number, got"):
            GradedTimeMesh(3, bad, 0.1)
        with pytest.raises(InvalidArgumentError, match=r"^T: expected a number, got"):
            GradedTimeMesh(3, 2.0, bad)
    # A non-finite gamma or T is refused before any point is computed, with
    # no floating-point warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma, T in ((np.inf, 0.1), (np.nan, 0.1), (2.0, np.inf), (2.0, np.nan)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                GradedTimeMesh(5, gamma, T)
    tm = GradedTimeMesh(np.int64(5), 2.0, 0.1)
    assert type(tm.M) is int and np.array_equal(tm.t, GradedTimeMesh(5, 2.0, 0.1).t)
    # An admissible M too large for any machine is sized before its points
    # are allocated, and refused naming the time mesh, not by numpy.
    for M in (10**20, 2**63):
        with pytest.raises(NumericError, match=rf"needs {32 * (M + 1)} bytes .* for its time mesh"):
            GradedTimeMesh(M, 2.0, 0.1)



@pytest.mark.parametrize("gamma", [1.0, 2.0, 6.0])
def test_graded_mesh_points_are_the_grading_formula_bitwise(gamma):
    # The mesh derives its points from M, gamma and T, bit for bit as the
    # former builder did, and they are the grading formula to rounding.
    for M, T in ((1, 0.1), (7, 1.0), (20, 0.1), (100, 2.0), (800, 0.1)):
        tm = GradedTimeMesh(M, gamma, T)
        t, tau = graded_time_points(M, gamma, T)
        assert np.array_equal(tm.t, t) and np.array_equal(tm.tau, tau), (M, T)
        np.testing.assert_allclose(tm.t, T * (np.arange(M + 1) / M) ** gamma, rtol=1e-13)


def test_graded_mesh_points_are_derived_never_given():
    # M, gamma and T fix every point, so the points are no argument and a
    # copy with another M or T must be told gamma again, which the mesh keeps
    # only privately; given it, replace derives the new points.
    tm = GradedTimeMesh(20, 2.0, 0.1)
    assert [f.name for f in dataclasses.fields(GradedTimeMesh)] == ["M", "T", "_gamma", "t", "tau"]
    assert repr(tm) == "GradedTimeMesh(M=20, T=0.1)"
    for change in ({"T": 1.0}, {"M": 5}, {}):
        with pytest.raises(ValueError, match="InitVar 'gamma' must be specified"):
            dataclasses.replace(tm, **change)
    for name in ("_gamma", "t", "tau"):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(tm, gamma=2.0, **{name: tm.t})
        with pytest.raises(TypeError):
            GradedTimeMesh(20, 2.0, 0.1, **{name: tm.t})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tm, name, tm.t)
    with pytest.raises(TypeError):
        GradedTimeMesh(M=20, T=0.1, t=tm.t, tau=tm.tau)  # no mesh from points alone
    rebuilt = dataclasses.replace(tm, M=5, gamma=2.0)
    assert rebuilt.M == 5 and rebuilt.T == tm.T
    assert np.array_equal(rebuilt.t, GradedTimeMesh(5, 2.0, tm.T).t)
    assert np.array_equal(rebuilt.tau, GradedTimeMesh(5, 2.0, tm.T).tau)
    # replace checks as construction does.
    with pytest.raises(InvalidArgumentError, match=r"^gamma must be >= 1, got 0.5$"):
        dataclasses.replace(tm, gamma=0.5)
    with pytest.raises(InvalidArgumentError, match=r"^M must be >= 1, got 0$"):
        dataclasses.replace(tm, M=0, gamma=2.0)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GradedTimeMesh)])
def test_graded_mesh_fields_cannot_be_assigned(name):
    tm = GradedTimeMesh(5, 2.0, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(tm, name, 1.0)


@pytest.mark.parametrize("other", [(5, 3.0, 0.1), (6, 2.0, 0.1), (5, 2.0, 0.2)],
                         ids=["gamma", "M", "T"])
def test_graded_mesh_is_a_value_of_M_T_and_gamma(other):
    # Equal inputs give equal meshes with equal hashes, compared by their
    # inputs and never by their arrays (which numpy cannot compare in a
    # tuple); a different gamma, M or T gives an unequal mesh.
    tm, same = GradedTimeMesh(5, 2.0, 0.1), GradedTimeMesh(5, 2.0, 0.1)
    assert tm == same and hash(tm) == hash(same) and len({tm, same}) == 1
    assert tm != GradedTimeMesh(*other)
