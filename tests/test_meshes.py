from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from fracldg.errors import InvalidArgumentError
from fracldg.meshes import SpatialMesh, build_graded_time_mesh, build_spatial_mesh


def test_spatial_mesh_geometry():
    # The periodic unit square: every coordinate follows from the two counts,
    # and equality is exact. Centers are midpoints of the rounded edges, so
    # the one between 0.2 and 0.4 lands an ulp above 0.3.
    mesh = build_spatial_mesh(4, 5)
    assert mesh.nx == 4 and mesh.ny == 5
    assert mesh.hx == 0.25 and mesh.hy == 0.2
    np.testing.assert_array_equal(mesh.x_edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(mesh.y_edges, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    np.testing.assert_array_equal(mesh.x_centers(), [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_array_equal(mesh.y_centers(), [0.1, 0.30000000000000004, 0.5, 0.7, 0.9])


def test_spatial_mesh_validation():
    with pytest.raises(InvalidArgumentError):
        build_spatial_mesh(0, 4)
    with pytest.raises(InvalidArgumentError):
        build_spatial_mesh(4, -1)
    with pytest.raises(TypeError):
        build_spatial_mesh(4, 4, domain=(0.0, 1.0, 0.0, 1.0))
    # A count is an integer: 2.5 cells would put edges past the unit square,
    # and a bool or a float is not a count even when it equals one.
    for bad in (2.5, 2.0, True, np.float64(3.0), np.bool_(True), "4", None):
        with pytest.raises(InvalidArgumentError, match="must be an integer >= 1"):
            build_spatial_mesh(bad, 2)
        with pytest.raises(InvalidArgumentError, match="must be an integer >= 1"):
            build_spatial_mesh(2, bad)
    mesh = build_spatial_mesh(np.int64(3), np.int32(2))
    assert mesh == build_spatial_mesh(3, 2) and type(mesh.nx) is type(mesh.ny) is int


def test_spatial_mesh_is_a_value_of_its_counts():
    assert [f.name for f in dataclasses.fields(SpatialMesh)] == ["nx", "ny"]
    assert build_spatial_mesh(4, 4) == build_spatial_mesh(4, 4)
    assert hash(build_spatial_mesh(4, 4)) == hash(build_spatial_mesh(4, 4))
    assert len({build_spatial_mesh(4, 4), build_spatial_mesh(4, 4)}) == 1
    assert build_spatial_mesh(4, 5) != build_spatial_mesh(5, 4)
    assert build_spatial_mesh(4, 4) != build_spatial_mesh(4, 5)


def test_graded_mesh_formula():
    M, gamma, T = 10, 2.5, 0.1
    tm = build_graded_time_mesh(M, gamma, T)
    assert tm.t[0] == 0.0
    assert tm.t[-1] == T
    n = np.arange(M + 1)
    np.testing.assert_allclose(tm.t, T * (n / M) ** gamma, rtol=1e-13)
    assert (tm.tau > 0).all()
    np.testing.assert_allclose(np.cumsum(tm.tau), tm.t[1:], rtol=1e-13)


def test_graded_mesh_gamma_one_is_uniform():
    tm = build_graded_time_mesh(8, 1.0, 0.4)
    assert np.allclose(tm.tau, tm.tau[0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(tm.tau, 0.05, rtol=1e-12)
    graded = build_graded_time_mesh(8, 3.0, 0.4)
    assert not np.allclose(graded.tau, graded.tau[0], rtol=1e-12, atol=0.0)
    # Grading concentrates points near t = 0: the first step shrinks.
    assert graded.tau[0] < tm.tau[0] < graded.tau[-1]


def test_graded_mesh_validation():
    with pytest.raises(InvalidArgumentError):
        build_graded_time_mesh(0, 2.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        build_graded_time_mesh(5, 0.5, 0.1)
    with pytest.raises(InvalidArgumentError):
        build_graded_time_mesh(5, 2.0, 0.0)
    with pytest.raises(InvalidArgumentError, match="nonpositive time step"):
        build_graded_time_mesh(1000, 200.0, 0.1)  # t_1 = T (1/M)^gamma underflows to 0
    for bad in (2.5, 5.0, True, np.float64(5.0)):
        with pytest.raises(InvalidArgumentError, match="M must be an integer >= 1"):
            build_graded_time_mesh(bad, 1.0, 0.1)
    # A non-finite gamma or T is refused before any point is computed, with
    # no floating-point warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma, T in ((np.inf, 0.1), (np.nan, 0.1), (2.0, np.inf), (2.0, np.nan)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                build_graded_time_mesh(5, gamma, T)
    tm = build_graded_time_mesh(np.int64(5), 2.0, 0.1)
    assert type(tm.M) is int and np.array_equal(tm.t, build_graded_time_mesh(5, 2.0, 0.1).t)
