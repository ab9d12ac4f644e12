"""The numpy kernels against their dense definitions."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxzonoid import _kernels, discretize, make_family, zonoid_from_spectral

from conftest import random_dependency


def dense_support(B, X):
    return np.maximum((X[:, None] * B[None]).max(2), 0).sum(1)


def test_support_sum_zero_floor(rng):
    atoms = rng.random((37, 3)) * rng.random((37, 1))
    mixed = np.array([[-1.0, -2.0, -0.5], [0.5, -1.0, 0.25]])
    a = _kernels.support_sum(atoms, mixed)
    np.testing.assert_allclose(a, dense_support(atoms, mixed), rtol=1e-13, atol=1e-15)
    assert np.all(a >= 0)


def test_support_sum_dense_path_is_definition(rng):
    # d >= 3 keeps the tiled dense product: bit-identical across tiles
    atoms = rng.random((37, 3)) * rng.random((37, 1))
    points = rng.random((_kernels._TILE // 37 + 211, 3)) * 3.0 - 0.5
    got = _kernels.support_sum(atoms, points)
    assert np.array_equal(got, dense_support(atoms, points))


# grid values give exact zeros, repeated slopes and points on atom slopes
_entry = st.one_of(st.integers(0, 24).map(lambda k: k / 8.0), st.floats(0.01, 4.0))
_coord = st.one_of(
    st.integers(-8, 24).map(lambda k: k / 8.0),
    st.floats(0.01, 4.0),
    st.floats(-4.0, -0.01),
)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(st.tuples(_entry, _entry), min_size=1, max_size=12),
    points=st.lists(st.tuples(_coord, _coord), min_size=0, max_size=20),
)
def test_planar_support_matches_dense(atoms, points):
    B = np.array(atoms, dtype=float).reshape(-1, 2)
    X = np.array(points, dtype=float).reshape(-1, 2)
    # add points exactly on each atom's slope, the axes and the origin
    X = np.vstack([X, 1.5 * B[:, ::-1], [[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]]])
    got = _kernels.support_sum(B, X)
    np.testing.assert_allclose(got, dense_support(B, X), rtol=1e-13, atol=0)


def test_planar_support_edge_cases():
    axis = np.array([[1.0, 0.0], [0.0, 1.0]])
    one = np.array([[0.3, 0.7]])
    X = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [-1.0, 2.0], [-1.0, -1.0], [1.0, 1.0]])
    for B in (axis, one, np.vstack([axis, one, one])):
        np.testing.assert_allclose(_kernels.support_sum(B, X), dense_support(B, X), rtol=1e-13, atol=0)
    assert _kernels.support_sum(one, np.empty((0, 2))).shape == (0,)


def test_planar_support_tiny_coordinates_do_not_warn():
    # 1.0 / 1e-310 overflows to inf, which is the right slope to sort by
    B = np.array([[0.5, 0.5], [1.0, 1e-310]])
    X = np.array([[1e-310, 1.0], [1.0, 1e-310], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels._support_sum_planar(B, X)
    np.testing.assert_array_equal(got, dense_support(B, X))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(3, 5), repeat=st.booleans())
def test_dense_support_matches_definition(data, d, repeat):
    atoms = data.draw(st.lists(st.tuples(*[_entry] * d), min_size=1, max_size=12))
    points = data.draw(st.lists(st.tuples(*[_coord] * d), min_size=0, max_size=20))
    B = np.array(atoms, dtype=float).reshape(-1, d)
    if repeat:
        B = np.vstack([B, B[::-1]])
    X = np.array(points, dtype=float).reshape(-1, d)
    # points along each atom, with tied coordinates, on the axes and at the origin
    X = np.vstack([X, 1.5 * B, np.ones((1, d)), np.eye(d), np.zeros((1, d))])
    assert np.array_equal(_kernels.max_products(B, X), (X[:, None] * B[None]).max(2))
    assert np.array_equal(_kernels.support_sum(B, X), dense_support(B, X))


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize(
    "m, n",
    [(1, 0), (1000, 3 * (_kernels._TILE // 1000) + 17), (_kernels._TILE + 3, 5)],
    ids=["m1-n0", "partial-tile", "one-row-tiles"],
)
def test_dense_support_across_tiles(rng, d, m, n):
    B = rng.random((m, d)) * rng.random((m, 1))
    B[::7, 0] = 0.0
    X = rng.random((n, d)) * 3.0 - 0.5
    got = _kernels.support_sum(B, X)
    assert got.shape == (n,)
    assert np.array_equal(got, dense_support(B, X))


@functools.cache
def _dependency_sets(d):
    """An atom list, an NNLS fit and the analytic logistic norm in d."""
    return [
        random_dependency(np.random.default_rng(d), d, 9),
        zonoid_from_spectral(discretize(make_family("logistic", d, p=1.5), 200).measure),
        make_family("logistic", d, p=2.5),
    ]


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 4]),
    data=st.data(),
    t=st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, 1.0, 2.0])),
)
def test_dependency_set_support_bounds_and_homogeneity(d, data, t):
    points = data.draw(st.lists(st.tuples(*[_entry] * d), min_size=1, max_size=20))
    X = np.array(points, dtype=float)
    for K in _dependency_sets(d):
        h = K.support(X)
        assert np.all(h >= X.max(axis=1) * (1 - 1e-12))
        assert np.all(h <= X.sum(axis=1) * (1 + 1e-12))
        np.testing.assert_allclose(K.support(t * X), t * h, rtol=1e-12, atol=0)
