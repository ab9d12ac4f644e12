"""The numpy kernels against their dense definitions."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxzonoid import (
    MaxStableModel,
    _kernels,
    cdf,
    copula,
    discretize,
    hausdorff_distance,
    kendall_tau_2d,
    m_distance,
    make_family,
    make_measure,
    pickands,
    polar_volume,
    polygon_from_spectral,
    spectral,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_spectral,
)
from maxzonoid.geometry import _distance_grid

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


# axis slopes, subnormals and ties among ordinary slopes
_slope = st.one_of(
    st.sampled_from([0.0, np.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0]),
    st.floats(0.0, np.inf, allow_nan=False),
    st.floats(1e-3, 1e3),
)


@settings(max_examples=300, deadline=None)
@given(slopes=st.lists(_slope, min_size=1, max_size=40), crowd=st.booleans())
def test_chain_position_is_searchsorted(slopes, crowd):
    r = np.array(slopes)
    if crowd:  # 1000 slopes one ulp apart, between two far ones, fill one bucket
        r = np.concatenate([r, 1.0 + np.arange(1000) * np.finfo(float).eps, [1e-300, 1e300]])
    B = np.where(np.isinf(r)[:, None], [1.0, 0.0], np.column_stack([r, np.ones_like(r)]))
    with np.errstate(over="ignore"):  # sums and neighbours of slopes near the largest float
        chain = _kernels.planar_chain(B)
        q = np.concatenate([r, np.nextafter(r, -np.inf), np.nextafter(r, np.inf), [0.0, np.inf]])
    assert np.array_equal(chain.r, np.append(np.sort(r), np.inf))
    if crowd:
        assert np.diff(chain.first).max() > _kernels._WALK  # the walk's cap is reached
    got = _kernels._chain_position(chain, q)
    assert np.array_equal(got, np.searchsorted(chain.r[:-1], q, "left"))


def test_support_sum_takes_atoms_or_their_chain(rng):
    B = rng.random((50, 2)) ** 3
    X = rng.random((200, 2)) * 4.0 - 1.0
    chain = _kernels.planar_chain(B)
    assert chain.shape == B.shape
    assert np.array_equal(_kernels.support_sum(chain, X), _kernels.support_sum(B, X))


def test_chain_is_read_only():
    chain = make_measure([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]], [1.0, 0.5, 0.5]).chain
    for a in (chain.r, chain.vx, chain.vy, chain.first):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_chain_is_built_once_per_measure(monkeypatch):
    calls, build = [], _kernels.planar_chain

    def counted(B):
        calls.append(B)
        return build(B)

    for mod in (_kernels, spectral):
        monkeypatch.setattr(mod, "planar_chain", counted)
    model = MaxStableModel(random_dependency(np.random.default_rng(3), 2, 40))
    U = np.random.default_rng(4).random((100, 2))
    for _ in range(3):
        cdf(model, 1.0 / U), copula(model, U), pickands(model, U[:, 0])
        kendall_tau_2d(model), polygon_from_spectral(model.spectral)
    # construction builds the chains of the measures it normalizes on the way
    assert [B is model.spectral.scaled_atoms for B in calls].count(True) == 1
    built = len(calls)
    cdf(model, 1.0 / U), kendall_tau_2d(model)
    assert len(calls) == built


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


# fewer than 8 atoms take (m, rows) tiles summed down the columns, 8 or
# more (rows, m) tiles summed along the rows; both cross a tile here
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize(
    "m, n",
    [
        (1, 0),
        *((m, 2 * (_kernels._TILE // m) + 5) for m in (3, 7, 8)),
        (1000, 3 * (_kernels._TILE // 1000) + 17),
        (_kernels._TILE + 3, 5),
    ],
    ids=["m1-n0", "m3-columns", "m7-columns", "m8-rows", "partial-tile", "one-row-tiles"],
)
def test_dense_support_across_tiles(rng, d, m, n):
    B = rng.random((m, d)) * rng.random((m, 1))
    B[::7, 0] = 0.0
    X = rng.random((n, d)) * 3.0 - 0.5
    got = _kernels.support_sum(B, X)
    assert got.shape == (n,)
    assert np.array_equal(got, dense_support(B, X))


@pytest.mark.parametrize(
    "m, n", [(3, 0), (100, 3 * (_kernels._TILE // 100) + 17), (_kernels._TILE + 3, 5)]
)
def test_max_products_across_tiles(rng, m, n):
    B = rng.random((m, 3)) * rng.random((m, 1))
    X = rng.random((n, 3))
    assert np.array_equal(_kernels.max_products(B, X), (X[:, None] * B[None]).max(2))


# the d = 3 table path, called directly: the dispatch rule is tested apart
_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(st.tuples(_entry, _entry, _entry), min_size=1, max_size=16),
    points=st.lists(st.tuples(_coord, _coord, _coord), min_size=0, max_size=20),
    repeat=st.booleans(),
)
def test_table_support_matches_dense(atoms, points, repeat):
    B = np.array(atoms, dtype=float).reshape(-1, 3)
    if repeat:
        B = np.vstack([B, B[::-1]])
    X = np.maximum(np.array(points, dtype=float).reshape(-1, 3), 0.0)
    # points on each atom's ray and its coordinate permutations: every
    # slope test of the tree meets a point exactly on its boundary
    X = np.vstack([X, *(1.5 * B[:, p] for p in _PERMS), np.ones((1, 3)), np.eye(3), np.zeros((1, 3))])
    got = _kernels._support_sum_3d(B, X)
    np.testing.assert_allclose(got, dense_support(B, X), rtol=1e-13, atol=0)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=40),
    points=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=0, max_size=40),
)
def test_table_support_is_exact_on_small_integers(atoms, points):
    # every partial sum is an exact integer, so an atom counted twice or
    # missed shows as an inequality
    B = np.array(atoms, dtype=float).reshape(-1, 3)
    X = np.array(points, dtype=float).reshape(-1, 3)
    X = np.vstack([X, *(B[:, p] for p in _PERMS)])
    assert np.array_equal(_kernels._support_sum_3d(B, X), dense_support(B, X))


def test_table_support_counts_each_atom_once():
    # (0, 2, 1) at (1, 0, 1): 1 ties 2 at 0 and 3 wins; a split by strict
    # and non-strict slope tests counts it in two leaves
    B = np.array([[0.0, 2.0, 1.0]])
    X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(_kernels._support_sum_3d(B, X), [1.0, 2.0, 0.0, 1.0])


_B = _kernels._BLOCK


@pytest.mark.parametrize("m", [_B - 1, _B, _B + 1, 2 * _B + 1])
def test_table_support_across_blocks(rng, m):
    B = rng.integers(0, 4, (m, 3)).astype(float)
    X = rng.integers(0, 4, (300, 3)).astype(float)
    assert np.array_equal(_kernels._support_sum_3d(B, X), dense_support(B, X))
    B = rng.random((m, 3)) * rng.random((m, 1))
    B[::5, 1] = 0.0
    X = rng.random((300, 3))
    X[::4, 2] = 0.0
    np.testing.assert_allclose(_kernels._support_sum_3d(B, X), dense_support(B, X), rtol=1e-13, atol=0)
    assert _kernels._support_sum_3d(B, np.empty((0, 3))).shape == (0,)


def _count_table_calls(monkeypatch):
    calls = []
    table = _kernels._support_sum_3d

    def counting(B, X):
        calls.append((len(B), len(X)))
        return table(B, X)

    monkeypatch.setattr(_kernels, "_support_sum_3d", counting)
    return calls


def test_support_sum_takes_tables_where_they_pay(rng, monkeypatch):
    calls = _count_table_calls(monkeypatch)
    B = rng.random((400, 3))
    X = rng.random((8000, 3)) * 2.0 - 0.5
    np.testing.assert_allclose(_kernels.support_sum(B, X), dense_support(B, X), rtol=1e-13, atol=0)
    assert calls == [(400, 8000)]
    # few points, few atoms, d = 4: the tiled path, bit for bit
    for B, X in ((B, X[:400]), (B[:40], X), (rng.random((400, 4)), rng.random((8000, 4)))):
        assert np.array_equal(_kernels.support_sum(B, X), dense_support(B, X))
    assert calls == [(400, 8000)]


def test_hausdorff_of_nnls_fit_takes_tables(monkeypatch):
    fit = zonoid_from_spectral(discretize(make_family("logistic", 3, p=1.5), 500).measure)
    calls = _count_table_calls(monkeypatch)
    hausdorff_distance(fit, make_family("logistic", 3, p=1.5))
    assert calls == [(fit.spectral.n_atoms, len(_distance_grid(3, None)))]


def test_few_atom_bodies_stay_dense(monkeypatch):
    calls = _count_table_calls(monkeypatch)
    polar_volume(unit_cube(3), method="mc", n=100_000)
    m_distance(unit_cube(3), unit_cross_polytope(3))
    assert calls == []


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
        h = support_function(K, X)
        assert np.all(h >= X.max(axis=1) * (1 - 1e-12))
        assert np.all(h <= X.sum(axis=1) * (1 + 1e-12))
        np.testing.assert_allclose(support_function(K, t * X), t * h, rtol=1e-12, atol=0)
