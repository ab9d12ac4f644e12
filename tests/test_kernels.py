"""The numpy kernels against their dense definitions."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxzonoid import (
    MaxStableModel,
    _kernels,
    cdf,
    construct_from_extremal,
    copula,
    discretize,
    extremal_table,
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
    # d = 3 bodies of at most 25 atoms keep the tiled dense product (the
    # table path never pays for them): bit-identical across tiles
    atoms = rng.random((20, 3)) * rng.random((20, 1))
    points = rng.random((_kernels._TILE // 20 + 211, 3)) * 3.0 - 0.5
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
    # the planar path reads points X >= 0 as given: the clamp at 0 that
    # dense_support applies to any point is the caller's
    B = np.array(atoms, dtype=float).reshape(-1, 2)
    X = np.array(points, dtype=float).reshape(-1, 2)
    # add points exactly on each atom's slope, the axes and the origin
    X = np.vstack([X, 1.5 * B[:, ::-1], [[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]]])
    got = _kernels.support_sum(B, np.maximum(X, 0.0))
    np.testing.assert_allclose(got, dense_support(B, X), rtol=1e-13, atol=0)


def test_planar_support_edge_cases():
    axis = np.array([[1.0, 0.0], [0.0, 1.0]])
    one = np.array([[0.3, 0.7]])
    X = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [-1.0, 2.0], [-1.0, -1.0], [1.0, 1.0]])
    for B in (axis, one, np.vstack([axis, one, one])):
        got = _kernels.support_sum(B, np.maximum(X, 0.0))
        np.testing.assert_allclose(got, dense_support(B, X), rtol=1e-13, atol=0)
    assert _kernels.support_sum(one, np.empty((0, 2))).shape == (0,)


def test_planar_support_reads_nonnegative_points_as_given():
    # -0.0 reads as 0.0, except that a row of two reads -0.0; the points keep their -0.0
    B = np.array([[0.3, 0.7], [1.0, 0.0], [0.2, 0.5]])
    X = np.array([[-0.0, 2.0], [3.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, 1.0], [-0.0, -0.0]])
    plus = X + 0.0
    want = dense_support(B, plus)
    want[-1] = -0.0
    got = _kernels.support_sum(B, X)
    assert got.tobytes() == want.tobytes()
    assert X.tobytes() != plus.tobytes()


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


# weights below one ulp of the running total tie the sums after them
_weight = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-17, 1.0]), st.floats(1e-6, 1e6))


@settings(max_examples=300, deadline=None)
@given(
    slopes=st.lists(_slope, min_size=1, max_size=40),
    weights=st.lists(_weight, min_size=1, max_size=40),
    crowd=st.booleans(),
    side=st.sampled_from(["left", "right"]),
)
@example(slopes=[1.0], weights=[2.0], crowd=False, side="right")  # one atom: every key in one bucket
@example(slopes=[1.0], weights=[1.0, 1e-17, 1e-17, 0.5], crowd=False, side="right")
def test_chain_position_is_searchsorted(slopes, weights, crowd, side):
    # the keys of a planar chain, its slopes, and of the sampler, its
    # cumulative weights, each searched at, below and above every key
    r, w = np.array(slopes), np.array(weights)
    if crowd:  # 1000 keys one ulp apart, between two far ones, fill one bucket
        r = np.concatenate([r, 1.0 + np.arange(1000) * np.finfo(float).eps, [1e-300, 1e300]])
        w = np.concatenate([[1e-300, 1.0], np.full(999, np.finfo(float).eps), [1e300], w])
    B = np.where(np.isinf(r)[:, None], [1.0, 0.0], np.column_stack([r, np.ones_like(r)]))
    with np.errstate(over="ignore"):  # sums and neighbours of slopes near the largest float
        chain = _kernels.planar_chain(B)
        q = np.concatenate([r, np.nextafter(r, -np.inf), np.nextafter(r, np.inf), [0.0, np.inf]])
    assert np.array_equal(chain.r, np.append(np.sort(r), np.inf))
    cum = np.cumsum(w)
    c = cum[-1]  # the sampler asks u * c for u in [0, 1): 0 up to c, as u * c may round up
    u = np.random.default_rng(len(w)).random(50)
    queries = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, np.inf), [0.0, c], u * c])
    searches = [
        (chain.r, chain.buckets, q if side == "left" else q[q < np.inf]),  # the sentinel is above every query
        (np.append(cum, np.inf), _kernels.bucket_index(cum), queries),
    ]
    for keys, buckets, q in searches:
        if crowd:
            assert np.diff(buckets.first).max() > _kernels._WALK  # the walk's cap is reached
        got = _kernels.bucket_search(keys, buckets, q, side)
        assert np.array_equal(got, np.searchsorted(keys[:-1], q, side))


def test_support_sum_takes_atoms_or_their_chain(rng):
    B = rng.random((50, 2)) ** 3
    X = rng.random((200, 2)) * 4.0 - 1.0
    chain = _kernels.planar_chain(B)
    assert chain.shape == B.shape
    assert np.array_equal(_kernels.support_sum(chain, X), _kernels.support_sum(B, X))


def test_chain_is_read_only():
    chain = make_measure([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]], [1.0, 0.5, 0.5]).chain
    for a in (chain.r, chain.vx, chain.vy, chain.buckets.first):
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


# fewer than 8 atoms fold whole point columns, 8 or more take (rows, m)
# tiles summed along the rows, which cross a tile here
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize(
    "m, n",
    [
        (1, 0),
        *((m, 2 * (_kernels._TILE // m) + 5) for m in (3, 7, 8)),
        (1000, 3 * (_kernels._TILE // 1000) + 17),
        (_kernels._TILE + 3, 5),
    ],
    ids=["m1-n0", "m3-fold", "m7-fold", "m8-rows", "partial-tile", "one-row-tiles"],
)
def test_dense_support_across_tiles(rng, d, m, n):
    B = rng.random((m, d)) * rng.random((m, 1))
    B[::7, 0] = 0.0
    X = rng.random((n, d)) * 3.0 - 0.5
    got = _kernels.support_sum(B, X)
    assert got.shape == (n,)
    assert np.array_equal(got, dense_support(B, X))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(3, 6), m=st.integers(1, _kernels._FEW - 1))
def test_fold_support_is_exact_on_small_integers(data, d, m):
    # every sum is an exact integer, so a coefficient the fold skips or
    # counts twice shows as an inequality; zeros and ones take its shortcuts
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    B = np.array(data.draw(st.lists(row, min_size=m, max_size=m)), dtype=float)
    points = data.draw(st.lists(st.lists(st.integers(-2, 4), min_size=d, max_size=d), max_size=20))
    X = np.vstack([np.array(points, dtype=float).reshape(-1, d), B, np.eye(d), np.zeros((1, d))])
    assert np.array_equal(_kernels._support_sum_fold(B, X), dense_support(B, X))


@functools.cache
def _few_atom_bodies():
    """Sparse bodies of fewer than 8 atoms, each tested at its own d."""
    logistic = construct_from_extremal(extremal_table(make_family("logistic", 3, p=2.0)))
    return {
        "cube": unit_cube(4).spectral.scaled_atoms,
        "cross": unit_cross_polytope(4).spectral.scaled_atoms,
        # axis atoms and one atom on a pair, as a Marshall-Olkin body's
        "axis-and-pair": np.array([[0.6, 0, 0], [0, 0.3, 0], [0, 0, 1.0], [0.4, 0.7, 0]]),
        "extremal-logistic": logistic.spectral.scaled_atoms,  # 7 atoms, one per subset
        # no atom touches coordinate 3
        "untouched": np.array([[0.5, 0, 0, 0.5], [1.0, 0.25, 0, 0], [0, 0, 0, 0]]),
    }


@pytest.mark.parametrize("name", ["cube", "cross", "axis-and-pair", "extremal-logistic", "untouched"])
def test_few_atom_bodies_fold_to_the_definition(rng, monkeypatch, name):
    B = _few_atom_bodies()[name]
    m, d = B.shape
    calls = []
    fold = _kernels._support_sum_fold
    monkeypatch.setattr(_kernels, "_support_sum_fold", lambda B, X: calls.append(len(B)) or fold(B, X))
    X = rng.random((3000, d)) * 3.0 - 0.5
    X[::3, 0] = 0.0
    X[1::5] = -X[1::5]
    X = np.vstack([X, 1.5 * B, np.eye(d), np.zeros((1, d)), -np.ones((1, d))])
    assert np.array_equal(_kernels.support_sum(B, X), dense_support(B, X))
    assert calls == [m]


@pytest.mark.parametrize(
    "m, n", [(3, 0), (100, 3 * (_kernels._TILE // 100) + 17), (_kernels._TILE + 3, 5)]
)
def test_max_products_across_tiles(rng, m, n):
    B = rng.random((m, 3)) * rng.random((m, 1))
    X = rng.random((n, 3))
    assert np.array_equal(_kernels.max_products(B, X), (X[:, None] * B[None]).max(2))


@pytest.mark.parametrize(
    "m, n", [(20, 0), (20, 1), (20, 3 * (_kernels._TILE // 20) + 17), (_kernels._TILE + 3, 5)]
)
def test_dense_support_across_tiles_of_one_block(rng, m, n):
    # the clamped points and both tiles share one block; the output is its own
    B = rng.random((m, 4)) * (rng.random((m, 4)) > 0.3)
    X = rng.random((n, 4)) - 0.1
    h = _kernels.support_sum(B, X)
    assert h.base is None and h.shape == (n,)
    assert np.array_equal(h, dense_support(B, X))


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


@pytest.mark.parametrize("m", [64, 406, 1000, 3000])
def test_batch_sized_blocks_match_dense(rng, m):
    # blocks of about sqrt(8 n) atoms; a value sums at most b terms in a
    # table and 4 ceil(m/b) table reads, each a sum of nonnegative terms
    B = rng.random((m, 3)) * rng.random((m, 1))
    B[::7, 0] = 0.0
    for n in (1, 7, 100, 1000, 2016, 3367, 20_000):
        X = rng.random((n, 3))
        b = _kernels._block(m, n)
        cap = min(_kernels._BLOCK, max(1, math.isqrt(8 * n)))
        assert b <= cap and -(-m // b) == -(-m // cap)
        # the dense definition by max_products, equal to it bit for bit and faster
        ref = np.concatenate([_kernels.max_products(B, X[lo : lo + 1024]).sum(1) for lo in range(0, n, 1024)])
        bound = (b + 4 * -(-m // b)) * np.finfo(float).eps
        np.testing.assert_allclose(_kernels._support_sum_3d(B, X), ref, rtol=bound, atol=0)


def test_tables_pay_from_about_a_thousand_points():
    # the d = 3 grids of discretize and the distances: an orbit error check
    # (352 directions) stays dense, the asymmetric one (2,016) and the
    # Hausdorff orbits (3,367) take tables; bodies of 25 atoms or fewer never do
    assert not _kernels._tables_pay(406, 352)
    assert _kernels._tables_pay(406, 2016) and _kernels._tables_pay(406, 3367)
    assert not _kernels._tables_pay(406, 768) and _kernels._tables_pay(406, 1280)
    assert not any(_kernels._tables_pay(25, n) for n in (10, 1000, 10**6))


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
    for B, X in ((B, X[:400]), (B[:20], X), (rng.random((400, 4)), rng.random((8000, 4)))):
        assert np.array_equal(_kernels.support_sum(B, X), dense_support(B, X))
    assert calls == [(400, 8000)]


def test_hausdorff_of_nnls_fit_takes_tables(monkeypatch):
    # the fit is read on one grid direction per orbit of the coordinate
    # swaps: 3,367 of 19,900, which the batch-sized blocks make pay
    fit = zonoid_from_spectral(discretize(make_family("logistic", 3, p=1.5), 500).measure)
    calls = _count_table_calls(monkeypatch)
    hausdorff_distance(fit, make_family("logistic", 3, p=1.5))
    assert calls == [(fit.spectral.n_atoms, 3367)]
    assert len(_distance_grid(3, None)) == 19900


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
