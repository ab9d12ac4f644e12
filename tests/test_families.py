import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import nnls
from scipy.special import ndtr

from maxzonoid import (
    DependencySet,
    MaxStableModel,
    discretize,
    families,
    make_family,
    minkowski_combine,
    polygon_from_spectral,
    simulate,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_spectral,
)
from maxzonoid import _kernels, geometry
from maxzonoid.geometry import (
    AnalyticNorm,
    MaxZonoid,
    _distance_grid,
    _simplex_lattice,
    _support_finite,
    hausdorff_distance,
    scale,
)
from maxzonoid.spectral import _point_keys, make_measure


def simplex_grid(n=201):
    t = np.linspace(0, 1, n)
    return np.column_stack([t, 1 - t])


class TestMakeFamily:
    def test_logistic_p1_is_independence(self, rng):
        K = make_family("logistic", 3, p=1.0)
        X = rng.random((20, 3))
        np.testing.assert_allclose(
            support_function(K, X), support_function(unit_cube(3), X), rtol=1e-12
        )

    def test_logistic_pinf_is_dependence(self, rng):
        K = make_family("logistic", 2, p=np.inf)
        X = rng.random((20, 2))
        np.testing.assert_allclose(
            support_function(K, X),
            support_function(unit_cross_polytope(2), X),
            rtol=1e-12,
        )

    def test_logistic_ones_value(self):
        for d in (2, 3, 4):
            for p in (1.0, 2.0, 3.5):
                K = make_family("logistic", d, p=p)
                assert support_function(K, np.ones(d)) == pytest.approx(
                    d ** (1 / p), rel=1e-12
                )

    @pytest.mark.parametrize("name, params", [
        ("logistic", {"p": math.nan}),
        ("neg_logistic", {"lam": math.nan, "p": -1.0}),
        ("neg_logistic", {"lam": 0.5, "p": math.nan}),
        ("husler_reiss", {"lam": math.nan}),
        ("marshall_olkin", {"alpha1": math.nan, "alpha2": 0.5}),
        ("matrix_weights", {"matrix": [[math.nan, 0.5], [1.0, 0.5]]}),
        ("matrix_weights", {"matrix": [[1.0, 0.5], [0.0, math.nan]]}),
    ])
    def test_nan_parameter_rejected(self, name, params):
        with pytest.raises(ValueError):
            make_family(name, 2, **params)

    def test_logistic_parameter_range(self):
        with pytest.raises(ValueError, match="p >= 1"):
            make_family("logistic", 2, p=0.5)

    def test_every_family_is_dependency(self):
        specs = [
            ("independence", 3, {}),
            ("dependence", 3, {}),
            ("logistic", 3, {"p": 2.5}),
            ("neg_logistic", 2, {"lam": 0.6, "p": -1.0}),
            ("husler_reiss", 2, {"lam": 0.7}),
            ("marshall_olkin", 2, {"alpha1": 0.2, "alpha2": 0.8}),
            ("matrix_weights", 2, {"matrix": [[0.5, 0.3], [0.5, 0.7]]}),
        ]
        for name, d, params in specs:
            K = make_family(name, d, **params)
            assert isinstance(K, DependencySet), name
            np.testing.assert_allclose(K.marginals(), 1.0, atol=1e-9)

    def test_family_sandwich_on_rays(self, rng):
        X = rng.random((100, 2)) * 3
        for K in (
            make_family("logistic", 2, p=3.0),
            make_family("neg_logistic", 2, lam=0.9, p=-2.0),
            make_family("husler_reiss", 2, lam=0.4),
            make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.3),
        ):
            h = support_function(K, X)
            assert np.all(h <= X.sum(axis=1) + 1e-9)
            assert np.all(h >= X.max(axis=1) - 1e-9)


class TestNegLogistic:
    def test_lam_zero_is_independence(self):
        K = make_family("neg_logistic", 2, lam=0.0, p=-1.0)
        assert support_function(K, [1.0, 1.0]) == pytest.approx(2.0)

    def test_norm_value(self):
        K = make_family("neg_logistic", 2, lam=0.5, p=-2.0)
        x = np.array([1.0, 2.0])
        expected = 3.0 - 0.5 * (1.0 + 2.0**-2.0) ** -0.5
        assert support_function(K, x) == pytest.approx(expected, rel=1e-12)

    def test_p_minus_inf_uses_min(self):
        K = make_family("neg_logistic", 2, lam=0.5, p=-np.inf)
        assert support_function(K, [1.0, 2.0]) == pytest.approx(3.0 - 0.5)

    def test_axis_continuity(self):
        K = make_family("neg_logistic", 2, lam=0.8, p=-1.0)
        assert support_function(K, [1.0, 0.0]) == pytest.approx(1.0)
        assert support_function(K, [1.0, 1e-12]) == pytest.approx(1.0, abs=1e-9)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="0, 1"):
            make_family("neg_logistic", 2, lam=1.5, p=-1.0)
        with pytest.raises(ValueError, match="-inf, 0"):
            make_family("neg_logistic", 2, lam=0.5, p=1.0)


class TestNormalCdf:
    def test_matches_ndtr_on_dense_grid(self):
        x = np.linspace(-38.0, 9.0, 400_001)
        ref = ndtr(x)
        on = ref > 1e-300
        rel = np.abs(families._normal_cdf(x[on]) - ref[on]) / ref[on]
        assert rel.max() <= 2e-13

    def test_special_values(self):
        out = families._normal_cdf(np.array([-np.inf, np.inf, np.nan, 0.0]))
        assert out[0] == 0.0 and out[1] == 1.0 and np.isnan(out[2]) and out[3] == 0.5

    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3)])
    def test_keeps_shape(self, shape):
        out = families._normal_cdf(np.full(shape, 0.25))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float


class TestHuslerReiss:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 3.0, 20.0])
    def test_fn_and_grad_match_ndtr_formula(self, rng, lam):
        X = np.exp(rng.normal(scale=3.0, size=(500, 2)))
        X[:20, 0] = 0.0  # axis points
        X[20:40, 1] = 0.0
        X[40] = 0.0
        K = make_family("husler_reiss", 2, lam=lam)
        x1, x2 = X[:, 0], X[:, 1]
        inner = (x1 > 0) & (x2 > 0)
        r = np.log(np.where(inner, x1, 1.0) / np.where(inner, x2, 1.0))
        a, b = ndtr(lam + r / (2 * lam)), ndtr(lam - r / (2 * lam))
        h = np.where(inner, x1 * a + x2 * b, x1 + x2)
        g = np.column_stack([np.where(inner, a, x1 > 0), np.where(inner, b, x2 > 0)])
        np.testing.assert_allclose(K.norm.fn(X), h, rtol=1e-13, atol=0)
        # ndtr flushes to zero where erfc still returns a subnormal
        np.testing.assert_allclose(K.norm.grad(X), g, rtol=1e-13, atol=1e-300)

    def test_ones_value_is_2phi(self):
        for lam in (0.2, 0.8, 2.0):
            K = make_family("husler_reiss", 2, lam=lam)
            assert support_function(K, [1.0, 1.0]) == pytest.approx(
                2 * ndtr(lam), rel=1e-12
            )

    def test_extreme_parameters(self):
        K = make_family("husler_reiss", 2, lam=100.0)
        assert support_function(K, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)
        K = make_family("husler_reiss", 2, lam=0.01)
        assert support_function(K, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-2)

    def test_endpoints_are_discrete(self):
        assert make_family("husler_reiss", 2, lam=0.0).spectral is not None
        assert make_family("husler_reiss", 2, lam=np.inf).spectral is not None

    def test_axis_value(self):
        K = make_family("husler_reiss", 2, lam=0.5)
        assert support_function(K, [3.0, 0.0]) == pytest.approx(3.0)

    def test_gradient_matches_finite_differences(self):
        K = make_family("husler_reiss", 2, lam=0.8)
        X = np.array([[1.3, 0.7], [0.5, 2.0]])
        g = K.norm.grad(X)
        eps = 1e-6
        for i in range(2):
            up, dn = X.copy(), X.copy()
            up[:, i] += eps
            dn[:, i] -= eps
            fd = (K.norm.fn(up) - K.norm.fn(dn)) / (2 * eps)
            np.testing.assert_allclose(g[:, i], fd, atol=1e-7)


class TestMarshallOlkin:
    def test_polygon_vertices(self):
        K = make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5)
        np.testing.assert_allclose(
            polygon_from_spectral(K.spectral).vertices, [[1, 0], [1, 0.5], [0.5, 1], [0, 1]]
        )

    def test_degenerate_corners(self):
        K0 = make_family("marshall_olkin", 2, alpha1=0.0, alpha2=0.0)
        np.testing.assert_allclose(polygon_from_spectral(K0.spectral).vertices, [[1, 0], [0, 1]])
        K1 = make_family("marshall_olkin", 2, alpha1=1.0, alpha2=1.0)
        np.testing.assert_allclose(polygon_from_spectral(K1.spectral).vertices, [[1, 0], [1, 1], [0, 1]])


class TestMatrixWeights:
    def test_identity_is_independence(self):
        K = make_family("matrix_weights", 2, matrix=np.eye(2))
        assert support_function(K, [1.0, 1.0]) == pytest.approx(2.0)

    def test_ones_row_is_dependence(self):
        K = make_family("matrix_weights", 2, matrix=[[1.0, 1.0]])
        assert support_function(K, [1.0, 1.0]) == pytest.approx(1.0)

    def test_column_sum_validation(self):
        with pytest.raises(ValueError, match="column sums"):
            make_family("matrix_weights", 2, matrix=[[0.5, 0.5], [0.4, 0.5]])

    def test_support_formula(self, rng):
        A = rng.random((4, 3)) + 0.1
        A = A / A.sum(axis=0)
        K = make_family("matrix_weights", 3, matrix=A)
        X = rng.random((20, 3))
        brute = np.array([(A * x).max(axis=1).sum() for x in X])
        np.testing.assert_allclose(support_function(K, X), brute, rtol=1e-12)


class TestDiscretize:
    # an analytic body off unit marginals is refused as an atom list is: a
    # fit would be of another body (the (1, 2, 3)-scaled logistic read 2.0)
    @pytest.mark.parametrize("d, lam", [(2, (1.0, 2.0)), (3, (1.0, 2.0, 3.0)), (3, (1.0, 1.0, 1.0 + 2e-6))])
    def test_analytic_body_needs_unit_marginals(self, d, lam):
        with pytest.raises(ValueError, match="marginal sums 1 within DEP_TOL"):
            discretize(scale(make_family("logistic", d, p=1.5), lam))

    def test_analytic_body_within_dep_tol_is_fit(self):
        K = scale(make_family("logistic", 3, p=1.5), (1.0, 1.0, 1.0 + 5e-7))
        res = discretize(K, 100)
        assert res.max_support_error.method == "nnls-bpp" and res.max_support_error < 1e-2

    def test_discrete_input_exact(self):
        res = discretize(unit_cube(2), 10)
        assert res.max_support_error == 0.0
        assert res.measure.n_atoms == 2

    def test_minimum_atoms(self):
        with pytest.raises(ValueError, match="m must be at least 2, got 1"):
            discretize(make_family("logistic", 2, p=2.0), 1)

    def test_counts_must_be_integers(self):
        # inf last: it hung the old lattice loop, which raised nothing for nan
        K = make_family("logistic", 3, p=2.0)
        for bad in (math.nan, 2.5, math.inf):
            with pytest.raises(ValueError, match="m must be an integer"):
                discretize(K, bad)
        for bad in (math.nan, 2.5, math.inf):
            with pytest.raises(ValueError, match="n_eval must be an integer"):
                discretize(K, 10, bad)

    # a norm that is NaN at one interior direction of the resolution-62 error
    # lattice, which the resolution-61 fit lattice misses: the fit succeeds,
    # and its error is never a NaN
    def test_nan_on_the_error_lattice_raises(self):
        base = make_family("logistic", 3, p=1.5).norm
        bad = _simplex_lattice(3, 2048)[100]
        assert (bad > 0).all()

        def fn(X):
            out = base.fn(X)
            out[(X == bad).all(axis=1)] = np.nan
            return out

        K = MaxZonoid(d=3, norm=AnalyticNorm("nan-at-one-direction", 3, fn, base.grad))
        assert not np.isnan(families._fit_nnls(K, 500).masses).any()
        with pytest.raises(ValueError, match="support function is NaN at 1 of 2016 points"):
            discretize(K, 500)

    # a norm that is NaN at one interior point of the resolution-61 fit
    # lattice, which the resolution-62 error lattice misses: the fit reads
    # it, and raises before building its design
    def test_nan_on_the_fit_lattice_alone_raises(self):
        base = make_family("logistic", 3, p=1.5).norm
        fit = _fit_lattice(3, 500)
        bad = fit[100]
        assert (bad > 0).all() and not (_simplex_lattice(3, 2048) == bad).all(axis=1).any()

        def fn(X):
            return np.where((X == bad).all(axis=1), np.nan, base.fn(X))

        K = MaxZonoid(d=3, norm=AnalyticNorm("nan-on-the-fit-lattice", 3, fn, base.grad))
        with pytest.raises(ValueError, match="support function is NaN"):
            discretize(K, 500)

    # the gap measured on the axes alone reads 0 for every fit: the first
    # set with an off-axis direction has 3 points on the quarter circle and
    # d(d + 1)/2 points, the resolution-2 simplex lattice, in d >= 3
    @pytest.mark.parametrize("d, least", [(2, 3), (3, 6), (4, 10)])
    def test_n_eval_needs_an_off_axis_direction(self, d, least):
        K = make_family("logistic", d, p=1.5)
        for bad in (0, 1, least - 1):
            with pytest.raises(ValueError, match=f"n_eval = {bad} .*need {least}"):
                discretize(K, 60, n_eval=bad)
            with pytest.raises(ValueError, match="n_eval"):
                discretize(unit_cube(d), 60, n_eval=bad)
        res = discretize(K, 60, n_eval=least)
        assert res.max_support_error.n_samples == least
        assert res.max_support_error > 1e-4

    def test_one_dimension_takes_any_n_eval(self):
        res = discretize(make_family("logistic", 1, p=2.0), 10, n_eval=0)
        assert res.max_support_error == 0.0

    @pytest.mark.parametrize("d, m", [(3, 2), (4, 2), (4, 3), (5, 4)])
    def test_lattice_needs_d_atoms(self, d, m):
        with pytest.raises(ValueError, match=f"at least {d} atoms"):
            discretize(make_family("logistic", d, p=2.0), m)
        res = discretize(make_family("logistic", d, p=2.0), d)
        assert res.measure.n_atoms <= d

    def test_planar_chain_keeps_every_support_point(self):
        # 1000 directions and the two axis points: 1001 edges, all kept
        res = discretize(make_family("logistic", 2, p=2.0), 1000)
        assert res.measure.n_atoms == 1001
        assert res.max_support_error < 2e-6

    # marginals (1 + drift, 1): renormalizing a drift of 0.5 is another body,
    # h(1, 1) = 1.667 where the list has 2.0; one within DEP_TOL is rounding
    @pytest.mark.parametrize("drift", [0.5, 2e-6, 5e-7, -5e-7])
    def test_atom_list_needs_unit_marginals(self, drift):
        sigma = make_measure([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], [0.5 + drift, 1.0, 0.5])
        K = MaxZonoid(d=2, spectral=sigma)
        if abs(drift) > 1e-6:
            with pytest.raises(ValueError, match="marginal sums 1 within DEP_TOL"):
                discretize(K)
            return
        res = discretize(K)
        assert res.max_support_error == 0.0 and res.max_support_error.method == "atoms"
        np.testing.assert_allclose(res.measure.marginal_sums(), 1.0, rtol=0, atol=4e-16)

    def test_method_is_reported(self):
        assert discretize(unit_cube(3), 10).max_support_error.method == "atoms"
        assert discretize(make_family("logistic", 2, p=2.0), 50).max_support_error.method == "planar-chain"
        err = discretize(make_family("logistic", 3, p=2.0), 50).max_support_error
        assert err.method == "nnls-bpp"
        assert err.n_samples == len(_simplex_lattice(3, 2048)) == 2016

    def test_logistic_error_bound(self):
        res = discretize(make_family("logistic", 2, p=2.0), 1000)
        assert res.max_support_error < 1e-4

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.5, 1.0, 3.0])
    def test_husler_reiss_at_default_atoms(self, lam):
        # the support points underflow towards the axis ends at small lam;
        # the chain must still run from (1, 0) to (0, 1)
        res = discretize(make_family("husler_reiss", 2, lam=lam), 1000)
        np.testing.assert_allclose(res.measure.marginal_sums(), 1.0, atol=1e-12)
        assert res.max_support_error < 1e-4

    def test_marginals_exactly_one(self):
        for fam in (
            make_family("logistic", 2, p=3.0),
            make_family("husler_reiss", 2, lam=0.6),
            make_family("neg_logistic", 2, lam=0.7, p=-1.5),
        ):
            res = discretize(fam, 400)
            np.testing.assert_allclose(res.measure.marginal_sums(), 1.0, atol=1e-12)
            assert res.max_support_error < 1e-3

    def test_error_decreases_with_m(self):
        K = make_family("husler_reiss", 2, lam=0.8)
        errs = [discretize(K, m).max_support_error for m in (16, 64, 256)]
        assert errs[0] > errs[1] > errs[2]

    def test_one_dimension_is_one_atom(self):
        res = discretize(make_family("logistic", 1, p=2.0), 10)
        np.testing.assert_array_equal(res.measure.atoms, [[1.0]])
        np.testing.assert_array_equal(res.measure.masses, [1.0])
        assert res.max_support_error == 0.0

    # errors of the fits on the quasi-random Sobol directions that the
    # simplex lattice replaced, at the same 1e5 Dirichlet directions
    @pytest.mark.parametrize(
        "p, d, m, sobol_error",
        [(1.5, 3, 500, 1.4178e-3), (2.5, 3, 500, 2.6438e-4), (1.2, 3, 1000, 1.4829e-3), (2.5, 4, 500, 2.8949e-3)],
    )
    def test_lattice_fit_no_worse_than_sobol(self, p, d, m, sobol_error):
        K = make_family("logistic", d, p=p)
        res = discretize(K, m)
        X = np.random.default_rng(0).dirichlet(np.ones(d), 100_000)
        approx = zonoid_from_spectral(res.measure)
        err = np.abs(support_function(approx, X) - support_function(K, X)).max()
        assert err <= sobol_error

    def test_d3_logistic_nnls(self):
        K = make_family("logistic", 3, p=2.0)
        res = discretize(K, 150)
        np.testing.assert_allclose(res.measure.marginal_sums(), 1.0, atol=1e-12)
        assert res.max_support_error < 0.02
        X = np.random.default_rng(0).random((20, 3))
        approx = zonoid_from_spectral(res.measure)
        np.testing.assert_allclose(
            support_function(approx, X), support_function(K, X), atol=0.05
        )


def test_ulp_moves_keep_fitted_atom_order_and_draws():
    # the positive coordinates of each atom move up 1-4 ulps, as a refit's
    # marginal renormalization moves them: sorted by their 9-decimal keys
    # the atoms keep their order, so a simulation at a fixed seed keeps its
    # rows.  One atom's coordinates move alike: a draw of an atom whose
    # coordinates tie at its maximum may end its row's draws sooner, which
    # would move the random stream of the rows after it
    sigma = discretize(make_family("logistic", 3, p=1.5), 500).measure
    P = sigma.atoms
    ulps = np.random.default_rng(0).integers(1, 5, (len(P), 1))
    moved = np.where(P > 0, P + ulps * np.spacing(P), 0.0)
    ref, got = make_measure(P, sigma.masses), make_measure(moved, sigma.masses)
    assert got.n_atoms == ref.n_atoms == sigma.n_atoms
    np.testing.assert_allclose(got.atoms, ref.atoms, rtol=0, atol=1e-14)
    draws = [simulate(MaxStableModel(zonoid_from_spectral(s)), 200, seed=7).values for s in (ref, got)]
    np.testing.assert_allclose(draws[0], draws[1], rtol=1e-13, atol=0)


def _simplex_lattice_by_list(d, m):
    """The lattice as built from a list of bar tuples, the reference order."""
    r = 1
    while math.comb(r + d, d - 1) <= m:
        r += 1
    bars = np.array(list(itertools.combinations(range(r + d - 1), d - 1)))
    bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, r + d - 1))
    return (np.diff(bars, axis=1) - 1) / r


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", ["d", 50, 500, 20_000])
def test_simplex_lattice_matches_list_builder(d, m):
    m = d if m == "d" else m
    L = _simplex_lattice(d, m)
    ref = _simplex_lattice_by_list(d, m)
    assert L.shape == ref.shape and len(L) <= max(m, d)
    assert np.array_equal(L, ref)


def _kkt_violation(A, b, x):
    """Largest breach of x >= 0, g = 0 on x > 0 and g >= 0 on x = 0, with
    g = A'(A x - b), each measured against the rounding scale of g."""
    g = A.T @ (A @ x - b)
    scale = np.abs(A).T @ (np.abs(A) @ x + np.abs(b)) + 1e-300
    on = x > 0
    return max(
        -x.min(initial=0.0),
        (np.abs(g[on]) / scale[on]).max(initial=0.0),
        (-g[~on] / scale[~on]).max(initial=0.0),
    )


class TestNnlsBpp:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        extra_rows=st.integers(0, 30),
        sparsity=st.sampled_from([0.0, 0.3, 0.6]),
        target=st.sampled_from(["noise", "exact-fit", "cone-plus-noise", "scaled"]),
    )
    def test_matches_scipy_and_kkt(self, seed, n, extra_rows, sparsity, target):
        rng = np.random.default_rng(seed)
        m = n + extra_rows
        A = rng.random((m, n)) * (rng.random((m, n)) >= sparsity)
        assume(np.linalg.matrix_rank(A) == n and np.linalg.cond(A) < 1e4)
        w0 = rng.random(n) * (rng.random(n) < 0.5)  # zeros make the fit degenerate
        b = {
            "noise": rng.normal(size=m),
            "exact-fit": A @ w0,
            "cone-plus-noise": A @ w0 + 1e-3 * rng.normal(size=m),
            "scaled": rng.normal(size=m) * 10.0 ** rng.uniform(-6, 6),
        }[target]
        x = families._nnls_bpp(A, b)
        ref, _ = nnls(A, b)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10 * max(1.0, np.abs(ref).max()))
        assert _kkt_violation(A, b, x) < 1e-10

    def test_nonpositive_target_gives_zero(self, rng):
        A = rng.random((20, 6))
        for b in (np.zeros(20), -rng.random(20)):
            assert np.array_equal(families._nnls_bpp(A, b), np.zeros(6))

    def test_zero_target_degenerates_discretize(self):
        # the zero norm's marginals are 0: refused before any fit
        zero = AnalyticNorm("zero", 3, lambda X: np.zeros(len(X)))
        with pytest.raises(ValueError, match="marginal sums 1 within DEP_TOL"):
            discretize(MaxZonoid(d=3, norm=zero), 50)

    def test_exact_fit_returns_weights(self, rng):
        A = rng.random((40, 15))
        w0 = rng.random(15) * (rng.random(15) < 0.6)
        np.testing.assert_allclose(families._nnls_bpp(A, A @ w0), w0, rtol=0, atol=1e-12)

    def test_single_column(self):
        a = np.array([[1.0], [2.0], [0.5]])
        b = np.array([1.0, 1.0, -1.0])
        np.testing.assert_allclose(families._nnls_bpp(a, b), [2.5 / 5.25], rtol=1e-14)
        np.testing.assert_array_equal(families._nnls_bpp(a, -b), [0.0])

    # the two fits of the benchmark's compare workload, one in d = 4, and
    # the fine lattice where a looser KKT tolerance drops two atoms
    @pytest.mark.parametrize("p, d, m", [(1.5, 3, 500), (2.5, 3, 500), (2.5, 4, 500), (1.2, 3, 1000)])
    def test_lattice_fit_matches_scipy(self, monkeypatch, p, d, m):
        K = make_family("logistic", d, p=p)
        fits = []

        def recording(A, b, G=None, _solve=families._nnls_bpp):
            fits.append((A, b, _solve(A, b, G)))
            return fits[-1][2]

        monkeypatch.setattr(families, "_nnls_bpp", recording)
        res = discretize(K, m)
        (A, b, w), = fits
        # the Cholesky form of the solver, which the LU solves replaced:
        # same support, same weights to rounding
        chol = _nnls_bpp_cholesky(A, b)
        np.testing.assert_array_equal(w > 1e-12, chol > 1e-12)
        np.testing.assert_allclose(w, chol, rtol=0, atol=1e-12)
        ref, _ = nnls(A, b)
        np.testing.assert_array_equal(w > 1e-12, ref > 1e-12)
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-11)
        monkeypatch.setattr(families, "_nnls_bpp", lambda A, b, G=None: ref)
        assert res.max_support_error == pytest.approx(discretize(K, m).max_support_error, rel=1e-12)

    # the passive block taken by index, not by np.ix_: the same fit bit for bit
    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_fit_matches_ix_reference(self, monkeypatch, p):
        K = make_family("logistic", 3, p=p)
        res = discretize(K, 500)
        monkeypatch.setattr(families, "_nnls_bpp", _nnls_bpp_ix)
        ref = discretize(K, 500)
        assert np.array_equal(res.measure.atoms, ref.measure.atoms)
        assert np.array_equal(res.measure.masses, ref.measure.masses)
        assert float(res.max_support_error) == float(ref.max_support_error)

    # the orbit fit against the fit on the full lattice design, by block
    # principal pivoting and by scipy: the same atoms, masses and error.
    # The point orbits of the resolution-r fit lattice under all swaps are
    # the partitions of r into at most d parts: round((r + 3)^2 / 12) in
    # d = 3, so 341 at r = 61 (1,953 points) and 675 at r = 87 (3,916);
    # in d = 4, r = 20 (1,771 points), 108 partitions of 20
    @pytest.mark.parametrize(
        "p, d, m, orbits, rows",
        [(1.5, 3, 500, 91, 341), (2.5, 3, 500, 91, 341), (1.2, 3, 1000, 176, 675), (2.5, 4, 500, 34, 108)],
    )
    def test_orbit_fit_matches_full_design(self, monkeypatch, p, d, m, orbits, rows):
        K = make_family("logistic", d, p=p)
        res, (A, _) = _recorded_fit(monkeypatch, K, m)
        assert A.shape == (rows, orbits)
        _assert_fit_matches_full_design(monkeypatch, K, m, res)

    def test_asymmetric_body_keeps_the_full_design(self, monkeypatch):
        K = minkowski_combine(make_family("logistic", 3, p=1.5), unit_cube(3), [0.2, 0.5, 0.8])
        res, (A, _) = _recorded_fit(monkeypatch, K, 500)
        atoms, X = _simplex_lattice(3, 500), _fit_lattice(3, 500)
        assert np.array_equal(A, _kernels.max_products(atoms, X))
        # the fit as written before orbits: one mass per lattice atom
        w = families._nnls_bpp(A, _support_finite(K, X))
        keep = w > 1e-12
        ref = families._renormalize_marginals(make_measure(atoms[keep], w[keep]))
        assert np.array_equal(res.measure.atoms, ref.atoms)
        assert np.array_equal(res.measure.masses, ref.masses)
        # the mass sum is the three unit marginals' 3.0 to rounding; its last
        # bits follow the BLAS thread count, so it is pinned to 16 ulps
        assert res.measure.n_atoms == 350
        assert abs(res.measure.masses.sum() - 3.0) <= 16 * np.spacing(3.0)

    # two equal weights keep a swap, but not every permutation: the fit
    # takes the full design and data, and the error and the Hausdorff
    # distance read every direction of their grids, bit for bit
    @pytest.mark.parametrize("lam", [(0.3, 0.3, 0.6), (0.3, 0.6, 0.3, 0.6)])
    def test_partially_symmetric_body_keeps_the_full_design(self, monkeypatch, lam):
        d = len(lam)
        K = minkowski_combine(make_family("logistic", d, p=2.5), unit_cube(d), lam)
        res, (A, b) = _recorded_fit(monkeypatch, K, 500)
        atoms, X = _simplex_lattice(d, 500), _fit_lattice(d, 500)
        assert np.array_equal(A, _kernels.max_products(atoms, X))
        assert np.array_equal(b, _support_finite(K, X))
        fit = zonoid_from_spectral(res.measure)
        E = _simplex_lattice(d, 2048)
        assert res.max_support_error == np.abs(_support_finite(K, E) - _support_finite(fit, E)).max()
        U = _distance_grid(d, None)
        U = U / np.linalg.norm(U, axis=1, keepdims=True)
        assert hausdorff_distance(fit, K) == np.abs(_support_finite(fit, U) - _support_finite(K, U)).max()

    def test_point_orbits_are_sorted_coordinates(self):
        # the design's labels, from the orbit map when symmetric: one per
        # point, equal exactly on points equal after sorting, numbered from
        # the largest orbit down; without symmetry each point is its own
        # orbit, in lattice order
        X = _fit_lattice(3, 500)
        for symmetric in (False, True):
            label, row = families._fit_design(3, 500, 1984, symmetric)[:2]
            assert len(label) == len(_simplex_lattice(3, 500))
            S = np.sort(X, axis=1) if symmetric else X
            _, ref = np.unique(S, axis=0, return_inverse=True)
            ref = ref.ravel()
            assert np.array_equal(row[:, None] == row, ref[:, None] == ref)
            assert np.all(np.diff(np.bincount(row)) <= 0)
        assert np.array_equal(families._fit_design(3, 500, 1984, False)[1], np.arange(len(X)))

    def test_rank_deficient_design_raises(self):
        # two equal columns, both in the first passive set: an exactly
        # singular block, never a set of weights
        A = np.round(np.random.default_rng(0).random((12, 5)) * 8.0)
        A[:, 3] = A[:, 1]
        with pytest.raises(np.linalg.LinAlgError):
            families._nnls_bpp(A, A @ np.ones(5))
        assert issubclass(np.linalg.LinAlgError, ValueError)

    def test_cycling_raises(self, monkeypatch, rng):
        # a solve that is never feasible keeps every step infeasible
        monkeypatch.setattr(np.linalg, "solve", lambda G, rhs: -np.ones_like(rhs))
        with pytest.raises(ValueError, match="did not terminate"):
            families._nnls_bpp(rng.random((12, 5)), rng.random(12))


class TestOrbitDesignTaken:
    """Every logistic fit in d = 3-5 at 500 and 1,000 atoms takes the orbit
    design, as the benchmark's fits do: its G has fewer columns than the
    lattice has atoms, so no tolerance can move them to the full design
    unseen."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.5])
    @pytest.mark.parametrize("d, m", [(3, 500), (3, 1000), (4, 500), (4, 1000), (5, 500), (5, 1000)])
    def test_fewer_columns_than_atoms(self, monkeypatch, d, m, p):
        solves = []

        def recording(A, b, G=None, _solve=families._nnls_bpp):
            solves.append(G.shape[1])
            return _solve(A, b, G)

        monkeypatch.setattr(families, "_nnls_bpp", recording)
        discretize(make_family("logistic", d, p=p), m)
        assert solves and solves[0] < len(_simplex_lattice(d, m))


class TestFitDesign:
    """The lattice-only part of the d >= 3 fit, cached per lattice and
    symmetry: a cold and a warm fit agree bit for bit."""

    @pytest.mark.parametrize(
        "K",
        [
            make_family("logistic", 3, p=1.5),
            make_family("logistic", 3, p=2.5),
            minkowski_combine(make_family("logistic", 3, p=1.5), unit_cube(3), [0.2, 0.5, 0.8]),
        ],
        ids=["logistic-1.5", "logistic-2.5", "logistic-plus-cube-asymmetric"],
    )
    def test_cold_and_warm_fits_agree(self, K):
        families._fit_design.cache_clear()
        cold = discretize(K, 500)
        warm = discretize(K, 500)
        assert np.array_equal(cold.measure.atoms, warm.measure.atoms)
        assert np.array_equal(cold.measure.masses, warm.measure.masses)
        assert float(cold.max_support_error) == float(warm.max_support_error)

    def test_second_fit_is_a_cache_hit(self):
        K = make_family("logistic", 3, p=1.5)
        families._fit_design.cache_clear()
        discretize(K, 500)
        assert families._fit_design.cache_info()[:2] == (0, 1)  # (hits, misses)
        discretize(K, 500)
        assert families._fit_design.cache_info()[:2] == (1, 1)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_cached_arrays_are_read_only(self, symmetric):
        # 1,984 fit points bound the fit lattice: four times the 496 atoms
        for a in families._fit_design(3, 500, 1984, symmetric):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_exchangeable_and_asymmetric_bodies_get_their_own_designs(self, monkeypatch):
        families._fit_design.cache_clear()
        _, (A1, _) = _recorded_fit(monkeypatch, make_family("logistic", 3, p=1.5), 500)
        _, (A2, _) = _recorded_fit(
            monkeypatch, minkowski_combine(make_family("logistic", 3, p=1.5), unit_cube(3), [0.2, 0.5, 0.8]), 500
        )
        assert (A1.shape, A2.shape) == ((341, 91), (1953, 496))
        assert families._fit_design.cache_info()[:2] == (0, 2)
        _, (A3, _) = _recorded_fit(monkeypatch, make_family("logistic", 3, p=2.5), 500)
        assert A3 is A1


class TestOrbitFitMarginals:
    """An orbit fit's masses are divided by one factor, the mean of its
    marginal sums, so they stay equal on each atom orbit: the fit is as
    symmetric as its lattice atoms, whose l1 normalization rounds."""

    # the fits whose bits do not follow the BLAS thread count; d = 4 and
    # d = 5 at m = 1000 read the largest marginal gaps, 12 ulps
    @pytest.mark.parametrize(
        "d, p, m", [(3, 1.2, 500), (3, 1.5, 500), (3, 2.5, 500), (4, 2.0, 1000), (5, 1.5, 500), (5, 1.5, 1000)]
    )
    def test_masses_equal_on_atom_orbits(self, d, p, m):
        sigma = discretize(make_family("logistic", d, p=p), m).measure
        _, orbit = np.unique(np.sort(_point_keys(sigma.atoms), axis=1), axis=0, return_inverse=True)
        _, first = np.unique(orbit, return_index=True)  # each orbit's first atom
        assert np.array_equal(sigma.masses, sigma.masses[first][orbit])
        assert geometry._atoms_exchangeable(sigma.scaled_atoms)
        assert np.abs(sigma.marginal_sums() - 1.0).max() <= 15 * np.spacing(1.0)


class TestGram:
    """_gram(A), the fit's A'A: on the calling thread, in a fixed order."""

    # entries of 26 bits, so each product is exact and math.fsum of a column
    # pair's products is that entry of A'A correctly rounded; any order of
    # the n-term sums stays within gamma_n = n u / (1 - n u) of |A|'|A|
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (64, 64), (65, 129), (300, 70), (40, 150)])
    def test_within_rounding_of_fsum(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        A = np.round((2.0 * rng.random(shape) - 1.0) * 2.0**25) / 2.0**25
        G = families._gram(A)
        assert G.shape == (shape[1], shape[1]) and np.array_equal(G, G.T)
        n, k = shape
        u = 2.0**-53
        gamma = n * u / (1.0 - n * u)
        for i in range(k):
            for j in range(i, k):
                ref = math.fsum(A[:, i] * A[:, j])
                assert abs(G[i, j] - ref) <= gamma * math.fsum(np.abs(A[:, i] * A[:, j]))

    # the 1,323 x 341 orbit design at m = 2000 and the 3,916 x 990 full one
    # at m = 1000, in fresh interpreters on 1 and 2 BLAS threads
    def test_same_bits_on_one_and_two_blas_threads(self):
        code = (
            "import hashlib, sys; from maxzonoid import families\n"
            "for m, n_fit, symmetric in ((2000, int(sys.argv[1]), True), (1000, int(sys.argv[2]), False)):\n"
            "    G = families._fit_design(3, m, n_fit, symmetric)[4]\n"
            "    print(G.shape, hashlib.sha256(G.tobytes()).hexdigest())\n"
        )
        args = [str(len(_fit_lattice(3, m))) for m in (2000, 1000)]
        src = os.path.dirname(os.path.dirname(families.__file__))
        out = []
        for threads in ("1", "2"):
            path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
            out.append(run.stdout)
        assert out[0].splitlines()[0].startswith("(341, 341)") and out[0].splitlines()[1].startswith("(990, 990)")
        assert out[0] == out[1]


def _fit_lattice(d, m):
    """The lattice the d >= 3 fit is made on, for the atom lattice of at most m."""
    return _simplex_lattice(d, min(max(4 * len(_simplex_lattice(d, m)), 1024), 8192))


def _assert_fit_matches_full_design(monkeypatch, K, m, res):
    """res, the orbit fit of K, against the fit on the full lattice design:
    with the fit data reported as not exchangeable, every atom is a column
    and every fit point a row of weight 1; that design is solved by
    block principal pivoting and by scipy.  The same kept atoms, masses
    within 1e-12, and errors within 1e-11 relative."""
    with monkeypatch.context() as patch:
        patch.setattr(families, "_values_exchangeable", lambda d, m, b: False)
        _, (A, _) = _recorded_fit(patch, K, m)
        assert A.shape == (len(_fit_lattice(K.d, m)), len(_simplex_lattice(K.d, m)))
        for solve in (families._nnls_bpp, lambda A, b, G=None: nnls(A, b)[0]):
            patch.setattr(families, "_nnls_bpp", solve)
            ref = discretize(K, m)
            _assert_same_atoms(res.measure, ref.measure)
            assert res.max_support_error == pytest.approx(ref.max_support_error, rel=1e-11)


def _assert_same_atoms(sigma, ref):
    """The same kept lattice atoms in the same order, and masses within
    1e-12: the marginal renormalization moves atoms by ulps, which do not
    move them in make_measure's order of 9-decimal keys."""
    assert sigma.atoms.shape == ref.atoms.shape
    np.testing.assert_allclose(sigma.atoms, ref.atoms, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sigma.masses, ref.masses, rtol=0, atol=1e-12)


def _recorded_fit(monkeypatch, K, m):
    """discretize(K, m) and the one (design, data) pair it handed the solver."""
    fits = []

    def recording(A, b, G=None, _solve=families._nnls_bpp):
        fits.append((A, b))
        return _solve(A, b, G)

    with monkeypatch.context() as patch:
        patch.setattr(families, "_nnls_bpp", recording)
        res = discretize(K, m)
    (fit,) = fits
    return res, fit


def _nnls_bpp_cholesky(A, b):
    """The block principal pivoting solver with scipy's Cholesky factor of
    each passive block, reused by the refinement step; a reference only."""
    G, c = A.T @ A, A.T @ b
    n = len(c)
    tol = n * np.finfo(float).eps * np.abs(c).max(initial=0.0)
    P = np.zeros(n, dtype=bool)
    x, y = np.zeros(n), -c
    best, backup = n + 1, 3
    for _ in range(3 * n + 1):
        bad = np.flatnonzero(P & (x < 0) | ~P & (y < -tol))
        if bad.size == 0:
            if P.any():
                x[P] += cho_solve(factor, (A.T @ (b - A @ x))[P])
            return np.maximum(x, 0.0)
        if bad.size < best:
            best, backup = bad.size, 3
        elif backup:
            backup -= 1
        else:
            bad = bad[-1:]
        P[bad] = ~P[bad]
        factor = cho_factor(G[np.ix_(P, P)])
        x = np.zeros(n)
        x[P] = cho_solve(factor, c[P])
        y = G @ x - c
    raise ValueError("block principal pivoting did not terminate")


def _nnls_bpp_ix(A, b, G=None):
    """The block principal pivoting solver with the passive block taken by
    G[np.ix_(P, P)]; a reference for the indexing only, on the library's
    Gram product."""
    G, c = families._gram(A) if G is None else G, A.T @ b
    n = len(c)
    tol = n * np.finfo(float).eps * np.abs(c).max(initial=0.0)
    P = np.zeros(n, dtype=bool)
    x, y = np.zeros(n), -c
    best, backup = n + 1, 3
    for _ in range(3 * n + 1):
        bad = np.flatnonzero(P & (x < 0) | ~P & (y < -tol))
        if bad.size == 0:
            if P.any():
                x[P] += np.linalg.solve(GP, (A.T @ (b - A @ x))[P])
            return np.maximum(x, 0.0)
        if bad.size < best:
            best, backup = bad.size, 3
        elif backup:
            backup -= 1
        else:
            bad = bad[-1:]
        P[bad] = ~P[bad]
        GP = G[np.ix_(P, P)]
        x = np.zeros(n)
        x[P] = np.linalg.solve(GP, c[P])
        y = G @ x - c
    raise ValueError("block principal pivoting did not terminate")
