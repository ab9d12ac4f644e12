import math
import re

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.stats import kendalltau, ks_2samp, kstest

from maxzonoid import (
    MaxStableModel,
    MaxZonoid,
    AnalyticNorm,
    cdf,
    copula,
    discretize,
    exponent_density,
    make_family,
    max_stability_check,
    minkowski_combine,
    normalize_dependency,
    pickands,
    quantile_curve,
    simulate,
    spectral_from_points,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_spectral,
)

from conftest import random_model


def dense_sample(A, n, rng):
    """Reference sampler by the definition: xi_j = max_k Z_k A_kj with
    Z_k iid unit Frechet, one Z per atom and draw."""
    Z = 1.0 / rng.standard_exponential((n, A.shape[0]))
    return (Z[:, :, None] * A[None, :, :]).max(axis=1)


@pytest.fixture(scope="module")
def models():
    return {
        "ind": MaxStableModel(unit_cube(2)),
        "dep": MaxStableModel(unit_cross_polytope(2)),
        "log2": MaxStableModel(make_family("logistic", 2, p=2.0)),
        "mo": MaxStableModel(make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5)),
    }


class TestCdf:
    def test_reference_values(self, models):
        assert cdf(models["ind"], [1, 1]) == pytest.approx(math.exp(-2))
        assert cdf(models["dep"], [1, 1]) == pytest.approx(math.exp(-1))
        assert cdf(models["log2"], [1, 1]) == pytest.approx(math.exp(-math.sqrt(2)))

    def test_zero_coordinate(self, models):
        assert cdf(models["log2"], [0.0, 1.0]) == 0.0

    def test_marginalization_via_inf(self, models):
        assert cdf(models["log2"], [2.0, np.inf]) == pytest.approx(math.exp(-0.5))

    def test_subvector_law_is_projection(self, rng):
        from maxzonoid import project

        model = random_model(rng, d=3, m=5)
        sub = MaxStableModel(project(model, [0, 2]))
        x = rng.random(2) + 0.3
        padded = np.array([x[0], np.inf, x[1]])
        assert cdf(model, padded) == pytest.approx(cdf(sub, x), rel=1e-12)

    def test_negative_rejected(self, models):
        with pytest.raises(ValueError, match="orthant"):
            cdf(models["ind"], [-1.0, 1.0])

    def test_unit_frechet_marginals(self, rng, models):
        xs = rng.random(8) * 3 + 0.1
        for model in models.values():
            for i in range(2):
                pts = np.full((8, 2), np.inf)
                pts[:, i] = xs
                np.testing.assert_allclose(
                    cdf(model, pts), np.exp(-1.0 / xs), rtol=1e-12
                )

    def test_monotone(self, rng, models):
        x = rng.random(2) + 0.2
        for model in models.values():
            assert cdf(model, x + 0.5) >= cdf(model, x)


class TestNaNRejected:
    def test_support_function(self):
        with pytest.raises(ValueError, match="NaN"):
            support_function(unit_cube(2), [np.nan, 1.0])

    def test_cdf(self, models):
        with pytest.raises(ValueError, match="NaN"):
            cdf(models["log2"], [np.nan, 1.0])

    def test_copula(self, models):
        with pytest.raises(ValueError, match="NaN"):
            copula(models["log2"], [np.nan, 0.5])

    def test_pickands(self, models):
        with pytest.raises(ValueError, match="NaN"):
            pickands(models["log2"], np.nan)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture(scope="module")
def law_bodies():
    """An atom list, a polygon family, an analytic norm and an image."""
    return {
        "atoms": MaxStableModel(
            normalize_dependency(zonoid_from_spectral(discretize(make_family("logistic", 2, p=2.0), 200).measure))
        ),
        "marshall_olkin": MaxStableModel(make_family("marshall_olkin", 2, alpha1=0.4, alpha2=0.7)),
        "logistic_p3": MaxStableModel(make_family("logistic", 2, p=3.0)),
        "image": MaxStableModel(
            minkowski_combine(make_family("logistic", 2, p=3.0), make_family("husler_reiss", 2, lam=1.0), 0.3)
        ),
    }


class TestLawPathBytes:
    """cdf, copula and pickands are exp(-h), exp(-h) and h at the transformed
    points, bit for bit, through the same kernel as support_function; each
    raises its own message first on an input with both a NaN and an entry
    out of its domain."""

    def test_cdf(self, rng, law_bodies):
        X = np.vstack([
            [[1.0, 2.0], [0.0, 1.5], [-0.0, 2.0], [3.0, -0.0], [np.inf, 0.7], [0.4, np.inf],
             [0.0, np.inf], [-0.0, np.inf], [np.inf, np.inf], [0.0, 0.0], [1e-310, 2.0]],
            np.exp(rng.uniform(-2.0, 3.0, (40, 2))),
        ])
        with np.errstate(divide="ignore", over="ignore"):
            inv = np.where(X == 0, np.inf, 1.0 / X)
        for K in law_bodies.values():
            assert _bits(cdf(K, X)) == _bits(np.exp(-support_function(K, inv)))
            for x, v in zip(X, inv):
                assert _bits(cdf(K, x)) == _bits(np.exp(-support_function(K, v)))

    def test_copula(self, rng, law_bodies):
        U = np.vstack([
            [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.3, 1.0], [1.0, 0.6], [0.0, 0.2]],
            rng.random((40, 2)),
        ])
        with np.errstate(divide="ignore"):
            z = -np.log(U)
        for K in law_bodies.values():
            assert _bits(copula(K, U)) == _bits(np.exp(-support_function(K, z)))
            for u, v in zip(U, z):
                assert _bits(copula(K, u)) == _bits(np.exp(-support_function(K, v)))

    def test_pickands(self, rng, law_bodies):
        t = np.concatenate([[0.0, 1.0, 0.5], rng.random(40)])
        for K in law_bodies.values():
            assert _bits(pickands(K, t)) == _bits(support_function(K, np.column_stack([t, 1.0 - t])))
            for s in t:
                assert _bits(pickands(K, s)) == _bits(support_function(K, [s, 1.0 - s]))

    def test_inf_rows_on_norms(self, rng, law_bodies):
        # every coordinate of a norm has extent: +inf reads as 0 and makes its row +inf
        def rule(K, Z):
            inf = Z == np.inf
            h = support_function(K, np.where(inf, 0.0, Z))
            h[inf.any(axis=1)] = np.inf
            return h

        bodies = {
            "logistic_p3": law_bodies["logistic_p3"],
            "image": law_bodies["image"],
            "neg_logistic": MaxStableModel(make_family("neg_logistic", 2, lam=0.5, p=-2.0)),
            "husler_reiss": MaxStableModel(make_family("husler_reiss", 2, lam=0.5)),
        }
        Z = np.vstack([
            [[np.inf, 0.7], [0.4, np.inf], [0.0, np.inf], [-0.0, np.inf], [np.inf, np.inf], [np.inf, -0.0]],
            np.exp(rng.uniform(-2.0, 3.0, (40, 2))),
        ])
        X = np.where(Z == np.inf, 0.0, Z)
        with np.errstate(divide="ignore"):
            inv = np.where(X == 0, np.inf, 1.0 / X)
            U = np.exp(-Z)
            z = -np.log(U)
        for K in bodies.values():
            h = rule(K, Z)
            assert np.isinf(h[:6]).all() and np.isfinite(h[6:]).all()
            assert _bits(support_function(K, Z)) == _bits(h)
            assert _bits(cdf(K, X)) == _bits(np.exp(-rule(K, inv)))
            assert _bits(copula(K, U)) == _bits(np.exp(-rule(K, z)))
            for x, v in zip(Z, h):
                assert _bits(support_function(K, x)) == _bits(v)

    @pytest.mark.parametrize("single", [True, False])
    def test_message_order(self, law_bodies, single):
        K = law_bodies["logistic_p3"]
        K3 = MaxStableModel(make_family("logistic", 3, p=2.0))
        cases = [
            (support_function, K, [np.nan, -1.0], "directions must not be NaN"),
            (cdf, K, [np.nan, -1.0], "the law lives on the nonnegative orthant"),
            (copula, K, [np.nan, -0.5], "copula arguments must lie in [0, 1]^d"),
            (copula, K, [np.nan, 1.5], "copula arguments must lie in [0, 1]^d"),
            (pickands, K3, [np.nan, -0.5], "coordinates must lie in the unit simplex"),
            (support_function, K, [np.nan, 1.0], "directions must not be NaN"),
            (cdf, K, [np.nan, 1.0], "directions must not be NaN"),
            (copula, K, [np.nan, 0.5], "directions must not be NaN"),
            (pickands, K3, [np.nan, 0.5], "directions must not be NaN"),
            (support_function, K, [2.0, -1.0], "directions must be nonnegative"),
        ]
        for f, model, x, message in cases:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                f(model, x if single else [x, [0.5, 0.25]])
        with pytest.raises(ValueError, match="^coordinates must lie in the unit simplex$"):
            pickands(K, [np.nan, -0.5])
        with pytest.raises(ValueError, match="^directions must not be NaN$"):
            pickands(K, np.nan if single else [np.nan, 0.5])


def _shared_l1():
    """Independence through a user norm that writes its values into one
    array and returns that array on every call."""
    shared = np.zeros(64)

    def fn(X):
        return np.add(X[:, 0], X[:, 1], out=shared[: len(X)])

    return MaxStableModel(MaxZonoid(d=2, norm=AnalyticNorm("shared-l1", 2, fn))), shared


class TestCallerArrays:
    """The law functions and support_function work in place only on arrays
    they made: the caller's input keeps its bytes, and a law value is not a
    user norm's own array."""

    X2 = [[1.0, 2.0], [0.0, 0.0], [-0.0, -0.0], [np.inf, np.inf], [0.0, np.inf], [-0.0, np.inf],
          [np.inf, 0.7], [0.4, 3.0]]
    X3 = [[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [np.inf, np.inf, np.inf],
          [0.0, np.inf, 1.0], [-0.0, 0.3, np.inf], [2.0, 0.3, 0.7]]
    U2 = [[0.5, 0.2], [0.0, 0.0], [-0.0, -0.0], [1.0, 1.0], [0.0, 1.0], [-0.0, 0.7], [1.0, 0.3]]
    U3 = [[0.5, 0.2, 0.9], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.4]]
    T2 = [0.0, -0.0, 1.0, 0.25]
    T3 = [[0.0, 0.0], [-0.0, 0.5], [1.0, 0.0], [0.2, 0.3], [-0.0, -0.0]]

    @pytest.fixture(scope="class")
    def bodies(self, law_bodies):
        logistic3, hr3 = make_family("logistic", 3, p=3.0), make_family("husler_reiss", 2, lam=0.5)
        return {
            "atoms": law_bodies["atoms"],
            "marshall_olkin": law_bodies["marshall_olkin"],
            "logistic_p3": law_bodies["logistic_p3"],
            "neg_logistic": MaxStableModel(make_family("neg_logistic", 2, lam=0.5, p=-2.0)),
            "image d=2": law_bodies["image"],
            "image d=3": MaxStableModel(minkowski_combine(logistic3, unit_cube(3), 0.4)),
            "image of atoms d=2": MaxStableModel(minkowski_combine(hr3, unit_cross_polytope(2), 0.5)),
            "shared norm": _shared_l1()[0],
        }

    @pytest.mark.parametrize("name", ["atoms", "marshall_olkin", "logistic_p3", "neg_logistic", "image d=2",
                                      "image d=3", "image of atoms d=2", "shared norm"])
    def test_input_keeps_its_bytes(self, bodies, name):
        K = bodies[name]
        X, U, T = (self.X2, self.U2, self.T2) if K.d == 2 else (self.X3, self.U3, self.T3)
        for f, rows in ((cdf, X), (support_function, X), (copula, U), (pickands, T)):
            a = np.array(rows)
            assert a.dtype == np.float64 and a.flags.c_contiguous
            before = a.tobytes()
            f(K, a)
            f(K, a[1])
            assert a.tobytes() == before, f.__name__

    def test_law_value_is_not_the_norms_array(self):
        model, shared = _shared_l1()
        for f, rows in ((cdf, self.X2), (copula, self.U2)):
            a = np.array(rows)
            vals = f(model, a)
            keep = vals.copy()
            assert not np.shares_memory(vals, shared)
            support_function(model, np.ones((len(a), 2)))
            assert vals.tobytes() == keep.tobytes(), f.__name__


class TestCopula:
    def test_independence_product(self, rng):
        u = rng.random(2)
        assert copula(MaxStableModel(unit_cube(2)), u) == pytest.approx(u.prod())

    def test_dependence_min(self, rng):
        u = rng.random(2)
        assert copula(MaxStableModel(unit_cross_polytope(2)), u) == pytest.approx(
            u.min()
        )

    def test_uniform_marginals(self, rng, models):
        us = rng.random(10)
        for model in models.values():
            np.testing.assert_allclose(
                copula(model, np.column_stack([us, np.ones(10)])), us, atol=1e-12
            )

    def test_consistency_with_cdf(self, rng, models):
        x = rng.random(2) + 0.3
        for model in models.values():
            u = np.exp(-1.0 / x)
            assert copula(model, u) == pytest.approx(cdf(model, x), rel=1e-12)

    def test_range_validation(self, models):
        with pytest.raises(ValueError, match="0, 1"):
            copula(models["ind"], [0.5, 1.2])


class TestPickands:
    def test_endpoint_values(self, models):
        for model in models.values():
            assert pickands(model, 0.0) == pytest.approx(1.0)
            assert pickands(model, 1.0) == pytest.approx(1.0)

    def test_reference_values(self, models):
        assert pickands(models["ind"], 0.5) == pytest.approx(1.0)
        assert pickands(models["dep"], 0.5) == pytest.approx(0.5)
        assert pickands(models["log2"], 0.5) == pytest.approx(1 / math.sqrt(2))

    def test_bounds_and_convexity(self, rng, models):
        t = np.linspace(0.0, 1.0, 101)
        for model in models.values():
            A = pickands(model, t)
            assert np.all(A <= 1.0 + 1e-12)
            assert np.all(A >= np.maximum(t, 1 - t) - 1e-12)
            second = A[:-2] - 2 * A[1:-1] + A[2:]
            assert second.min() >= -1e-9

    def test_trivariate(self):
        model = MaxStableModel(make_family("logistic", 3, p=2.0))
        val = pickands(model, [1 / 3, 1 / 3])
        assert val == pytest.approx(np.sqrt(3 * (1 / 3) ** 2), rel=1e-12)

    def test_tolerance_reads_as_zero(self):
        # a coordinate within the simplex tolerance below 0 is clipped to 0,
        # as the last one is; the last keeps 1 - sum t of the unclipped t
        K2 = make_family("logistic", 2, p=2.0)
        K3 = make_family("logistic", 3, p=2.0)
        assert pickands(K2, -1e-13) == support_function(K2, [0.0, 1.0 - (-1e-13)])
        assert pickands(K3, [-1e-13, 0.5]) == support_function(K3, [0.0, 0.5, 1.0 - (-1e-13 + 0.5)])
        np.testing.assert_array_equal(
            pickands(K3, [[-1e-13, 0.5], [0.5, -1e-13]]),
            support_function(K3, [[0.0, 0.5, 1.0 - (-1e-13 + 0.5)], [0.5, 0.0, 1.0 - (0.5 + -1e-13)]]),
        )

    def test_outside_simplex_rejected(self, models):
        with pytest.raises(ValueError, match="simplex"):
            pickands(models["ind"], 1.5)


class TestQuantileCurve:
    def test_defining_property(self, models):
        for model in models.values():
            for alpha in (0.1, math.exp(-1), 0.9):
                pts = quantile_curve(model, alpha, points_n=64)
                np.testing.assert_allclose(cdf(model, pts), alpha, atol=1e-9)

    def test_independence_passes_through_ones(self, models):
        pts = quantile_curve(models["ind"], math.exp(-2), points_n=4097)
        gap = np.abs(pts - 1.0).sum(axis=1).min()
        assert gap < 1e-3

    def test_dependence_corner(self, models):
        pts = quantile_curve(models["dep"], math.exp(-1), points_n=4097)
        assert np.abs(pts - 1.0).sum(axis=1).min() < 1e-3

    def test_alpha_validation(self, models):
        with pytest.raises(ValueError, match="alpha"):
            quantile_curve(models["ind"], 1.0)

    @pytest.mark.parametrize("points_n", [1, 0, -4])
    def test_needs_two_points(self, models, points_n):
        with pytest.raises(ValueError, match="points_n must be at least 2"):
            quantile_curve(models["ind"], 0.5, points_n=points_n)


class TestSimulate:
    def test_a_model_takes_no_second_atom_list(self):
        # a planar law sampled by trivariate atoms would draw (n, 3) samples
        with pytest.raises(TypeError):
            MaxStableModel(unit_cube(2), unit_cube(3).spectral)
        K = make_family("logistic", 2, p=2.0)
        model = MaxStableModel(K).with_discrete(50)
        assert simulate(model, 10, seed=1).values.shape == (10, 2)

    def test_a_body_samples_the_atoms_its_cdf_reads(self):
        # the cross polytope's atoms would draw equal coordinates from a law
        # whose cdf at (1, 1) reads exp(-2), independence
        with pytest.raises(TypeError):
            MaxStableModel(unit_cube(2), unit_cross_polytope(2).spectral)
        K = unit_cube(2)
        model = MaxStableModel(K)
        assert model.spectral is K.spectral and model.with_discrete(8) is model
        assert cdf(model, [1.0, 1.0]) == pytest.approx(math.exp(-2.0))
        s = simulate(model, 2000, seed=3).values
        assert np.mean(s[:, 0] == s[:, 1]) == 0.0

    def test_complete_dependence_coordinates_equal(self):
        model = MaxStableModel(unit_cross_polytope(3))
        s = simulate(model, 500, seed=3)
        assert np.abs(s.values - s.values[:, [0]]).max() < 1e-12

    def test_determinism(self, models):
        a = simulate(models["mo"], 300, seed=11).values
        b = simulate(models["mo"], 300, seed=11).values
        assert np.array_equal(a, b)

    def test_independence_kendall_tau_near_zero(self):
        s = simulate(MaxStableModel(unit_cube(2)), 100_000, seed=5)
        tau = kendalltau(s.values[:, 0], s.values[:, 1]).statistic
        assert abs(tau) < 0.02

    def test_body_simulates_from_its_atoms(self):
        K = unit_cube(2)
        a = simulate(K, 300, seed=4).values
        assert np.array_equal(a, simulate(MaxStableModel(K), 300, seed=4).values)
        with pytest.raises(ValueError, match=r"with_discrete\(\)"):
            simulate(make_family("logistic", 2, p=2.0), 10, seed=0)

    def test_needs_discrete_form(self):
        model = MaxStableModel(make_family("logistic", 2, p=2.0))
        with pytest.raises(ValueError, match="discretize"):
            simulate(model, 10, seed=0)
        assert model.with_discrete(64).spectral is not None

    def test_marginal_ks(self, rng):
        model = random_model(rng, d=2, m=4)
        s = simulate(model, 20_000, seed=17)
        for i in range(2):
            p = kstest(s.values[:, i], lambda x: np.exp(-1.0 / x)).pvalue
            assert p > 0.01

    def test_block_draws_match_single_draw(self, rng):
        # each 65 536-row chunk has its own spawned stream, so a sample that
        # spills into a second chunk starts with the one-chunk sample
        model = random_model(rng, d=2, m=7)
        n = 65_536
        a = simulate(model, n + 17, seed=31)
        assert np.array_equal(a.values, simulate(model, n + 17, seed=31).values)
        assert np.array_equal(a.values[:n], simulate(model, n, seed=31).values)

    def test_records_method_and_point_count(self, models):
        s = simulate(models["log2"].with_discrete(64), 1000, seed=2)
        assert s.method == "poisson-stop"
        assert s.n_points >= s.n

    @pytest.mark.parametrize(
        "case", ["random d=2", "random d=3", "independence d=3", "zero coordinates"]
    )
    def test_matches_dense_reference_sampler(self, rng, case):
        if case == "random d=2":
            model = random_model(rng, d=2, m=6)
        elif case == "random d=3":
            model = random_model(rng, d=3, m=6)
        elif case == "independence d=3":
            model = MaxStableModel(unit_cube(3))
        else:
            pts = [[1, 0, 0], [0, 1, 0], [0.5, 0, 0.5], [0.2, 0.3, 0.5], [0, 0, 1]]
            model = MaxStableModel(
                normalize_dependency(zonoid_from_spectral(spectral_from_points(pts)))
            )
        n = 20_000
        got = simulate(model, n, seed=41).values
        ref = dense_sample(model.spectral.scaled_atoms, n, np.random.default_rng(43))
        for stat in (np.min, np.max):
            p = ks_2samp(stat(got, axis=1), stat(ref, axis=1)).pvalue
            assert p > 0.01, (case, stat.__name__, p)

    def test_law_matches_cdf(self, rng):
        model = random_model(rng, d=2, m=3)
        n = 40_000
        s = simulate(model, n, seed=23)
        pts = rng.random((25, 2)) * 2.5 + 0.2
        F = cdf(model, pts)
        emp = (s.values[:, None, :] <= pts[None, :, :]).all(axis=2).mean(axis=0)
        tol = 3 * np.sqrt(F * (1 - F) / n)
        assert np.all(np.abs(emp - F) <= tol + 1e-12)

    def test_law_matches_cdf_d3(self, rng):
        model = random_model(rng, d=3, m=5)
        n = 40_000
        s = simulate(model, n, seed=29)
        pts = rng.random((25, 3)) * 2.5 + 0.4
        F = cdf(model, pts)
        emp = (s.values[:, None, :] <= pts[None, :, :]).all(axis=2).mean(axis=0)
        tol = 3 * np.sqrt(F * (1 - F) / n)
        assert np.all(np.abs(emp - F) <= tol + 1e-12)


class TestExponentDensity:
    def test_discrete_model_directed_to_atoms(self):
        model = MaxStableModel(unit_cube(2))
        with pytest.raises(ValueError, match="atoms"):
            exponent_density(model, [1.0, 1.0])

    def test_analytic_independence_density_vanishes(self, rng):
        K = MaxZonoid(
            d=2, norm=AnalyticNorm("sum", 2, lambda X: X.sum(axis=1))
        )
        for _ in range(5):
            z = rng.random(2) * 3 + 0.2
            assert abs(exponent_density(K, z)) <= 1e-6

    def test_logistic_symbolic_oracle(self):
        model = MaxStableModel(make_family("logistic", 2, p=2.0))
        # d2/dx1dx2 of hypot = -x1 x2 r^-3; density at z: -(that)(z*) * prod z^-2
        for z in ([1.0, 1.0], [0.5, 2.0], [1.7, 0.9]):
            z = np.asarray(z)
            zs = 1.0 / z
            r = np.hypot(*zs)
            oracle = (zs[0] * zs[1] / r**3) * (zs[0] ** 2 * zs[1] ** 2)
            val = exponent_density(model, z)
            assert val == pytest.approx(oracle, rel=1e-6)

    def test_nonnegative_for_families(self, rng):
        fams = [
            make_family("logistic", 2, p=1.7),
            make_family("husler_reiss", 2, lam=0.9),
            make_family("neg_logistic", 2, lam=0.5, p=-2.0),
        ]
        for K in fams:
            for _ in range(5):
                z = rng.random(2) * 2 + 0.3
                assert exponent_density(MaxStableModel(K), z) >= -1e-6

    def test_box_mass_inclusion_exclusion(self):
        model = MaxStableModel(make_family("logistic", 2, p=2.0))

        def nu(x1, x2):
            return support_function(model, [1.0 / x1, 1.0 / x2])

        boxes = [(1.0, 2.0, 1.0, 2.0), (0.5, 1.5, 2.0, 3.0)]
        for a1, b1, a2, b2 in boxes:
            target = nu(b1, a2) + nu(a1, b2) - nu(b1, b2) - nu(a1, a2)
            # the integrand carries ~1e-8 finite-difference noise
            val, err = dblquad(
                lambda z2, z1: exponent_density(model, [z1, z2]),
                a1,
                b1,
                a2,
                b2,
                epsabs=1e-8,
            )
            assert val == pytest.approx(target, abs=1e-6)

    def test_trivariate_logistic(self):
        model = MaxStableModel(make_family("logistic", 3, p=2.0))
        # mixed third derivative of the l2 norm: 3 x1 x2 x3 r^-5
        z = np.array([1.0, 1.0, 1.0])
        zs = 1.0 / z
        r = np.sqrt((zs**2).sum())
        oracle = 3 * zs.prod() / r**5 * np.prod(zs**2)
        assert exponent_density(model, z) == pytest.approx(oracle, rel=1e-5)


class TestMaxStability:
    def test_identity_for_models(self, rng, models):
        zoo = list(models.values()) + [random_model(rng, 3, 4)]
        for model in zoo:
            for n in (2, 5):
                assert max_stability_check(model, n) < 1e-12

    def test_detector_flags_corruption(self):
        bad = MaxZonoid(
            d=2,
            norm=AnalyticNorm(
                "corrupt", 2, lambda X: np.hypot(X[:, 0], X[:, 1]) + 0.1
            ),
        )
        assert max_stability_check(bad, 5) > 0.01

    def test_nfold_validation(self, models):
        with pytest.raises(ValueError, match="n_fold"):
            max_stability_check(models["ind"], 1)

    def test_nfold_must_be_finite(self, models):
        # F(inf * x)^inf is 1^inf, nan or 0, not a deviation
        with pytest.raises(ValueError, match="finite n_fold"):
            max_stability_check(models["ind"], float("inf"))
        assert max_stability_check(models["ind"], 2.5) < 1e-12
