"""A MaxStableModel is its dependency set, and every scalar answer is an
Estimate: a float with its method and resolution attached."""

import copy
import inspect
import json
import math
import pickle
import sys

import numpy as np
import pytest

import maxzonoid as mz
from maxzonoid import (
    DependencySet,
    Estimate,
    MaxStableModel,
    make_family,
    unit_cross_polytope,
    unit_cube,
)
from maxzonoid.geometry import _simplex_lattice


def _bodies():
    return {
        "logistic2": make_family("logistic", 2, p=2.0),
        "husler_reiss": make_family("husler_reiss", 2, lam=0.8),
        "marshall_olkin": make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7),
        "logistic3": make_family("logistic", 3, p=1.5),
        "cube3": unit_cube(3),
    }


def _same(a, b):
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, mz.MaxZonoid):
        U = _simplex_lattice(a.d, 200)
        return _same(mz.support_function(a, U), mz.support_function(b, U))
    if isinstance(a, mz.Polygon2D):
        return np.array_equal(a.vertices, b.vertices)
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _calls(K):
    """Every public function of a dependency set, as (name, call) pairs."""
    d = K.d
    x = np.linspace(0.5, 2.0, d)
    other = unit_cross_polytope(d)
    calls = [
        ("support_function", lambda K: mz.support_function(K, x)),
        ("marginals", lambda K: K.marginals()),
        ("hausdorff_distance", lambda K: mz.hausdorff_distance(K, other, grid_n=300)),
        ("hausdorff_distance second", lambda K: mz.hausdorff_distance(other, K, grid_n=300)),
        ("m_distance", lambda K: mz.m_distance(K, other, grid_n=300)),
        ("polar_volume", lambda K: mz.polar_volume(K)),
        ("polar_volume mc", lambda K: mz.polar_volume(K, method="mc", n=2000, seed=1)),
        ("exp_support_integral_mc", lambda K: mz.exp_support_integral_mc(K, n=2000, seed=1)),
        ("scale", lambda K: mz.scale(K, np.linspace(1.0, 2.0, d))),
        ("project", lambda K: mz.project(K, [0, 1])),
        ("minkowski_combine", lambda K: mz.minkowski_combine(K, other, 0.3)),
        ("cartesian_product", lambda K: mz.cartesian_product(K, unit_cube(1))),
        ("normalize_dependency", lambda K: mz.normalize_dependency(K)),
        ("cdf", lambda K: mz.cdf(K, [x, 2 * x])),
        ("copula", lambda K: mz.copula(K, [np.full(d, 0.3), np.full(d, 0.9)])),
        ("pickands", lambda K: mz.pickands(K, np.full(d - 1, 1.0 / d))),
        ("max_stability_check", lambda K: mz.max_stability_check(K)),
        ("extremal_coefficient", lambda K: mz.extremal_coefficient(K, [0, d - 1])),
        ("extremal_table", lambda K: sorted(mz.extremal_table(K).values.values())),
        ("spearman_rho", lambda K: mz.spearman_rho(K)),
        ("multivariate_rho", lambda K: mz.multivariate_rho(K)),
        ("discretize", lambda K: mz.discretize(K, 40, n_eval=200).measure.scaled_atoms),
    ]
    if d == 2:
        calls += [
            ("polar_2d", lambda K: mz.polar_2d(K, directions=256)),
            ("combine_2d", lambda K: mz.combine_2d(K, other, "hull", directions=64)),
            ("quantile_curve", lambda K: mz.quantile_curve(K, 0.8, points_n=20)),
            ("chi", lambda K: mz.chi(K)),
            ("kendall_tau_2d", lambda K: mz.kendall_tau_2d(K)),
            ("inverted_pearson_2d", lambda K: mz.inverted_pearson_2d(K)),
        ]
    if K.norm is not None:
        calls.append(("exponent_density", lambda K: mz.exponent_density(K, x)))
    return calls


CASES = [(name, call) for name, K in _bodies().items() for call, _ in _calls(K)]


class TestModelIsBody:
    def test_model_is_a_dependency_set(self):
        assert MaxStableModel is mz.as_dependency
        K = make_family("logistic", 2, p=2.0)
        model = MaxStableModel(K)
        assert model is K and model == K
        assert MaxStableModel(model) is model
        # any other body with unit marginals becomes a set of its representation
        body = mz.MaxZonoid(2, norm=K.norm)
        assert type(MaxStableModel(body)) is DependencySet and MaxStableModel(body) == K

    @pytest.mark.parametrize("body, call", CASES)
    def test_function_on_model_equals_function_on_body(self, body, call):
        K = _bodies()[body]
        fn = dict(_calls(K))[call]
        assert _same(fn(MaxStableModel(K)), fn(K))

    def test_a_model_is_its_set(self):
        table = mz.extremal_table(make_family("logistic", 3, p=2.0))
        params = {"independence": {}, "dependence": {}, "logistic": {"p": 2.0},
                  "neg_logistic": {"lam": 0.5, "p": -2.0}, "husler_reiss": {"lam": 0.8},
                  "marshall_olkin": {"alpha1": 0.3, "alpha2": 0.7},
                  "matrix_weights": {"matrix": [[0.5, 0.25], [0.5, 0.75]]}}
        sets = [make_family(name, 2, **p) for name, p in params.items()]
        sets += [unit_cube(3), unit_cross_polytope(3), mz.construct_from_extremal(table),
                 make_family("logistic", 2, p=2.0).with_discrete(64)]
        for K in sets:
            assert type(K) is DependencySet and MaxStableModel(K) is K
        with pytest.raises(TypeError):
            MaxStableModel(unit_cube(2), unit_cube(2).spectral)

    def test_rewrap_keeps_the_body(self):
        model = MaxStableModel(make_family("logistic", 2, p=2.0)).with_discrete(64)
        assert MaxStableModel(model) is model
        assert model.with_discrete(8) is model

    def test_with_discrete_returns_the_law_of_the_fit(self):
        K = make_family("logistic", 2, p=2.0)
        res = mz.discretize(K, 64)
        fit = res.measure
        model = MaxStableModel(K).with_discrete(64)
        assert model.norm is None and model.spectral == fit
        a = mz.simulate(model, 200, seed=3).values
        assert np.array_equal(a, mz.simulate(mz.zonoid_from_spectral(fit), 200, seed=3).values)
        # the law read is the fit's, its gap to K's on discretize's 2,048
        # quarter-circle directions the stated error
        X = np.random.default_rng(0).uniform(0.2, 5.0, (50, 2))
        assert np.array_equal(mz.cdf(model, X), mz.cdf(mz.zonoid_from_spectral(fit), X))
        t = np.linspace(0.0, np.pi / 2, 2048)
        U = np.column_stack([np.cos(t), np.sin(t)])
        gap = np.abs(mz.support_function(model, U) - mz.support_function(K, U)).max()
        assert gap == pytest.approx(float(res.max_support_error), rel=1e-9)

    def test_wrapping_checks_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            MaxStableModel(mz.cross_polytope([2.0, 1.0]))

    def test_model_is_frozen(self):
        model = MaxStableModel(unit_cube(2))
        with pytest.raises(AttributeError):
            model.spectral = None


# The parent's values, as float.hex, of each answer that is now an Estimate.
PINNED = {
    "hausdorff_2d": ("0x1.a827999fcef30p-2", "grid-lower-bound"),
    "hausdorff_3d": ("0x1.35958c6800dafp-1", "grid-lower-bound"),
    # exchangeable pairs, read as the constant lam of the on-grid optimum:
    # log 2 less 1 ulp and log 3 plus 1 ulp (test_m_distances_take_their_closed_forms)
    "m_distance_2d": ("0x1.62e42fefa39eep-1", "grid-lower-bound"),
    "m_distance_3d": ("0x1.193ea7aad030cp+0", "grid-lower-bound"),
    "chi": ("0x1.b1e13e432c828p-2", "exact"),
    "extremal_coefficient": ("0x1.965fea53d6e3cp+0", "exact"),
    # Gauss-Legendre by Newton's method, not eigenvalues: 68 ulps below the
    # parent's 0x1.66a620cf545c0p-2, and 3.0e-16 from KENDALL_HR08, where
    # the parent was 4.1e-15 from it (test_quadrature_kendall_keeps_its_error)
    "kendall_quadrature": ("0x1.66a620cf5457cp-2", "quadrature"),
    "kendall_atoms": ("0x1.1033d91d2a208p-2", "exact"),
    "discretize_2d": ("0x1.fc5ad9f9a8000p-12", "planar-chain"),
    # read on one lattice direction per swap orbit: 1.2e-14 relative below
    # the whole lattice's 0x1.315967d65f340p-7 (tests/test_geometry.py,
    # TestOrbitGrids).  The fit's own gap at the argmax direction, by mpmath
    # at 40 digits, is 0x1.315967d65f2e4p-7: this value is 28 ulps (4.9e-17)
    # above it, inside the rounding of h near 1, 2.2e-16
    "discretize_3d": ("0x1.315967d65f300p-7", "nnls-bpp"),
    # the empirical body read on the directions scaled by its marginal sums:
    # 4.4e-16 (128 ulps) below 0x1.1dde467add400p-6, the normalized body
    # built and read, within the 8 eps that tests/test_estimate.py
    # (test_distances_are_those_of_the_normalized_body) allows between them
    "convergence": ("0x1.1dde467add380p-6", "grid-lower-bound"),
}


# Kendall's tau of Husler-Reiss lam = 0.8, 1 - int_0^1 Phi(a) Phi(b) / h(t, 1 - t)^2 dt,
# by mpmath's tanh-sinh quadrature at 40 and 50 digits on two partitions
# of [0, 1], which agree to 3e-42 (its Gauss-Legendre on 16 pieces to 9e-22)
KENDALL_HR08 = 0.350243103651414784504633995293


def _answers():
    log2 = make_family("logistic", 2, p=2.0)
    log3 = make_family("logistic", 3, p=1.5)
    mo = make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7)
    hr = make_family("husler_reiss", 2, lam=0.8)
    sample = mz.simulate(MaxStableModel(log2).with_discrete(200), 2000, seed=3)
    return {
        "hausdorff_2d": mz.hausdorff_distance(log2, unit_cube(2)),
        "hausdorff_3d": mz.hausdorff_distance(log3, unit_cross_polytope(3), grid_n=2000),
        "m_distance_2d": mz.m_distance(log2, unit_cube(2)),
        "m_distance_3d": mz.m_distance(log3, unit_cube(3), grid_n=500),
        "chi": mz.chi(MaxStableModel(hr)),
        "extremal_coefficient": mz.extremal_coefficient(MaxStableModel(log3), [0, 2]),
        "kendall_quadrature": mz.kendall_tau_2d(MaxStableModel(hr)),
        "kendall_atoms": mz.kendall_tau_2d(MaxStableModel(mo)),
        "discretize_2d": mz.discretize(log2, 50).max_support_error,
        "discretize_3d": mz.discretize(log3, 60, n_eval=300).max_support_error,
        "convergence": mz.convergence_diagnostic(sample, [10.0], log2, grid_n=256)[0].distance,
    }


class TestEstimateAnswers:
    @pytest.fixture(scope="class")
    def answers(self):
        return _answers()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_answer_is_bit_equal_estimate(self, answers, name):
        est = answers[name]
        hex_value, method = PINNED[name]
        parent = float.fromhex(hex_value)
        assert isinstance(est, Estimate) and isinstance(est, float)
        assert est.method == method
        assert float(est).hex() == hex_value and est.value == parent
        assert json.dumps(est) == json.dumps(parent)
        assert json.dumps({"v": [est]}, sort_keys=True) == json.dumps({"v": [parent]})
        assert f"{est:.3g}" == f"{parent:.3g}" and repr(est) == repr(parent)

    def test_resolution_is_the_direction_count(self, answers):
        assert answers["hausdorff_2d"].n_samples == 4097
        assert answers["m_distance_2d"].n_samples == 4097 + 3
        assert answers["convergence"].n_samples == 257

    def test_m_distances_take_their_closed_forms(self, answers):
        # sum(u) / ||u||_p peaks on the diagonal, at d^(1 - 1/p): d log of it
        assert answers["m_distance_2d"] == pytest.approx(math.log(2), rel=1e-15, abs=0)
        assert answers["m_distance_3d"] == pytest.approx(math.log(3), rel=1e-15, abs=0)

    def test_quadrature_kendall_keeps_its_error(self, answers):
        est = answers["kendall_quadrature"]
        assert 0.0 < est.stderr < 1e-6 and est.n_samples == 128
        assert abs(est - KENDALL_HR08) <= est.stderr
        assert answers["kendall_atoms"].stderr == 0.0

    def test_discretize_provenance_lives_in_the_error(self):
        res = mz.discretize(make_family("logistic", 3, p=1.5), 60, n_eval=300)
        err = res.max_support_error
        assert err.method == "nnls-bpp"
        assert err.n_samples == len(_simplex_lattice(3, 300))
        exact = mz.discretize(unit_cube(3), 10).max_support_error
        assert (exact, exact.method, exact.n_samples) == (0.0, "atoms", 0)

    def test_self_distance_is_zero_estimate(self):
        K = make_family("logistic", 3, p=1.5)
        d = mz.m_distance(K, K, grid_n=300)
        assert d == 0.0 and isinstance(d, Estimate) and d.method


class TestEstimateType:
    def test_arithmetic_gives_plain_floats(self):
        est = Estimate(0.25, 0.01, "mc", 100, 7)
        assert type(est + 1.0) is float and type(2.0 * est) is float
        assert type(-est) is float and np.asarray([est]).dtype == float

    def test_affine_keeps_provenance(self):
        est = Estimate(0.25, 0.01, "mc", 100, 7).affine(-2.0, 1.0)
        assert isinstance(est, Estimate) and est == 0.5
        assert (est.stderr, est.method, est.n_samples, est.seed) == (0.02, "mc", 100, 7)

    def test_immutable(self):
        est = Estimate(0.25, 0.01, "mc")
        with pytest.raises(AttributeError):
            est.stderr = 0.0
        with pytest.raises(AttributeError):
            est.extra = 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))])
    def test_copies_keep_fields(self, clone):
        est = Estimate(0.25, 0.01, "mc", 100, 7)
        out = clone(est)
        assert type(out) is Estimate and out == est
        assert (out.stderr, out.method, out.n_samples, out.seed) == (0.01, "mc", 100, 7)


def _values():
    """One instance of each public result record, checked value and body,
    by name; the analytic ones hold closures, which do not pickle."""
    cube = unit_cube(2)
    logistic = make_family("logistic", 2, p=2.0)
    lattice = mz.FiniteMaxLattice([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 1.0, 1.0, 1.5])
    table = mz.extremal_table(MaxStableModel(unit_cube(3)))
    X = mz.simulate(MaxStableModel(cube), 50, seed=3)
    alternation = mz.check_alternation(lambda P: P.min(axis=1), lattice.points)
    return {
        "MaxZonoid": mz.zonoid_from_spectral(cube.spectral),
        "DependencySet": cube,
        "DependencySet analytic": logistic,
        "MaxStableModel": MaxStableModel(cube),
        "MaxStableModel analytic": MaxStableModel(logistic),
        "AnalyticNorm": logistic.norm,
        "DiscreteSpectralMeasure": cube.spectral,
        "Polygon2D": mz.polygon_from_spectral(cube.spectral),
        "SampleMatrix": X,
        "FiniteMaxLattice": lattice,
        "ExtremalTable": table,
        "DiscretizeResult": mz.discretize(logistic, 20),
        "ConvergencePoint": mz.convergence_diagnostic(X, [1.0], cube, grid_n=50)[0],
        "DirectionEstimate": mz.direction_estimate([0.5, 0.5], 0.7),
        "AlternationResult": alternation,
        "AlternationWitness": alternation.witness,
        "ConsistencyResult": mz.check_extremal_consistency(table),
        "DependencyReport": mz.validate_dependency(cube.spectral),
    }


def _checked_values(value):
    """The checked values and bodies in value: itself, its fields, a record's fields."""
    if isinstance(value, mz.spectral._ByKey):
        yield value
        for name in value._fields:
            yield from _checked_values(getattr(value, name))
    elif isinstance(value, tuple):
        for v in value:
            yield from _checked_values(v)


def _arrays(state):
    """Every ndarray among a value's attributes, cached ones and those in tuples included."""
    for v in state.values() if isinstance(state, dict) else state:
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, tuple):
            yield from _arrays(v)


def _same_value(a, b):
    """== for values; field by field for records, whose arrays == cannot judge."""
    if isinstance(a, tuple) and hasattr(a, "_fields"):
        return type(a) is type(b) and all(_same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b)
    return a == b


class TestValueForms:
    """Records are named tuples; checked values and bodies are immutable
    classes on one base.  Neither is a dataclass."""

    @pytest.mark.parametrize("name", sorted(_values()))
    def test_no_dataclass_and_immutable(self, name):
        value = _values()[name]
        assert not hasattr(type(value), "__dataclass_fields__")
        for attr in (value._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)

    @pytest.mark.parametrize("name", sorted(_values()))
    def test_copies_are_equal(self, name):
        # and hold read-only arrays: a writeable one could change the hash of
        # a dict key, or leave a cached scaled_atoms or chain stale
        value = _values()[name]
        for sigma in _checked_values(value):
            if isinstance(sigma, mz.DiscreteSpectralMeasure):  # derived arrays cached before the copy
                getattr(sigma, "chain" if sigma.d == 2 else "scaled_atoms")
        clones = [copy.copy, copy.deepcopy]
        if "analytic" not in name and name != "AnalyticNorm":
            clones.append(lambda v: pickle.loads(pickle.dumps(v)))
        for clone in clones:
            out = clone(value)
            assert type(out) is type(value) and _same_value(out, value)
            arrays = [a for v in _checked_values(out) for a in _arrays(vars(v))]
            assert not any(a.flags.writeable for a in arrays)
            assert arrays or name not in ("DiscreteSpectralMeasure", "SampleMatrix", "Polygon2D", "FiniteMaxLattice")

    def test_records_and_witnesses_are_filled(self):
        values = _values()
        assert not values["AlternationResult"].ok and values["AlternationWitness"].value > 0
        assert values["ConsistencyResult"].ok and isinstance(values["ConsistencyResult"].weights, dict)
        assert values["ConvergencePoint"].ok

    def test_no_class_in_the_package_is_a_dataclass(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "maxzonoid"]
        classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
        assert len(classes) >= 17
        assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


class TestSimplexLatticeCache:
    @pytest.mark.parametrize("d, m", [(1, 5), (2, 9), (3, 20_000), (4, 300)])
    def test_cached_read_only_and_equal_to_a_fresh_build(self, d, m):
        a, b = _simplex_lattice(d, m), _simplex_lattice(d, m)
        assert a is b and not a.flags.writeable
        fresh = _simplex_lattice.__wrapped__(d, m)
        assert fresh is not a and np.array_equal(fresh, a)
        with pytest.raises(ValueError):
            a[0, 0] = 0.5


class TestRemovedKnobs:
    @pytest.mark.parametrize("fn, name", [
        (mz.make_measure, "merge"),
        (mz.construct_from_extremal, "weight_tol"),
        (mz.exponent_density, "step"),
        (mz.exponent_density, "richardson"),
    ])
    def test_parameter_is_gone(self, fn, name):
        assert name not in inspect.signature(fn).parameters

    def test_scaling_ok_is_not_a_parameter(self):
        pts = [[0.0, 0.0], [1.0, 0.5], [0.5, 1.0], [1.0, 1.0]]
        with pytest.raises(TypeError):
            mz.FiniteMaxLattice(pts, scaling_ok=True)


class TestConvergenceFlags:
    def test_threshold_leaving_a_coordinate_empty_is_flagged(self):
        # above s = 50 only (100, 1e-12) exceeds: its atom carries a
        # second-coordinate marginal of 5e-13, which cannot be normalized
        X = np.array([[100.0, 1e-12], [1.0, 1.0]])
        low, high = mz.convergence_diagnostic(X, [0.5, 50.0], unit_cube(2), grid_n=64)
        assert low.ok and low.n_exceedances == 2 and isinstance(low.distance, Estimate)
        assert not high.ok and high.n_exceedances == 1 and np.isnan(high.distance)
