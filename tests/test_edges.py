"""Error paths and the less-traveled representation branches."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import maxzonoid as mz
from maxzonoid import (
    AnalyticNorm,
    MaxStableModel,
    MaxZonoid,
    as_dependency,
    make_family,
    make_measure,
    unit_cross_polytope,
    unit_cube,
)
from maxzonoid.geometry import _polygon_of

from conftest import polygon_support


class TestAnalyticMaterialization:
    def test_polar_of_analytic_is_quarter_disc(self):
        K = make_family("logistic", 2, p=2.0)
        P = mz.polar_2d(K, directions=4096)
        assert P.area_with_origin() == pytest.approx(np.pi / 4, abs=1e-5)
        radii = np.linalg.norm(P.vertices, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)

    def test_polygon_of_uses_gradient_tangents(self):
        K = make_family("logistic", 2, p=2.0)
        chain = _polygon_of(K, directions=256)
        # inscribed: every vertex on the unit circle, support below the norm
        np.testing.assert_allclose(
            np.linalg.norm(chain.vertices[1:-1], axis=1), 1.0, atol=1e-9
        )
        t = np.linspace(0, 1, 101)
        X = np.column_stack([t, 1 - t])
        assert np.all(polygon_support(chain, X) <= mz.support_function(K, X) + 1e-12)

    def test_polygon_of_envelope_without_gradient(self):
        base = make_family("logistic", 2, p=2.0)
        blind = as_dependency(
            MaxZonoid(d=2, norm=AnalyticNorm("blind", 2, base.norm.fn))
        )
        chain = _polygon_of(blind, directions=256)
        t = np.linspace(0, 1, 101)
        X = np.column_stack([t, 1 - t])
        # circumscribed: support above the norm, close at this grid size
        h = mz.support_function(base, X)
        assert np.all(polygon_support(chain, X) >= h - 1e-12)
        assert np.abs(polygon_support(chain, X) - h).max() < 1e-3

    def test_polygon_of_skips_axis_gradients(self):
        # the negative logistic gradient at e1 is (1, 1), outside the body;
        # a chain through it would be the unit square
        K = make_family("neg_logistic", 2, lam=1.0, p=-1.0)
        chain = _polygon_of(K, directions=256)
        t = np.linspace(0, 1, 101)
        X = np.column_stack([t, 1 - t])
        h = mz.support_function(K, X)
        assert np.all(polygon_support(chain, X) <= h + 1e-12)
        assert np.abs(polygon_support(chain, X) - h).max() < 1e-4

    def test_hull_with_analytic_input(self):
        K1 = make_family("logistic", 2, p=2.0)
        K2 = make_family("marshall_olkin", 2, alpha1=0.9, alpha2=0.2)
        H = mz.combine_2d(K1, K2, "hull")
        t = np.linspace(0, 1, 51)
        X = np.column_stack([t, 1 - t])
        target = np.maximum(mz.support_function(K1, X), mz.support_function(K2, X))
        np.testing.assert_allclose(mz.support_function(H, X), target, atol=1e-4)

    def test_discretize_envelope_path(self):
        base = make_family("husler_reiss", 2, lam=0.7)
        blind = as_dependency(
            MaxZonoid(d=2, norm=AnalyticNorm("blind", 2, base.norm.fn))
        )
        res = mz.discretize(blind, 400)
        assert res.max_support_error < 1e-3
        np.testing.assert_allclose(res.measure.marginal_sums(), 1.0, atol=1e-12)

    def test_neg_logistic_min_norm_discretizes(self):
        K = make_family("neg_logistic", 2, lam=0.5, p=-np.inf)
        res = mz.discretize(K, 300)
        assert res.max_support_error < 1e-3


class TestGeometryGuards:
    def test_unknown_volume_method(self):
        # "exact_2d" labels the planar shoelace area; it is not an input
        for method in ("shoelace", "exact_2d"):
            with pytest.raises(ValueError, match="unknown method"):
                mz.polar_volume(unit_cube(2), method=method)

    def test_unknown_minkowski_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mz.minkowski_combine(unit_cube(2), unit_cube(2), 0.5, mode="xor")

    def test_unknown_combine_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mz.combine_2d(unit_cube(2), unit_cube(2), "blend")

    def test_power_mean_parameter_guards(self):
        with pytest.raises(ValueError, match="exponent"):
            mz.combine_2d(unit_cube(2), unit_cube(2), "power_mean", p=0.5)
        with pytest.raises(ValueError, match="weight"):
            mz.combine_2d(unit_cube(2), unit_cube(2), "power_mean", p=2.0, lam=1.5)

    def test_as_dependency_rejects_unnormalized(self):
        K = mz.scale(unit_cube(2), [2.0, 1.0])
        with pytest.raises(ValueError, match="not normalized"):
            as_dependency(K)

    def test_normalize_rejects_degenerate(self):
        K = MaxZonoid(d=2, spectral=make_measure([[1.0, 0.0]], [1.0]))
        with pytest.raises(ValueError, match="degenerate"):
            mz.normalize_dependency(K)

    def test_representation_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one"):
            MaxZonoid(d=2)
        with pytest.raises(ValueError, match="exactly one"):
            MaxZonoid(
                d=2,
                spectral=make_measure(np.eye(2), [1, 1]),
                norm=AnalyticNorm("x", 2, lambda X: X.sum(axis=1)),
            )

    def test_projection_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            mz.project(unit_cube(2), [0, 5])

    def test_m_distance_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mz.m_distance(unit_cube(2), unit_cube(3))


def _nan_on_e1_axis():
    """A planar body whose norm is NaN where x_2 = 0, so h(K, e_1) is NaN."""
    def fn(X):
        return np.where(X[:, 1] > 0, X.sum(axis=1), np.nan)

    return MaxZonoid(d=2, norm=AnalyticNorm("nan-axis", 2, fn))


def _nan_at_centre(d):
    """The logistic p = 2 norm, but NaN along the diagonal direction."""
    h = mz.make_family("logistic", d, p=2.0).norm.fn

    def fn(X):
        return np.where(np.ptp(X, axis=1) <= 1e-12 * X.max(axis=1), np.nan, h(X))

    return MaxZonoid(d=d, norm=AnalyticNorm("nan-centre", d, fn))


def _nan_inside(d):
    """The logistic p = 1.5 norm and its gradient, but NaN wherever every
    coordinate exceeds a tenth of their sum: the marginals stay 1."""
    base = mz.make_family("logistic", d, p=1.5).norm

    def fn(X):
        return np.where(X.min(axis=1) > 0.1 * X.sum(axis=1), np.nan, base.fn(X))

    return as_dependency(MaxZonoid(d=d, norm=AnalyticNorm("nan-inside", d, fn, base.grad)))


# each reader of the support function that returned a number, or a NaN,
# on a norm with a NaN inside the orthant
_NAN_READERS = {
    "polar_volume quadrature d=3": lambda: mz.polar_volume(_nan_inside(3), method="quadrature"),
    "polar_volume mc d=3": lambda: mz.polar_volume(_nan_inside(3), method="mc", n=1000),
    "polar_volume mc d=4": lambda: mz.polar_volume(_nan_inside(4), method="mc", n=1000),
    "multivariate_rho": lambda: mz.multivariate_rho(MaxStableModel(_nan_inside(3))),
    "kendall_tau_2d": lambda: mz.kendall_tau_2d(MaxStableModel(_nan_inside(2))),
    "exp_support_integral_mc": lambda: mz.exp_support_integral_mc(_nan_inside(3), n=1000),
    "cdf": lambda: mz.cdf(MaxStableModel(_nan_inside(2)), [[1.0, 2.0]]),
    "copula": lambda: mz.copula(MaxStableModel(_nan_inside(2)), [[0.5, 0.6]]),
    "pickands": lambda: mz.pickands(MaxStableModel(_nan_inside(2)), [0.5]),
    "support_function": lambda: mz.support_function(_nan_inside(2), [1.0, 2.0]),
}


class TestNaNIsNoAnswer:
    """NaN fails every judgement of h(K, e_i) and every guard it meets."""

    @pytest.mark.parametrize("reader", sorted(_NAN_READERS))
    def test_every_reader_rejects_a_nan_support_value(self, reader):
        with pytest.raises(ValueError, match="support function is NaN"):
            _NAN_READERS[reader]()

    @pytest.mark.parametrize("d", [2, 3])
    def test_m_distance_rejects_a_nan_grid_value(self, d):
        for K1, K2 in ((_nan_at_centre(d), unit_cube(d)), (unit_cube(d), _nan_at_centre(d))):
            with pytest.raises(ValueError, match=r"support function is NaN at 2 of \d+ points"):
                mz.m_distance(K1, K2)

    def test_m_distance_rejects_a_nan_marginal(self):
        with pytest.raises(ValueError, match="defined for dependency sets"):
            mz.m_distance(_nan_on_e1_axis(), unit_cube(2))

    def test_polar_volume_rejects_a_nan_marginal(self):
        for method in ("quadrature", "mc"):
            with pytest.raises(ValueError, match="degenerate body"):
                mz.polar_volume(_nan_on_e1_axis(), method=method)

    def test_hausdorff_rejects_a_nan_grid_value(self):
        with pytest.raises(ValueError, match="support function is NaN at 1 of 4097 points"):
            mz.hausdorff_distance(_nan_on_e1_axis(), unit_cube(2))

    def test_empirical_spectral_rejects_a_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be positive"):
            mz.empirical_spectral(np.full((5, 2), 30.0), float("nan"))

    def test_max_stability_check_rejects_a_nan_fold(self):
        with pytest.raises(ValueError, match="n_fold >= 2"):
            mz.max_stability_check(MaxStableModel(unit_cube(2)), float("nan"))


class TestDistributionGuards:
    def test_simulate_needs_positive_n(self):
        with pytest.raises(ValueError, match="positive"):
            mz.simulate(MaxStableModel(unit_cube(2)), 0, seed=0)

    def test_simulate_rejects_unbalanced_atoms(self):
        # a bare body off unit marginals reaches simulate's own check; a model refuses it
        unbalanced = make_measure(np.eye(2), [0.5, 1.0])
        with pytest.raises(ValueError, match="atom list is not normalized"):
            mz.simulate(mz.zonoid_from_spectral(unbalanced), 10, seed=0)
        with pytest.raises(ValueError, match="not normalized"):
            MaxStableModel(mz.zonoid_from_spectral(unbalanced))

    def test_pickands_needs_simplex_coordinates(self):
        model = MaxStableModel(make_family("logistic", 3, p=2.0))
        with pytest.raises(ValueError, match="simplex coordinates"):
            mz.pickands(model, [0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="simplex"):
            mz.pickands(model, [0.8, 0.5])

    def test_quantile_curve_needs_plane(self):
        with pytest.raises(ValueError, match="planar"):
            mz.quantile_curve(MaxStableModel(unit_cube(3)), 0.5)

    def test_exponent_density_guards(self):
        model = MaxStableModel(make_family("logistic", 2, p=2.0))
        with pytest.raises(ValueError, match="positive"):
            mz.exponent_density(model, [1.0, -1.0])
        with pytest.raises(ValueError, match="d = 2"):
            mz.exponent_density(MaxStableModel(make_family("logistic", 4, p=2.0)),
                                np.ones(4))


class TestDependenceGuards:
    def test_bivariate_only_functionals(self):
        m3 = MaxStableModel(unit_cube(3))
        for fn in (mz.chi, mz.kendall_tau_2d, mz.inverted_pearson_2d):
            with pytest.raises(ValueError, match="bivariate"):
                fn(m3)

    def test_quadrature_spearman_needs_d_at_most_3(self):
        with pytest.raises(ValueError, match="d <= 3"):
            mz.spearman_rho(MaxStableModel(unit_cube(4)), method="quadrature")

    def test_extremal_table_needs_a_subset_size(self):
        for size in (0, -1):
            with pytest.raises(ValueError, match="max_size"):
                mz.extremal_table(MaxStableModel(unit_cube(3)), max_size=size)

    def test_multivariate_rho_needs_d2(self):
        with pytest.raises(ValueError, match="d >= 2"):
            mz.multivariate_rho(MaxStableModel(unit_cube(1)))

    def test_extremal_table_invalid_subset(self):
        with pytest.raises(ValueError, match="invalid subset"):
            mz.ExtremalTable(2, {frozenset([3]): 1.0})

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_extremal_table_rejects_nonfinite(self, theta):
        # a NaN coefficient would pass every consistency test
        with pytest.raises(ValueError, match="must be finite"):
            mz.ExtremalTable(2, {frozenset([0, 1]): theta})


_BAD_COUNTS = [2.5, float("nan"), 10.0, float("inf"), "10"]


class TestSampleCounts:
    """Sample and point counts are integers: anything else is a
    ValueError naming the argument, never a TypeError from numpy."""

    _calls = {
        "simulate": lambda n: mz.simulate(MaxStableModel(unit_cube(2)), n, seed=0),
        "polar_volume": lambda n: mz.polar_volume(unit_cube(3), method="mc", n=n),
        "exp_support_integral_mc": lambda n: mz.exp_support_integral_mc(unit_cube(2), n=n),
        "spearman_rho": lambda n: mz.spearman_rho(MaxStableModel(unit_cube(2)), method="mc", n=n),
        "multivariate_rho": lambda n: mz.multivariate_rho(MaxStableModel(unit_cube(3)), n=n, method="mc"),
        "inverted_pearson_2d": lambda n: mz.inverted_pearson_2d(
            MaxStableModel(unit_cube(2)), method="mc", n=n
        ),
    }

    @pytest.mark.parametrize("bad", _BAD_COUNTS, ids=repr)
    @pytest.mark.parametrize("name", sorted(_calls))
    def test_non_integer_n(self, name, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            self._calls[name](bad)

    @pytest.mark.parametrize("name", sorted(_calls))
    def test_integer_n_still_runs(self, name):
        # a numpy integer is a count too
        self._calls[name](np.int64(64))

    @pytest.mark.parametrize("bad", _BAD_COUNTS, ids=repr)
    def test_non_integer_points_n(self, bad):
        model = MaxStableModel(make_family("logistic", 2, p=2.0))
        with pytest.raises(ValueError, match="points_n must be an integer"):
            mz.quantile_curve(model, 0.5, points_n=bad)
        assert mz.quantile_curve(model, 0.5, points_n=np.int64(7)).shape == (7, 2)


class TestSpectralGuards:
    def test_make_measure_needs_positive_mass(self):
        with pytest.raises(ValueError, match="positive mass"):
            make_measure([[1.0, 0.0]], [0.0])

    def test_spectral_from_points_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            mz.spectral_from_points([[0.0, 0.0]], [1.0])

    def test_polygon_from_spectral_needs_plane(self):
        with pytest.raises(ValueError, match="d = 2"):
            mz.polygon_from_spectral(make_measure(np.eye(3), np.ones(3)))

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="reference"):
            make_measure([[1.0, 0.0]], [1.0], "l3")


class TestAlternationGuards:
    def test_construct_dimension_guard(self):
        table = mz.ExtremalTable(21, {frozenset([0]): 1.0})
        with pytest.raises(ValueError, match="d <= 20"):
            mz.construct_from_extremal(table)

    def test_max_closure_size_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="guard"):
            mz.max_closure(rng.random((40, 6)), max_size=100)

    def test_incomplete_table_rejected(self):
        table = mz.ExtremalTable(3, {frozenset([0, 1]): 1.5})
        with pytest.raises(ValueError, match="every nonempty subset"):
            mz.check_extremal_consistency(table)

    def test_f_required_without_values(self):
        pts = mz.max_closure([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="f is required"):
            mz.check_alternation(None, pts)
        lat = mz.FiniteMaxLattice(pts)
        with pytest.raises(ValueError, match="no values"):
            mz.check_alternation(None, lat)


# A coordinate subset is an index or an iterable of them, read whole by
# operator.index: 1.5 and "1" are refused, never truncated to 1.
_BAD_SUBSETS = [1.5, "1", (), (0, 3), (-1,), (0.2, 2.7), (0.5,), (0, 1.9), (1, 1), (0, 2, 0)]
_SUBSET_READERS = {
    "project": lambda A: mz.project(unit_cube(3), A),
    "extremal_coefficient": lambda A: mz.extremal_coefficient(MaxStableModel(unit_cube(3)), A),
    "ExtremalTable": lambda A: mz.ExtremalTable(3, {A: 1.0}),
}
_BAD_ARGUMENTS = [
    *(
        pytest.param(lambda r=reader, A=A: _SUBSET_READERS[r](A), "invalid subset", id=f"{reader}-{A!r}")
        for reader in _SUBSET_READERS
        for A in _BAD_SUBSETS
    ),
    *(
        pytest.param(
            lambda k=k: mz.check_alternation(lambda X: X.sum(axis=1), mz.max_closure(np.eye(2)), max_order=k),
            "max_order", id=f"max_order-{k!r}",
        )
        for k in (0, -3, 2.5)
    ),
    pytest.param(lambda: mz.extremal_table(MaxStableModel(unit_cube(3)), max_size=2.5), "max_size", id="max_size-2.5"),
    pytest.param(lambda: make_family("independence", 2, p=3.0), r"unexpected parameters \['p'\]", id="extra-p"),
    pytest.param(lambda: make_family("dependence", 3, lam=1.0), r"unexpected parameters \['lam'\]", id="extra-lam"),
    pytest.param(lambda: make_family("logistic", 2), r"missing parameters \['p'\]", id="missing-p"),
    pytest.param(
        lambda: make_family("marshall_olkin", 2, alpha2=0.5), r"missing parameters \['alpha1'\]", id="missing-alpha1"
    ),
    pytest.param(lambda: make_family("logistic", 2.5, p=2.0), "d must be an integer", id="d-2.5"),
    # a family parameter is a real number: no TypeError from float(), and True is not 1
    *(
        pytest.param(lambda name=name, k=k, v=v, kw=kw: make_family(name, 2, **{**kw, k: v}),
                     f"parameter '{k}' must be a real number", id=f"{name}-{k}-{type(v).__name__}")
        for name, kw in (("logistic", {}), ("neg_logistic", {"lam": 0.5, "p": -2.0}),
                         ("husler_reiss", {}), ("marshall_olkin", {"alpha1": 0.5, "alpha2": 0.5}))
        for k in {"logistic": ["p"], "neg_logistic": ["lam", "p"], "husler_reiss": ["lam"],
                  "marshall_olkin": ["alpha1", "alpha2"]}[name]
        for v in (None, [2.0, 3.0], True, "2", 10**400)
    ),
    pytest.param(lambda: make_family("matrix_weights", 2, matrix={}), "weight matrix must hold real numbers",
                 id="matrix-dict"),
    pytest.param(lambda: make_family("matrix_weights", 2, matrix=np.full((2, 2, 2), 0.5)),
                 "weight matrix must have 2 columns", id="matrix-3d"),
    pytest.param(lambda: mz.ExtremalTable(2.5, {(0,): 1.0}), "d must be an integer", id="table-d-2.5"),
    pytest.param(lambda: mz.ExtremalTable(2, {(0, 1): 1.5, (1, 0): 1.2}), r"subset \[0, 1\] is named twice",
                 id="table-subset-twice"),
    # a point set is an (n, d) array with n, d >= 1, the same rule in all three readers
    pytest.param(lambda: mz.max_closure(np.zeros((2, 0))), "points must form an", id="closure-no-column"),
    pytest.param(lambda: mz.max_closure(np.zeros((2, 2, 2))), "points must form an", id="closure-3d"),
    pytest.param(lambda: mz.FiniteMaxLattice(np.zeros((2, 2, 2))), "points must form an", id="lattice-3d"),
    pytest.param(lambda: mz.check_alternation(lambda X: X.sum(axis=1), np.zeros((2, 0))), "points must form an",
                 id="alternation-no-column"),
    # a NaN value has every difference through it NaN, which never exceeds tol
    pytest.param(lambda: mz.check_alternation(lambda X: np.full(len(X), np.nan), mz.max_closure(np.eye(2))),
                 "f is NaN at 3 of 3 points", id="alternation-nan-f"),
    pytest.param(lambda: mz.FiniteMaxLattice(mz.max_closure(np.eye(2)), [0.0, 1.0, np.nan]),
                 "lattice values must be nonnegative", id="lattice-nan-value"),
]


@pytest.mark.parametrize("call, message", _BAD_ARGUMENTS)
def test_bad_argument_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    if message == "invalid subset":
        assert "nonempty" in str(info.value) and "distinct" in str(info.value) and "range" in str(info.value)


def test_integer_arguments_still_read():
    K, model = unit_cube(3), MaxStableModel(make_family("logistic", 3, p=2.0))
    assert mz.project(K, 1) == mz.project(K, [np.int64(1)]) == unit_cube(1)
    assert mz.project(K, np.array([2, 0])) == mz.project(K, (0, 2))
    assert mz.extremal_coefficient(model, range(3)) == mz.extremal_coefficient(model, [np.int64(2), 1, 0])
    table = mz.ExtremalTable(3, {(np.int64(0), 1): 1.5, 2: 1.0})
    assert table.values == {frozenset([0, 1]): 1.5, frozenset([2]): 1.0}
    assert table.theta(2) == table.theta([2]) == 1.0
    assert mz.extremal_table(model, max_size=np.int64(1)) == mz.extremal_table(model, max_size=1)
    pts = mz.max_closure(np.eye(2))
    assert mz.check_alternation(lambda X: X.sum(axis=1), pts, max_order=np.int64(2)).order_checked == 2
    assert make_family("logistic", np.int64(2), p=2.0) == make_family("logistic", 2, p=2.0)


class TestEstimateGuards:
    def test_threshold_positive(self):
        with pytest.raises(ValueError, match="positive"):
            mz.empirical_spectral(np.ones((5, 2)), 0.0)

    def test_samples_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            mz.empirical_spectral(np.zeros((5, 2)), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_samples_finite(self, bad):
        X = np.full((5, 2), 30.0)
        X[2, 0] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            mz.empirical_spectral(X, 1.0)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            mz.SampleMatrix(X)

    def test_estimator_is_planar(self):
        est = mz.direction_estimate([1.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="bivariate"):
            mz.estimate_zonoid_2d([est, est])


class TestPolygonRepresentationOps:
    def test_scale_polygon_rep(self):
        K = make_family("marshall_olkin", 2, alpha1=0.4, alpha2=0.6)
        S = mz.scale(K, [2.0, 0.5])
        x = np.array([0.7, 1.3])
        assert mz.support_function(S, x) == pytest.approx(
            mz.support_function(K, x * [2.0, 0.5])
        )

    def test_project_polygon_rep_to_interval(self):
        K = make_family("marshall_olkin", 2, alpha1=0.4, alpha2=0.6)
        P = mz.project(K, [1])
        assert P.d == 1
        assert mz.support_function(P, [3.0]) == pytest.approx(3.0)

    def test_cartesian_with_polygon_rep(self):
        K = make_family("marshall_olkin", 2, alpha1=0.4, alpha2=0.6)
        C = mz.cartesian_product(K, unit_cross_polytope(2))
        assert mz.support_function(C, np.ones(4)) == pytest.approx(
            mz.support_function(K, np.ones(2)) + 1.0
        )


class TestSpearmanMethodGuards:
    def test_unknown_method(self):
        for method in ("bootstrap", "exact", "exact_2d"):
            with pytest.raises(ValueError, match="unknown method"):
                mz.spearman_rho(MaxStableModel(unit_cube(2)), method=method)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_family("logistic", 0, p=2.0), "dimension must be at least 1"),
        (lambda: make_family("neg_logistic", 3, lam=0.5, p=-2.0), "negative logistic family is bivariate"),
        (lambda: make_family("husler_reiss", 3, lam=1.0), "Husler-Reiss family is bivariate"),
        (lambda: make_family("marshall_olkin", 3, alpha1=0.5, alpha2=0.5), "Marshall-Olkin family is bivariate"),
        (lambda: make_family("matrix_weights", 3, matrix=np.eye(2)), "weight matrix must have 3 columns"),
        (lambda: make_family("gumbel", 2), "unknown family 'gumbel'"),
        (lambda: make_family("logistic", 2, p=2.0, q=1.0), r"unexpected parameters \['q'\]"),
        (lambda: mz.spectral_from_points([[1.0, -0.5]]), "points must be nonnegative"),
        (lambda: mz.spectral_from_points([[1.0, 0.5]], [0.0]), "weights must be positive"),
        (lambda: MaxZonoid(d=3, spectral=make_measure(np.eye(2), np.ones(2))), "dimension mismatch between measure and body"),
        (lambda: mz.Polygon2D(np.array([[1.0, 0.0]])), "at least two 2-D vertices"),
        (lambda: mz.Polygon2D(np.array([[1.0, 0.0], [-0.5, 0.5], [0.0, 1.0]])), "vertices must be nonnegative"),
        (
            lambda: mz.minkowski_combine(unit_cube(2), unit_cube(2), 2.0, mode="difference"),
            r"negative mass -1 at atom \[0.0, 1.0\]",
        ),
    ],
)
def test_constructor_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _fresh_python(code, *args, **kwargs):
    # a fresh interpreter, so the imports of other tests do not leak in
    src = os.path.dirname(os.path.dirname(mz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, **kwargs)


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.integrate", "scipy.optimize"])
def test_import_leaves_out(module):
    code = f"import sys, maxzonoid; print({module!r} in sys.modules)"
    assert _fresh_python(code, check=True).stdout.strip() == "False"


# Every subcommand on a Husler-Reiss model and a d = 3 logistic model (an
# NNLS fit) in an interpreter where scipy cannot be imported.  The model's
# own extremal table feeds check-theta and construct-theta, its simulated
# sample feeds estimate and converge.
_WITHOUT_SCIPY = r"""
import json, os, sys
from importlib.abc import MetaPathFinder

class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
    sys.exit("scipy was importable")
except ImportError:
    pass

import maxzonoid as mz
from maxzonoid.cli import main

tmp = sys.argv[1]

def path(name, text=None):
    p = os.path.join(tmp, name)
    if text is not None:
        with open(p, "w") as fh:
            fh.write(text)
    return p

failed = []
for tag, family in [("hr", {"name": "husler_reiss", "d": 2, "params": {"lam": 1.0}}),
                    ("log3", {"name": "logistic", "d": 3, "params": {"p": 1.5}})]:
    d = family["d"]
    model = path(f"{tag}.json", json.dumps({"family": family}))
    table = mz.extremal_table(mz.make_family(family["name"], d, **family["params"]))
    theta = {",".join(str(i + 1) for i in sorted(A)): v for A, v in table.values.items()}
    extremal = path(f"{tag}-theta.json", json.dumps({"extremal": {"d": d, "theta": theta}}))
    pts = path(f"{tag}-pts.csv", "1.0,2.0,0.5\n0.3,0.3,4.0\n" if d == 3 else "1.0,2.0\n0.3,4.0\n")
    us = path(f"{tag}-us.csv", "0.3,0.7,0.5\n0.9,0.9,0.9\n" if d == 3 else "0.3,0.7\n0.9,0.9\n")
    sample = path(f"{tag}-sample.csv")
    runs = [
        ["simulate", "--model", model, "--out", sample],
        ["eval", "--model", model, "--points", pts, "--op", "cdf"],
        ["eval", "--model", model, "--points", us, "--op", "copula"],
        ["eval", "--model", model, "--points", pts, "--op", "norm"],
        ["measures", "--model", model],
        ["spectral", "--model", model, "--to-atoms"],
        ["check-theta", "--model", extremal],
        ["construct-theta", "--model", extremal],
        ["estimate", "--data", sample, "--threshold", "20"],
        ["converge", "--model", model, "--data", sample, "--s-grid", "10,20"],
    ]
    if d == 2:
        runs += [
            ["eval", "--model", model, "--points", path("ts.csv", "0.0\n0.3\n1.0\n"), "--op", "pickands"],
            ["spectral", "--model", model, "--to-polygon"],
            ["quantile", "--model", model, "--alpha", "0.9"],
        ]
    for argv in runs:
        if main(argv if argv[0] == "simulate" else argv + ["--out", path("out")]) != 0:
            failed.append(argv)
print(json.dumps({"failed": failed, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_without_scipy(tmp_path):
    out = _fresh_python(_WITHOUT_SCIPY, str(tmp_path), timeout=600)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"failed": [], "scipy": []}
