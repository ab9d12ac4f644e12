import functools
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from hypothesis import strategies as st

from maxzonoid import (
    DependencySet,
    MaxStableModel,
    as_dependency,
    cartesian_product,
    combine_2d,
    cross_polytope,
    discretize,
    exp_support_integral_mc,
    hausdorff_distance,
    m_distance,
    make_family,
    make_measure,
    minkowski_combine,
    normalize_dependency,
    polar_2d,
    polar_volume,
    polygon_from_spectral,
    project,
    scale,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
    zonoid_from_spectral,
)
from maxzonoid import geometry
from maxzonoid.geometry import (
    Polygon2D,
    _corner_directions,
    _distance_grid,
    _envelope_polygon,
    _ne_chain,
    _quarter_circle,
    _simplex_rule,
    _support_finite,
)
from maxzonoid.spectral import ATOM_TOL

from conftest import random_dependency, random_dependency_polygon

SQRT2 = math.sqrt(2.0)


@st.composite
def discrete_bodies(draw, max_d=3, d=None):
    if d is None:
        d = draw(st.integers(2, max_d))
    m = draw(st.integers(1, 5))
    pts = draw(
        st.lists(
            st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d),
            min_size=m,
            max_size=m,
        )
    )
    w = draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
    from maxzonoid import spectral_from_points

    return zonoid_from_spectral(spectral_from_points(np.array(pts), np.array(w)))


@st.composite
def bodies(draw, d):
    """An atom list or an analytic (logistic) norm in dimension d."""
    if draw(st.booleans()):
        return make_family("logistic", d, p=draw(st.floats(1.05, 6.0)))
    return draw(discrete_bodies(d=d))


def _directions(n, d):
    return np.random.default_rng(n + d).random((n, d)) * 2.0


def _assert_image(out, inputs, X, h_expected):
    """Same support, and atoms out exactly when every input has atoms.

    An image atom of reference norm at most ATOM_TOL is dropped as zero
    (a weight near 0 in minkowski_combine makes one), which moves h by at
    most ATOM_TOL * mass * max|x|; that is the only slack allowed."""
    assert (out.spectral is not None) == all(K.spectral is not None for K in inputs)
    mass = sum(K.spectral.masses.sum() for K in inputs if K.spectral is not None)
    atol = ATOM_TOL * mass * np.abs(X).max()
    np.testing.assert_allclose(support_function(out, X), h_expected, rtol=1e-12, atol=atol)


class TestSupportFunction:
    def test_cube_examples(self):
        assert support_function(unit_cube(2), [1, 2]) == pytest.approx(3.0)

    def test_cross_examples(self):
        assert support_function(unit_cross_polytope(2), [1, 2]) == pytest.approx(2.0)

    def test_dependency_marginals_are_one(self, rng):
        K = random_dependency(rng, d=3, m=6)
        np.testing.assert_allclose(K.marginals(), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            support_function(unit_cube(2), [1.0, 1.0, 1.0])

    def test_negative_direction_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            support_function(unit_cube(2), [-1.0, 1.0])

    def test_infinite_direction(self):
        K = unit_cube(2)
        assert support_function(K, [1.0, np.inf]) == np.inf
        # mass only on the first axis: an infinite second coordinate drops out
        K1 = zonoid_from_spectral(make_measure([[1.0, 0.0]], [1.0]))
        assert support_function(K1, [2.0, np.inf]) == pytest.approx(2.0)

    def test_cross_polytope_constructor(self):
        K = cross_polytope([2.0, 3.0])
        assert support_function(K, [1.0, 1.0]) == pytest.approx(3.0)
        assert support_function(K, [2.0, 0.5]) == pytest.approx(4.0)

    @settings(max_examples=40, deadline=None)
    @given(discrete_bodies(), st.floats(0.0, 5.0))
    def test_homogeneity(self, K, t):
        x = np.linspace(0.1, 1.0, K.d)
        assert support_function(K, t * x) == pytest.approx(
            t * support_function(K, x), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(discrete_bodies())
    def test_subadditive_and_monotone(self, K):
        rng = np.random.default_rng(0)
        X = rng.random((20, K.d))
        Y = rng.random((20, K.d))
        hx, hy = support_function(K, X), support_function(K, Y)
        hxy = support_function(K, X + Y)
        assert np.all(hxy <= hx + hy + 1e-9)
        assert np.all(support_function(K, X + 0.3) >= hx - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(discrete_bodies())
    def test_dependency_sandwich(self, K):
        D = normalize_dependency(K)
        rng = np.random.default_rng(1)
        X = rng.random((50, K.d)) * 2
        h = support_function(D, X)
        assert np.all(h <= X.sum(axis=1) + 1e-9)
        assert np.all(h >= X.max(axis=1) - 1e-9)


class TestScale:
    def test_cube_scaled(self):
        K = scale(unit_cube(2), [2.0, 1.0])
        assert support_function(K, [1.0, 1.0]) == pytest.approx(3.0)

    def test_identity(self):
        K = unit_cube(3)
        assert scale(K, [1.0, 1.0, 1.0]) is K

    def test_cross_homogeneity(self):
        K = scale(unit_cross_polytope(2), [2.0, 2.0])
        assert support_function(K, [1.0, 1.0]) == pytest.approx(2.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scale(unit_cube(2), [0.0, 1.0])

    def test_matches_direct_reweighting(self, rng):
        K = random_dependency(rng, d=3, m=4)
        lam = rng.random(3) + 0.5
        X = rng.random((30, 3))
        np.testing.assert_allclose(
            support_function(scale(K, lam), X),
            support_function(K, X * lam),
            rtol=1e-12,
        )

    def test_analytic_representation(self):
        K = scale(make_family("logistic", 2, p=2.0), [2.0, 0.5])
        assert support_function(K, [1.0, 2.0]) == pytest.approx(np.hypot(2.0, 1.0))


class TestProject:
    def test_cube_to_square(self):
        K = project(unit_cube(3), [0, 1])
        assert isinstance(K, DependencySet)
        assert support_function(K, [1.0, 1.0]) == pytest.approx(2.0)

    def test_complete_dependence_rebase(self):
        sigma = make_measure(np.full((1, 3), 1 / np.sqrt(3)), [np.sqrt(3)], "l2")
        P = project(zonoid_from_spectral(sigma), [0, 1])
        np.testing.assert_allclose(P.spectral.atoms, [[1 / SQRT2, 1 / SQRT2]])
        np.testing.assert_allclose(P.spectral.masses, [SQRT2])

    def test_support_equality_on_grid(self, rng):
        K = random_dependency(rng, d=4, m=6)
        coords = [0, 2]
        P = project(K, coords)
        X = rng.random((40, 2)) * 2
        lifted = np.zeros((40, 4))
        lifted[:, coords] = X
        np.testing.assert_allclose(
            support_function(P, X), support_function(K, lifted), rtol=1e-12
        )

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            project(unit_cube(3), [])

    def test_projection_of_dependency_is_dependency(self, rng):
        P = project(random_dependency(rng, d=3, m=5), [1, 2])
        assert isinstance(P, DependencySet)

    def test_analytic_projection(self):
        K = make_family("logistic", 3, p=2.0)
        P = project(K, [0, 2])
        assert support_function(P, [3.0, 4.0]) == pytest.approx(5.0)


class TestCartesianProduct:
    def test_squares_make_cube(self):
        K = cartesian_product(unit_cube(2), unit_cube(2))
        assert K.d == 4
        assert support_function(K, np.ones(4)) == pytest.approx(4.0)

    def test_crosses(self):
        K = cartesian_product(unit_cross_polytope(2), unit_cross_polytope(2))
        assert support_function(K, np.ones(4)) == pytest.approx(2.0)

    def test_dependency_preserved(self, rng):
        K = cartesian_product(random_dependency(rng), random_dependency(rng))
        assert isinstance(K, DependencySet)

    def test_sum_split(self, rng):
        K1, K2 = random_dependency(rng, 2, 3), random_dependency(rng, 3, 4)
        K = cartesian_product(K1, K2)
        x1, x2 = rng.random(2), rng.random(3)
        assert support_function(K, np.concatenate([x1, x2])) == pytest.approx(
            support_function(K1, x1) + support_function(K2, x2), rel=1e-12
        )

    def test_analytic_route(self):
        K = cartesian_product(make_family("logistic", 2, p=2.0), unit_cube(2))
        assert support_function(K, [3.0, 4.0, 1.0, 1.0]) == pytest.approx(7.0)


class TestMinkowski:
    def test_half_sum_cube_cross(self):
        K = minkowski_combine(unit_cube(2), unit_cross_polytope(2), 0.5)
        assert support_function(K, [1.0, 1.0]) == pytest.approx(1.5)

    def test_marshall_olkin_reproduction(self, rng):
        a1, a2 = 0.3, 0.65
        K = minkowski_combine(
            unit_cube(2), unit_cross_polytope(2), np.array([a1, a2]), "sum"
        )
        F = make_family("marshall_olkin", 2, alpha1=a1, alpha2=a2)
        t = np.linspace(0, 1, 257)
        X = np.column_stack([t, 1 - t])
        np.testing.assert_allclose(
            support_function(K, X), support_function(F, X), rtol=0, atol=1e-12
        )

    def test_difference_recovers_cube(self):
        K1 = zonoid_from_spectral(
            make_measure([[1, 0], [0, 1], [1, 1]], [1, 1, 0.5], "linf")
        )
        cross = zonoid_from_spectral(make_measure([[1, 1]], [1.0], "linf"))
        D = minkowski_combine(K1, cross, 0.5, mode="difference")
        U = np.linspace(0, 1, 33)
        X = np.column_stack([U, 1 - U])
        np.testing.assert_allclose(
            support_function(D, X), support_function(unit_cube(2), X), atol=1e-12
        )

    def test_difference_negative_mass_reports_atom(self):
        with pytest.raises(ValueError, match="(negative mass|absent)"):
            minkowski_combine(
                unit_cube(2), unit_cross_polytope(2), 0.5, mode="difference"
            )

    def test_sum_weight_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            minkowski_combine(unit_cube(2), unit_cube(2), 1.5)

    def test_nan_weight_rejected(self):
        # NaN passes a test for lam < 0 or lam > 1, and would give a body
        # whose support is NaN everywhere, or a misleading error
        nan = float("nan")
        for K in (make_family("logistic", 2, p=2.0), unit_cross_polytope(2)):
            for lam in (nan, [0.5, nan]):
                with pytest.raises(ValueError, match="0, 1"):
                    minkowski_combine(K, unit_cube(2), lam)
        for lam in (nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                minkowski_combine(unit_cube(2), unit_cube(2), lam, mode="difference")

    def test_cdf_power_relation(self, rng):
        from maxzonoid import MaxStableModel, cdf

        K1, K2 = random_dependency(rng), random_dependency(rng)
        lam = 0.3
        K = minkowski_combine(K1, K2, lam)
        x = rng.random(2) + 0.5
        expected = cdf(MaxStableModel(K1), x) ** lam * cdf(MaxStableModel(K2), x) ** (
            1 - lam
        )
        assert cdf(MaxStableModel(K), x) == pytest.approx(expected, rel=1e-12)

    def test_sum_matches_direct_formula(self, rng):
        for trial in range(30):
            d = int(rng.integers(2, 4))
            K1 = random_dependency(rng, d, int(rng.integers(1, 5)))
            K2 = random_dependency(rng, d, int(rng.integers(1, 5)))
            lam = rng.random(d) if trial % 2 else float(rng.random())
            K = minkowski_combine(K1, K2, lam, "sum")
            x = rng.random(d) * 2
            direct = support_function(K1, np.asarray(lam) * x) + support_function(
                K2, (1 - np.asarray(lam)) * x
            )
            assert support_function(K, x) == pytest.approx(direct, abs=1e-12)


class TestImageAlgebra:
    """Support identities of scale, project, cartesian_product and
    minkowski_combine on atom lists, analytic norms and mixtures."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_scale(self, data):
        d = data.draw(st.integers(2, 3))
        K = data.draw(bodies(d))
        lam = np.array(data.draw(st.lists(st.floats(0.1, 4.0), min_size=d, max_size=d)))
        X = _directions(20, d)
        out = scale(K, lam)
        _assert_image(out, [K], X, support_function(K, X * lam))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_project(self, data):
        d = data.draw(st.integers(2, 4))
        K = data.draw(bodies(d))
        coords = sorted(
            data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d - 1, unique=True))
        )
        X = _directions(20, len(coords))
        lifted = np.zeros((20, d))
        lifted[:, coords] = X
        out = project(K, coords)
        _assert_image(out, [K], X, support_function(K, lifted))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cartesian_product(self, data):
        d1, d2 = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        K1, K2 = data.draw(bodies(d1)), data.draw(bodies(d2))
        X = _directions(20, d1 + d2)
        out = cartesian_product(K1, K2)
        _assert_image(
            out,
            [K1, K2],
            X,
            support_function(K1, X[:, :d1]) + support_function(K2, X[:, d1:]),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_minkowski_sum(self, data):
        d = data.draw(st.integers(2, 3))
        K1, K2 = data.draw(bodies(d)), data.draw(bodies(d))
        lam = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
        X = _directions(20, d)
        out = minkowski_combine(K1, K2, lam)
        _assert_image(
            out,
            [K1, K2],
            X,
            support_function(K1, X * lam) + support_function(K2, X * (1 - lam)),
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scale(make_family("logistic", 3, p=2.5), [2.0, 0.5, 1.5]),
            lambda: project(make_family("logistic", 3, p=3.0), [0, 2]),
            lambda: cartesian_product(
                make_family("logistic", 2, p=2.0), make_family("husler_reiss", 2, lam=0.7)
            ),
            lambda: minkowski_combine(
                make_family("logistic", 2, p=1.5),
                make_family("neg_logistic", 2, lam=0.5, p=-2.0),
                [0.3, 0.8],
            ),
        ],
    )
    def test_composed_gradient_matches_central_differences(self, build):
        K = build()
        X = np.random.default_rng(3).random((25, K.d)) * 1.8 + 0.2
        step = 1e-6
        numeric = np.column_stack(
            [
                (K.norm.fn(X + step * e) - K.norm.fn(X - step * e)) / (2 * step)
                for e in np.eye(K.d)
            ]
        )
        np.testing.assert_allclose(K.norm.grad(X), numeric, atol=1e-7)

    def test_no_gradient_when_a_part_has_none(self):
        K = minkowski_combine(make_family("logistic", 2, p=2.0), unit_cube(2), 0.5)
        assert K.norm is not None and K.norm.grad is None


class TestCombine2D:
    def test_hull_idempotent(self):
        K = combine_2d(unit_cross_polytope(2), unit_cross_polytope(2), "hull")
        np.testing.assert_allclose(polygon_from_spectral(K.spectral).vertices, [[1, 0], [0, 1]], atol=1e-12)

    def test_intersection_with_subset(self):
        K = combine_2d(unit_cube(2), unit_cross_polytope(2), "intersection")
        np.testing.assert_allclose(polygon_from_spectral(K.spectral).vertices, [[1, 0], [0, 1]], atol=1e-12)

    @pytest.mark.parametrize("name, params, m", [
        ("logistic", {"p": 2.0}, 300), ("husler_reiss", {"lam": 0.5}, 1000),
    ])
    def test_intersection_is_symmetric(self, name, params, m):
        # K lies in the cube and contains the cross polytope, so each
        # intersection is K or the cross polytope, in either order
        K = zonoid_from_spectral(discretize(make_family(name, 2, **params), m).measure)
        U = _quarter_circle(4096)
        hK = _support_finite(K, U)
        for A, B in ((K, K), (K, unit_cube(2)), (unit_cube(2), K)):
            I = combine_2d(A, B, "intersection")
            assert I.spectral.n_atoms == K.spectral.n_atoms
            np.testing.assert_allclose(_support_finite(I, U), hK, rtol=0, atol=1e-12)
        C = unit_cross_polytope(2)
        for A, B in ((C, K), (K, C)):
            I = combine_2d(A, B, "intersection")
            np.testing.assert_allclose(_support_finite(I, U), U.max(axis=1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, params", [
        ("logistic", {"p": 2.0}), ("neg_logistic", {"lam": 1.0, "p": -1.0}),
    ])
    def test_intersection_of_norms(self, name, params):
        # each body's polar is polar_2d: exact for atoms, inscribed for a
        # norm, so a fit inside the norm is its intersection with it
        F = make_family(name, 2, **params)
        A = zonoid_from_spectral(discretize(F, 300).measure)
        U = _quarter_circle(4096)
        for X, Y in ((F, A), (A, F)):
            I = combine_2d(X, Y, "intersection")
            np.testing.assert_allclose(_support_finite(I, U), _support_finite(A, U), rtol=0, atol=1e-13)
        I = combine_2d(F, F, "intersection")
        np.testing.assert_allclose(_support_finite(I, U), _support_finite(F, U), rtol=0, atol=1e-5)

    def test_hull_is_pointwise_max(self, rng):
        K1, K2 = random_dependency(rng, 2, 4), random_dependency(rng, 2, 4)
        H = combine_2d(K1, K2, "hull")
        t = np.linspace(0, 1, 101)
        X = np.column_stack([t, 1 - t])
        np.testing.assert_allclose(
            support_function(H, X),
            np.maximum(support_function(K1, X), support_function(K2, X)),
            atol=1e-9,
        )

    def test_power_mean_value(self):
        K = combine_2d(
            unit_cross_polytope(2), unit_cube(2), "power_mean", p=2.0, lam=0.5
        )
        assert support_function(K, [1.0, 1.0]) == pytest.approx(
            math.sqrt(2.5), abs=1e-9
        )

    def test_power_mean_is_dependency(self, rng):
        K = combine_2d(
            random_dependency(rng), random_dependency(rng), "power_mean", p=3.0, lam=0.25
        )
        assert isinstance(K, DependencySet)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d = 2"):
            combine_2d(unit_cube(3), unit_cube(3), "hull")


def _solve_exact(A, b):
    """The 2x2 solve A x = b in rational arithmetic, rounded once: on the
    near-parallel pairs of a fine chain (cond up to 1.7e9) np.linalg.solve
    is off by up to 1e-7."""
    (a, c), (e, f) = [[Fraction(float(x)) for x in row] for row in A]
    b0, b1 = (Fraction(float(x)) for x in b)
    det = a * f - c * e
    return np.array([float((b0 * f - c * b1) / det), float((a * b1 - e * b0) / det)])


def _polar_by_solve(K):
    """Reference polar chain of an atom list: one exact 2x2 solve per
    pair of adjacent vertices of the body's chain."""
    V = polygon_from_spectral(K.spectral).vertices
    verts = [np.array([1.0 / V[0, 0], 0.0])]
    for i in range(1, len(V)):
        A = np.array([V[i - 1], V[i]])
        if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) < 1e-14:
            continue
        verts.append(_solve_exact(A, (1.0, 1.0)))
    verts.append(np.array([0.0, 1.0 / V[-1, 1]]))
    return _ne_chain(np.array(verts)).vertices


def _envelope_by_solve(U, h):
    """Reference envelope chain: one exact 2x2 solve per pair of adjacent
    supporting lines <u_j, x> = h_j, clipped to the orthant."""
    verts = [np.array([h[0] / U[0, 0], 0.0])]
    for j in range(len(h) - 1):
        A = np.array([U[j], U[j + 1]])
        if abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) < 1e-14:
            continue
        verts.append(np.clip(_solve_exact(A, (h[j], h[j + 1])), 0.0, None))
    verts.append(np.array([0.0, h[-1] / U[-1, 1]]))
    return _ne_chain(np.array(verts)).vertices


class TestPolar:
    def test_matches_vertex_solve_reference(self, rng):
        from maxzonoid import discretize

        bodies = [zonoid_from_polygon(random_dependency_polygon(rng)) for _ in range(10)]
        bodies += [random_dependency(rng, 2, 6), unit_cube(2), unit_cross_polytope(2)]
        for name, params in [("logistic", {"p": 2.0}), ("husler_reiss", {"lam": 0.5})]:
            sigma = discretize(make_family(name, 2, **params), 300).measure
            bodies.append(zonoid_from_spectral(sigma))
        for K in bodies:
            np.testing.assert_allclose(
                polar_2d(K).vertices, _polar_by_solve(K), rtol=0, atol=1e-12
            )

    def test_envelope_matches_solve_reference(self, rng):
        from maxzonoid import discretize

        bodies = [zonoid_from_polygon(random_dependency_polygon(rng)) for _ in range(10)]
        bodies += [random_dependency(rng, 2, 6), unit_cube(2), unit_cross_polytope(2)]
        # 1000 atoms gives the 725-vertex logistic p = 2 chain
        for name, params, m in [("logistic", {"p": 2.0}, 300), ("husler_reiss", {"lam": 0.5}, 300),
                                ("logistic", {"p": 2.0}, 1000)]:
            sigma = discretize(make_family(name, 2, **params), m).measure
            bodies.append(zonoid_from_spectral(sigma))
        U = _quarter_circle(257)
        for K in bodies:
            V = polygon_from_spectral(K.spectral).vertices
            # the polar's lines <v, x> = 1 and the body's own supporting lines
            for dirs, h in ((V, np.ones(len(V))), (U, _support_finite(K, U))):
                got, ref = _envelope_polygon(dirs, h).vertices, _envelope_by_solve(dirs, h)
                assert got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_radial_polar_matches_envelope_of_chain(self):
        # the envelope of the chain's lines <v, x> = 1 is the polar by the
        # other route, kept where a chain of points is polarized: the hull
        # of polars in intersection, and the half-plane estimator
        fits = [("logistic", {"p": 2.0}), ("neg_logistic", {"lam": 1.0, "p": -1.0}),
                ("husler_reiss", {"lam": 1.0})]
        sigmas = [discretize(make_family(name, 2, **params), 1000).measure for name, params in fits]
        gen = np.random.default_rng(18)
        for _ in range(200):
            m = int(gen.integers(1, 40))
            pts = gen.random((m, 2))
            zero = gen.random((m, 2)) < 0.15
            zero[0] = False  # both extents stay positive
            pts[zero & ~zero[:, ::-1]] = 0.0  # atoms on the axes, none at the origin
            sigmas.append(make_measure(pts, gen.random(m) + 0.1))
        for sigma in sigmas:
            got = polar_2d(zonoid_from_spectral(sigma))
            ref = _envelope_polygon(polygon_from_spectral(sigma).vertices, 1.0)
            assert got.vertices.shape == ref.vertices.shape
            np.testing.assert_allclose(got.vertices, ref.vertices, rtol=0, atol=1e-12)
            assert abs(got.area_with_origin() / ref.area_with_origin() - 1.0) <= 1e-14

    def test_monte_carlo_needs_a_sample(self):
        K = unit_cross_polytope(3)
        for n in (0, -5):
            with pytest.raises(ValueError, match="at least one sample"):
                polar_volume(K, method="mc", n=n)
            with pytest.raises(ValueError, match="at least one sample"):
                exp_support_integral_mc(K, n=n)

    def test_monte_carlo_volume_draws_are_pinned(self):
        # accepted draws of 200 000 in the unit box at seeds 0-4: the polar
        # of the cube is the simplex (1/6), that of the cross polytope the cube
        accepted = {3: [33398, 33391, 33376, 33298, 33561], 1: [200_000] * 5}
        for K in (unit_cube(3), unit_cross_polytope(3)):
            for seed, count in enumerate(accepted[K.spectral.n_atoms]):
                est = polar_volume(K, method="mc", seed=seed)
                assert float(est) == count / 200_000
                assert (est.method, est.n_samples, est.seed) == ("mc", 200_000, seed)

    def test_exp_integral_needs_beta_in_unit_interval(self):
        # beta >= 1 gives the weights infinite variance; beta = 0 divides by zero
        K = make_family("logistic", 2, p=2.0)
        for beta in (0.0, -0.5, 1.0, 3.0, float("nan")):
            with pytest.raises(ValueError, match="beta"):
                exp_support_integral_mc(K, n=100, beta=beta)

    def test_analytic_polar_keeps_every_direction(self):
        # the unit disc's quarter: all 4097 radial points are hull vertices
        P = polar_2d(make_family("logistic", 2, p=2.0))
        assert len(P.vertices) == 4097
        assert abs(P.area_with_origin() - math.pi / 4) < 5e-8

    def test_square_polar_is_cross(self):
        P = polar_2d(unit_cube(2))
        np.testing.assert_allclose(P.vertices, [[1, 0], [0, 1]], atol=1e-12)

    def test_cross_polar_is_square(self):
        P = polar_2d(unit_cross_polytope(2))
        np.testing.assert_allclose(P.vertices, [[1, 0], [1, 1], [0, 1]], atol=1e-12)

    def test_bipolar_identity(self, rng):
        for _ in range(5):
            poly = random_dependency_polygon(rng)
            K = zonoid_from_polygon(poly)
            KP = zonoid_from_polygon(polar_2d(K))
            back = polar_2d(KP)
            np.testing.assert_allclose(back.vertices, poly.vertices, atol=1e-9)

    def test_polar_volume_square(self):
        assert polar_volume(unit_cube(2)).value == pytest.approx(0.5)

    def test_polar_volume_cross_any_d(self):
        for d in (2, 3):
            v = polar_volume(unit_cross_polytope(d), method="mc", n=40_000, seed=1)
            assert v.value == pytest.approx(1.0, abs=4 * max(v.stderr, 1e-4))

    def test_mc_stderr_when_every_draw_is_accepted(self):
        # the cross polytope's polar is its unit box, so p^ = 1
        n = 40_000
        v = polar_volume(unit_cross_polytope(3), method="mc", n=n, seed=1)
        assert v.value == 1.0
        assert 0.5 / n <= v.stderr <= 2.0 / n

    def test_polar_volume_l2_ball_3d(self):
        K = make_family("logistic", 3, p=2.0)
        v = polar_volume(K, method="mc", n=300_000, seed=7)
        assert v.value == pytest.approx(np.pi / 6, abs=3 * v.stderr)

    def test_mc_agrees_with_exact_2d(self, rng):
        for seed in range(3):
            K = as_dependency(
                zonoid_from_polygon(random_dependency_polygon(rng))
            )
            exact = polar_volume(K).value
            mc = polar_volume(K, method="mc", n=60_000, seed=seed)
            assert mc.value == pytest.approx(exact, abs=3 * mc.stderr)

    def test_exp_integral_identity_2d(self, rng):
        K = random_dependency(rng, 2, 4)
        est, se = exp_support_integral_mc(K, n=150_000, seed=5)
        target = math.gamma(3) * polar_volume(K).value
        assert est == pytest.approx(target, abs=3 * se)

    def test_polar_boundary_vertices_on_unit_level(self, rng):
        for _ in range(20):
            K = random_dependency(rng, 2, int(rng.integers(2, 7)))
            P = polar_2d(K)
            inner = P.vertices[(P.vertices > 1e-12).all(axis=1)]
            if len(inner):
                np.testing.assert_allclose(
                    support_function(K, inner), 1.0, atol=1e-9
                )



def _logistic_polar_volume(d, p):
    return math.gamma(1 + 1 / p) ** d / math.gamma(1 + d / p)


class TestSimplexQuadrature:
    @pytest.mark.parametrize("d", [2, 3])
    def test_rule_integrates_polynomials(self, d):
        T, w = _simplex_rule(d, 16)
        np.testing.assert_allclose(T.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        assert T.min() > 0.0
        # int over the simplex of t1^a t2^b (t3^c) is a! b! (c!) / (a + b (+ c) + d - 1)!
        assert w.sum() == pytest.approx(1.0 / math.factorial(d - 1), rel=1e-14)
        val = w @ (T[:, 0] ** 2 * T[:, 1] ** 3 * T[:, -1] ** (d - 2))
        assert val == pytest.approx(2 * 6 / math.factorial(2 + 2 * d), rel=1e-12)

    def test_needs_plane_or_space(self):
        for d in (1, 4):
            with pytest.raises(ValueError, match="2 <= d <= 3"):
                _simplex_rule(d, 8)
        with pytest.raises(ValueError, match="2 <= d <= 3"):
            polar_volume(unit_cube(4), method="quadrature")

    @pytest.mark.parametrize(
        "K, truth",
        [
            (unit_cube(3), 1 / 6),
            (unit_cross_polytope(3), 1.0),
            (minkowski_combine(unit_cross_polytope(3), unit_cube(3), 0.5), 1 / 3),
        ]
        + [(make_family("logistic", 3, p=p), _logistic_polar_volume(3, p)) for p in (1.05, 1.3, 2.5, 6.0)],
    )
    def test_d3_closed_forms_within_reported_error(self, K, truth):
        v = polar_volume(K)
        assert (v.method, v.n_samples, v.seed) == ("quadrature", 128**2, None)
        assert 0.0 < v.stderr
        assert abs(v.value - truth) <= v.stderr

    def test_nnls_fits_within_reported_error_of_order_600(self):
        T, w = _simplex_rule(3, 600)
        for p in (1.5, 2.5):
            K = zonoid_from_spectral(discretize(make_family("logistic", 3, p=p), 500).measure)
            v = polar_volume(K)
            ref = float(w @ _support_finite(K, T) ** -3) / 3
            assert 0.0 < v.stderr
            assert abs(v.value - ref) <= v.stderr

    @pytest.mark.parametrize(
        "name, params",
        [("logistic", {"p": p}) for p in (1.05, 1.3, 2.0)]
        + [("husler_reiss", {"lam": lam}) for lam in (0.3, 1.0, 3.0)],
    )
    def test_planar_norms_against_quad(self, name, params):
        K = make_family(name, 2, **params)
        ref, _ = quad(
            lambda t: 0.5 / _support_finite(K, np.array([[t, 1 - t]]))[0] ** 2,
            0, 1, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        v = polar_volume(K)
        assert v.method == "quadrature" and 0.0 < v.stderr
        assert abs(v.value - ref) <= 1e-10

    def test_planar_atoms_keep_the_shoelace(self, rng):
        # the graded rule's |Q_64 - Q_128| under-reads its error on kinked h
        K = random_dependency(rng, 2, 5)
        for method in ("auto", "quadrature"):
            v = polar_volume(K, method=method)
            assert (v.method, v.stderr) == ("exact_2d", 0.0)
            assert v.value == polar_2d(K).area_with_origin()

    def test_auto_is_mc_beyond_d3(self):
        v = polar_volume(unit_cube(4), n=20_000, seed=3)
        assert (v.method, v.n_samples, v.seed) == ("mc", 20_000, 3)
        assert v.value == pytest.approx(1 / 24, abs=4 * v.stderr)

    def test_mc_agrees_with_quadrature_d3(self):
        K = make_family("logistic", 3, p=1.5)
        mc = polar_volume(K, method="mc", n=200_000, seed=11)
        assert mc.value == pytest.approx(polar_volume(K).value, abs=3 * mc.stderr)

class TestHausdorff:
    def test_self_distance_zero(self, rng):
        K = random_dependency(rng)
        assert hausdorff_distance(K, K) == 0.0

    def test_square_cross(self):
        d = hausdorff_distance(unit_cube(2), unit_cross_polytope(2))
        assert d == pytest.approx(1 / SQRT2, abs=1e-6)

    def test_dense_grid_brute_force_oracle(self, rng):
        K1, K2 = random_dependency(rng, 2, 3), random_dependency(rng, 2, 4)
        theta = np.linspace(0, 2 * np.pi, 200_001)
        U = np.column_stack([np.cos(theta), np.sin(theta)])
        Up = np.clip(U, 0, None)
        brute = np.abs(
            support_function(K1, Up) - support_function(K2, Up)
        ).max()
        assert hausdorff_distance(K1, K2) == pytest.approx(brute, abs=1e-4)

    def test_triangle_inequality(self, rng):
        A, B, C = (random_dependency(rng, 2, 3) for _ in range(3))
        dAB = hausdorff_distance(A, B)
        dBC = hausdorff_distance(B, C)
        dAC = hausdorff_distance(A, C)
        assert dAC <= dAB + dBC + 1e-12

    def test_monotone_refinement(self):
        vals = [
            hausdorff_distance(unit_cube(2), unit_cross_polytope(2), grid_n=n)
            for n in (256, 512, 1024, 2048)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_3d_distance(self):
        d = hausdorff_distance(unit_cube(3), unit_cube(3))
        assert d == 0.0

    def test_cube_cross_3d_is_exact(self):
        # the sup sits on the diagonal, a point of the default lattice (resolution 198)
        d = hausdorff_distance(unit_cube(3), unit_cross_polytope(3))
        assert d == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_3d_never_exceeds_dense_oracle(self, seed):
        # the grid max is a max over unit directions, so it cannot pass the
        # sup; the oracle climbs from its best sampled directions, since a
        # bare sample of 2e5 directions lies below the lattice value by up
        # to 4e-4 on some bodies
        rng = np.random.default_rng(seed)
        K1, K2 = random_dependency(rng, 3, 4), random_dependency(rng, 3, 6)

        def gap(angles):
            th, ph = np.clip(angles, 0.0, np.pi / 2).T
            U = np.column_stack([np.sin(ph) * np.cos(th), np.sin(ph) * np.sin(th), np.cos(ph)])
            return np.abs(support_function(K1, U) - support_function(K2, U))

        best = rng.random((200_000, 2)) * (np.pi / 2)
        for step in [None, *np.geomspace(1e-2, 1e-10, 41)]:
            if step is not None:
                trial = np.repeat(best, 50, axis=0)
                best = np.vstack([best, trial + rng.normal(scale=step, size=trial.shape)])
            best = best[np.argsort(gap(best))[-20:]]
        oracle = gap(best).max()
        d = hausdorff_distance(K1, K2)
        assert oracle - 0.01 <= d <= oracle + 1e-12

    def test_3d_monotone_under_lattice_refinement(self, rng):
        K1, K2 = random_dependency(rng, 3, 4), random_dependency(rng, 3, 5)
        # grid_n = comb(r + 2, 2) is the lattice of resolution exactly r
        vals = [hausdorff_distance(K1, K2, grid_n=math.comb(r + 2, 2)) for r in (5, 10, 20, 40)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_one_dimension(self):
        K = make_family("logistic", 1, p=2.0)
        for dist in (hausdorff_distance, m_distance):
            assert dist(K, unit_cube(1)) == 0.0
            assert dist(unit_cube(1), unit_cross_polytope(1), grid_n=7) == 0.0

    @pytest.mark.parametrize("grid_n", [0, -3])
    def test_empty_grid_rejected(self, grid_n):
        for dist in (hausdorff_distance, m_distance):
            with pytest.raises(ValueError, match="at least one direction"):
                dist(unit_cube(2), unit_cross_polytope(2), grid_n=grid_n)

    # the supports of two dependency sets agree on the axes: the least grid
    # with an off-axis direction is the angle pi/4 on the quarter circle and
    # the d(d + 1)/2 points of the resolution-2 lattice in d >= 3
    @pytest.mark.parametrize("d, least", [(2, 2), (3, 6), (4, 10)])
    def test_grid_needs_an_off_axis_direction(self, d, least):
        for dist in (hausdorff_distance, m_distance):
            with pytest.raises(ValueError, match=f"grid_n = {least - 1} .*need {least}"):
                dist(unit_cube(d), unit_cross_polytope(d), grid_n=least - 1)
            assert dist(unit_cube(d), unit_cross_polytope(d), grid_n=least) > 0.1


class TestMDistance:
    def test_self_distance_zero(self, rng):
        assert m_distance(random_dependency(rng), random_dependency(rng, 2, 1)) >= 0
        K = random_dependency(rng)
        assert m_distance(K, K) == 0.0

    def test_cross_square_log4(self):
        d = m_distance(unit_cross_polytope(2), unit_cube(2))
        assert d == pytest.approx(math.log(4.0), abs=1e-3)

    @pytest.mark.parametrize("grid_n", [256, 4096])
    def test_cube_cross_within_grid_error(self, grid_n):
        # the optimum lam = (2, 2) must hold max(2 x1, 2 x2) >= x1 + x2; on a
        # grid of angular step delta the constraint, Lipschitz <= 3 sqrt(2)
        # near lam against x1 + x2 >= 1, can dip by 3 sqrt(2) delta / 2
        # between grid directions, and each of the d = 2 scale factors by
        # that ratio: the relaxed value lies at most 3 sqrt(2) delta below
        delta = (math.pi / 2) / grid_n
        d = m_distance(unit_cube(2), unit_cross_polytope(2), grid_n=grid_n)
        assert math.log(4.0) - 3 * math.sqrt(2) * delta <= d <= math.log(4.0) + 1e-5

    def test_symmetry(self, rng):
        K1, K2 = random_dependency(rng, 2, 3), random_dependency(rng, 2, 4)
        assert m_distance(K1, K2) == pytest.approx(m_distance(K2, K1), abs=1e-9)

    def test_cube_cross_3d_at_least_lattice_value(self):
        # 3.2423 on the Sobol simplex grid this lattice replaced; the
        # relaxation stays below 3 log 3 up to the binary-search tolerance
        d = m_distance(unit_cube(3), unit_cross_polytope(3))
        assert 3.2423 <= d <= 3 * math.log(3.0) + 1e-5

    def test_requires_dependency_sets(self):
        K = scale(unit_cube(2), [2.0, 2.0])
        with pytest.raises(ValueError, match="dependency"):
            m_distance(K, unit_cube(2))

    def test_lam_tol_must_be_positive_and_finite(self):
        # nan and inf first: 0, a negative value and 1e-300 never ended the
        # old bisection, which raised nothing for nan or inf
        for lam_tol in (math.nan, math.inf, 0.0, -1e-6):
            with pytest.raises(ValueError, match="lam_tol"):
                m_distance(unit_cube(2), unit_cross_polytope(2), grid_n=64, lam_tol=lam_tol)
        # a bisection also ends once no float lies strictly inside its bracket
        got = m_distance(unit_cube(2), unit_cross_polytope(2), grid_n=64, lam_tol=1e-300)
        want = m_distance(unit_cube(2), unit_cross_polytope(2), grid_n=64)
        assert want - 2e-6 <= got <= want

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_size_must_be_an_integer(self, d):
        # inf last: it hung the old lattice loop, which raised nothing for nan
        for grid_n in (math.nan, 2.5, math.inf):
            for dist in (hausdorff_distance, m_distance):
                with pytest.raises(ValueError, match="grid_n must be an integer"):
                    dist(unit_cube(d), unit_cross_polytope(d), grid_n=grid_n)

    def test_signature_has_no_passes(self):
        assert list(inspect.signature(m_distance).parameters) == ["K1", "K2", "grid_n", "lam_tol"]


def _full_grid_m_distance(K1, K2, grid_n=None, lam_tol=1e-6, passes=4):
    """The coordinate descent before the active-set search: every trial
    tests both containments on the whole grid, each bisection starts
    from the lower end 1e-9, and `passes` rounds run over the coordinates."""
    d = K1.d
    U = np.vstack([_distance_grid(d, grid_n), _corner_directions(d)])
    h1, h2 = _support_finite(K1, U), _support_finite(K2, U)

    def feasible(lam):
        Ul = np.ascontiguousarray(U * lam)
        if np.any(_support_finite(K2, Ul) < h1 * (1.0 - 1e-12) - 1e-12):
            return False
        return not np.any(_support_finite(K1, Ul) < h2 * (1.0 - 1e-12) - 1e-12)

    if feasible(np.ones(d)):
        return 0.0
    lam = np.full(d, float(d))
    while not feasible(lam):
        lam *= 2.0
    for _ in range(passes):
        for i in range(d):
            lo, hi = 1e-9, lam[i]
            while hi - lo > lam_tol:
                mid = 0.5 * (lo + hi)
                trial = lam.copy()
                trial[i] = mid
                if feasible(trial):
                    hi = mid
                else:
                    lo = mid
            lam[i] = hi
    return float(np.log(np.prod(lam)))


@functools.lru_cache(maxsize=None)
def _nnls_fit():
    """The 500-atom NNLS fit of the trivariate logistic p = 1.5 body."""
    return normalize_dependency(
        zonoid_from_spectral(discretize(make_family("logistic", 3, p=1.5), 500).measure)
    )


def _search_pair(name):
    """A pair of dependency sets and the grid size to compare them on."""
    if name.startswith("cube-cross"):
        d = int(name[-1])
        return unit_cube(d), unit_cross_polytope(d), None
    if name == "logistic-cube":
        return make_family("logistic", 3, p=1.5), unit_cube(3), 2000
    if name == "nnls-cube":
        return _nnls_fit(), unit_cube(3), 2000
    d, seed = int(name[-3]), int(name[-1])
    rng = np.random.default_rng(seed)
    return random_dependency(rng, d, 4), random_dependency(rng, d, 7), 2000


_ATOM_PAIRS = ["cube-cross 2", "cube-cross 3", "nnls-cube"] + [
    f"random {d} {seed}" for d in (2, 3) for seed in range(3)
]


class TestMDistanceSearch:
    """The active-set, one-pass search against the full-grid search."""

    @pytest.mark.parametrize("name", _ATOM_PAIRS + ["logistic-cube"])
    def test_within_d_lam_tol_above_four_passes(self, name):
        K1, K2, grid_n = _search_pair(name)
        ref = _full_grid_m_distance(K1, K2, grid_n)
        assert ref <= m_distance(K1, K2, grid_n) < ref + K1.d * 1e-6

    @pytest.mark.parametrize("name", _ATOM_PAIRS)
    def test_active_set_is_bit_identical_to_full_grid(self, name):
        K1, K2, grid_n = _search_pair(name)
        assert m_distance(K1, K2, grid_n) == _full_grid_m_distance(K1, K2, grid_n, passes=1)

    def test_benchmark_pairs_keep_their_values(self):
        assert m_distance(unit_cube(3), unit_cross_polytope(3)) == 3.265984119608888
        assert m_distance(unit_cube(2), unit_cross_polytope(2)) == 1.3859113875570308
        K = make_family("logistic", 3, p=1.5)
        assert m_distance(K, K) == 0.0

    def test_rows_stay_near_the_grid_size(self, monkeypatch):
        # the full-grid search passes about 270 grids' worth of rows
        rows = []

        def counting(K, X):
            rows.append(len(X))
            return _support_finite(K, X)

        monkeypatch.setattr(geometry, "_support_finite", counting)
        m_distance(unit_cube(3), unit_cross_polytope(3))
        n_grid = len(_distance_grid(3, None)) + len(_corner_directions(3))
        assert sum(rows) < 10 * n_grid


_TOL, _TAN = Fraction(1e-9), Fraction(math.tan(1e-9))


def _hull_by_fractions(points):
    """Reference for _ne_chain: the same monotone-chain pass in rational
    arithmetic.  Coordinates <= 1e-9 read as 0, a point within 1e-9 of
    the last one kept is skipped before and after the pops, and a vertex
    is popped unless its turn angle exceeds 1e-9 (cross > tan(1e-9) dot,
    or cross > 0 with dot <= 0)."""
    pts = np.asarray(points, dtype=float)
    pts = np.where(pts <= 1e-9, 0.0, pts).tolist()
    P = sorted(((Fraction(x), Fraction(y)) for x, y in pts), key=lambda p: (-p[0], p[1]))
    xmax, ymax = max(x for x, _ in P), max(y for _, y in P)

    def near(p, q):
        return abs(p[0] - q[0]) <= _TOL and abs(p[1] - q[1]) <= _TOL

    chain = [(xmax, Fraction(0))]
    for q in P + [(Fraction(0), ymax)]:
        if near(q, chain[-1]):
            continue
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2:]
            ux, uy, vx, vy = bx - ax, by - ay, q[0] - bx, q[1] - by
            cross, dot = ux * vy - uy * vx, ux * vx + uy * vy
            if cross > 0 and (dot <= 0 or cross > _TAN * dot):
                break
            chain.pop()
        if not near(q, chain[-1]):
            chain.append(q)
    return np.array(chain, dtype=float)


class TestNeChain:
    def test_matches_fraction_reference_on_random_sets(self, rng):
        for _ in range(30):
            # a 1/16 grid: exact duplicates and exactly collinear runs
            pts = rng.integers(0, 17, (40, 2)) / 16
            pts = np.vstack([pts, pts[:10], [[1.0, 0.0], [0.0, 1.0]]])
            np.testing.assert_array_equal(_ne_chain(pts).vertices, _hull_by_fractions(pts))
        for _ in range(10):
            pts = rng.random((60, 2)) ** rng.uniform(0.2, 5.0)
            np.testing.assert_array_equal(_ne_chain(pts).vertices, _hull_by_fractions(pts))

    def test_keeps_every_point_of_a_fine_arc(self):
        # turns of 3.8e-4 rad on edges 3.8e-4 long: raw cross products of
        # 5.6e-11, which a test of the cross product against 1e-9 would pop
        U = _quarter_circle(4096)
        np.testing.assert_array_equal(_ne_chain(U).vertices[1:-1], U[1:-1])
        pts = np.vstack([U, [[0.0, 10.0]]])
        chain = _ne_chain(pts).vertices
        # the tangent from (0, 10) touches the circle at y = 1/10
        assert len(chain) == 263
        np.testing.assert_array_equal(chain, _hull_by_fractions(pts))

    @pytest.mark.parametrize("name, params", [("logistic", {"p": 2.0}), ("husler_reiss", {"lam": 0.5})])
    def test_polar_with_square_or_cross_matches_reference(self, name, params):
        # the polars of K & cross and of K & cube: the hull of K° with the
        # square is the square, and with the cross polytope it is K°
        K = zonoid_from_spectral(discretize(make_family(name, 2, **params), 300).measure)
        P = polar_2d(K).vertices
        for extra in ([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]):
            pts = np.vstack([P, extra])
            np.testing.assert_array_equal(_ne_chain(pts).vertices, _hull_by_fractions(pts))

    def test_non_finite_points_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                _ne_chain(np.array([[1.0, 0.0], [0.5, bad], [0.0, 1.0]]))

    def test_near_duplicate_keeps_axis_vertex(self):
        # support points of the Husler-Reiss body (lam = 0.5) near e1: two
        # near-duplicates just inside the axis vertex
        pts = np.array(
            [[1.0 - 2.05e-12, 1.48e-9], [1.0 - 6.4e-13, 5.4e-10], [1.0, 1e-43], [0.0, 1.0]]
        )
        chain = _ne_chain(pts).vertices
        np.testing.assert_array_equal(chain[0], [1.0, 0.0])
        np.testing.assert_array_equal(chain[-1], [0.0, 1.0])

    def test_chain_is_monotone_between_anchors(self, rng):
        for _ in range(20):
            pts = rng.random((50, 2)) ** rng.uniform(0.2, 5.0)
            chain = _ne_chain(pts).vertices
            assert chain[0, 1] == 0.0 and chain[0, 0] == pts[:, 0].max()
            assert chain[-1, 0] == 0.0 and chain[-1, 1] == pts[:, 1].max()
            steps = np.diff(chain, axis=0)
            assert np.all(steps[:, 0] <= 0.0) and np.all(steps[:, 1] >= 0.0)


class TestPolygon2D:
    def test_unit_marginals_decide_the_type(self):
        # zonoid_from_polygon and DependencySet share one predicate, which NaN fails
        unit = zonoid_from_polygon(Polygon2D(np.array([[1.0, 0.0], [0.0, 1.0]])))
        wide = zonoid_from_polygon(Polygon2D(np.array([[2.0, 0.0], [0.0, 1.0]])))
        assert isinstance(unit, DependencySet) and not isinstance(wide, DependencySet)
        nan_norm = geometry.AnalyticNorm("nan", 2, lambda X: np.full(X.shape[0], np.nan))
        with pytest.raises(ValueError, match="not normalized"):
            DependencySet(d=2, norm=nan_norm)

    def test_chain_endpoints_enforced(self):
        with pytest.raises(ValueError, match="axis"):
            Polygon2D(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_convexity_violation_rejected(self):
        bad = np.array([[1.0, 0.0], [0.6, 0.2], [0.9, 0.9], [0.0, 1.0]])
        with pytest.raises(ValueError, match="convexity"):
            Polygon2D.from_chain(bad)

    def test_tiny_violation_repaired(self):
        chain = np.array([[1.0, 0.0], [0.5, 0.5 - 5e-10], [0.0, 1.0]])
        poly = Polygon2D.from_chain(chain)
        assert len(poly.vertices) == 2

    def test_fine_chain_keeps_every_vertex(self):
        # turns of 1.6e-4 rad on edges 1.6e-4 long: raw cross products ~4e-12
        th = np.linspace(0.0, np.pi / 2, 10_000)
        chain = np.column_stack([np.cos(th), np.sin(th)])
        assert Polygon2D.from_chain(chain).vertices.shape == (10_000, 2)

    def test_collinear_vertex_dropped(self):
        chain = np.array([[1.0, 0.0], [1.0, 0.25], [1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_array_equal(
            Polygon2D.from_chain(chain).vertices, [[1.0, 0.0], [1.0, 0.5], [0.0, 1.0]]
        )

    def test_reflex_turn_rejected(self):
        # the middle vertex turns clockwise, with sine -1e-6
        chain = np.array([[1.0, 0.0], [0.5, 0.5 - 5e-7], [0.0, 1.0]])
        with pytest.raises(ValueError, match="convexity"):
            Polygon2D.from_chain(chain)

    @pytest.mark.parametrize("chain", [
        [[1.0, 0.0], [0.2, 0.8], [0.6, 0.4], [0.0, 1.0]],  # back along x + y = 1
        [[1.0, 0.0], [1.0, 1.0], [1.0, 0.5], [0.0, 1.0]],  # back down x = 1
    ])
    def test_reversal_rejected(self, chain):
        with pytest.raises(ValueError):
            Polygon2D.from_chain(np.array(chain))

    def test_non_monotone_chain_rejected(self):
        # convex with the origin, but not a comprehensive body
        with pytest.raises(ValueError, match="monotone"):
            Polygon2D.from_chain(np.array([[1.0, 0.0], [1.5, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        chain = np.array([[1.0, 0.0], [1.0, bad], [0.0, 1.0]])
        for build in (Polygon2D, Polygon2D.from_chain):
            with pytest.raises(ValueError, match="finite"):
                build(chain)

    def test_pairwise_independence_forces_cube(self, rng):
        # axis-only atoms: every 2-D projection is the unit square, and
        # the support function is the full sum on a grid
        d = 4
        atoms = np.eye(d)
        K = normalize_dependency(zonoid_from_spectral(make_measure(atoms, np.ones(d))))
        from itertools import combinations

        for i, j in combinations(range(d), 2):
            ind = np.zeros(d)
            ind[[i, j]] = 1.0
            assert support_function(K, ind) == pytest.approx(2.0, abs=1e-12)
        X = rng.random((30, d))
        np.testing.assert_allclose(support_function(K, X), X.sum(axis=1), rtol=1e-12)


class TestValueEquality:
    """Bodies, models, measures and chains compare and hash by value."""

    def test_atom_lists(self):
        K = unit_cube(3)
        assert K == unit_cube(3) and hash(K) == hash(unit_cube(3))
        assert {K, unit_cube(3)} == {K}
        assert K != unit_cross_polytope(3) and K != unit_cube(2)
        assert MaxStableModel(K) == MaxStableModel(unit_cube(3))
        assert {MaxStableModel(K), MaxStableModel(unit_cube(3))} == {MaxStableModel(K)}
        # an equal measure that is not a dependency set is another type
        assert K != zonoid_from_spectral(K.spectral)
        assert K.spectral == zonoid_from_spectral(K.spectral).spectral

    def test_measures(self):
        a = make_measure([[1.0, 0.0], [0.5, 0.5]], [1.0, 1.0])
        b = make_measure([[1.0, -0.0], [0.5, 0.5]], [1.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert a != make_measure([[1.0, 0.0], [0.5, 0.5]], [1.0, 2.0])
        assert a != make_measure([[1.0, 0.0], [0.5, 0.5]], [1.0, 1.0], "linf")

    def test_analytic_norms_ignore_their_closures(self):
        K1, K2 = make_family("logistic", 2, p=2.0), make_family("logistic", 2, p=2.0)
        assert K1 == K2 and hash(K1) == hash(K2) and len({K1, K2}) == 1
        assert K1 != make_family("logistic", 2, p=3.0)
        assert K1 != make_family("logistic", 3, p=2.0)

    def test_images_compare_by_their_parts(self):
        K1, K2 = make_family("logistic", 2, p=2.0), make_family("logistic", 2, p=2.0)
        assert scale(K1, [2.0, 3.0]) == scale(K2, [2.0, 3.0])
        assert hash(scale(K1, [2.0, 3.0])) == hash(scale(K2, [2.0, 3.0]))
        assert scale(K1, [2.0, 3.0]) != scale(K1, [2.0, 4.0])
        assert cartesian_product(K1, K2) == cartesian_product(K2, K1)
        assert cartesian_product(K1, K1) != cartesian_product(K1, make_family("logistic", 2, p=3.0))

    def test_samples_and_family_specs(self):
        from maxzonoid.distribution import SampleMatrix
        from maxzonoid.families import FamilySpec

        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = SampleMatrix(v, 3, "poisson-stop", 10)
        T = SampleMatrix(v.copy(), 3, "poisson-stop", 10)
        assert S == T and hash(S) == hash(T) and len({S, T}) == 1
        assert S != SampleMatrix(v, 4, "poisson-stop", 10)
        assert S != SampleMatrix(v, 3, "poisson-stop", 11)
        assert S != SampleMatrix(v + 1e-15, 3, "poisson-stop", 10)
        assert S != SampleMatrix(v.reshape(1, 4), 3, "poisson-stop", 10)
        F = FamilySpec("marshall_olkin", 2, {"alpha1": 0.3, "alpha2": 0.7})
        G = FamilySpec("marshall_olkin", 2, {"alpha2": 0.7, "alpha1": 0.3})
        assert F == G and hash(F) == hash(G) and len({F, G}) == 1
        assert F != FamilySpec("marshall_olkin", 2, {"alpha1": 0.3, "alpha2": 0.6})
        assert FamilySpec("logistic", 2, {"p": 2.0}) != FamilySpec("logistic", 3, {"p": 2.0})
        W = FamilySpec("matrix_weights", 2, {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
        assert hash(W) == hash(FamilySpec("matrix_weights", 2, {"matrix": [[1.0, 0.0], [0.0, 1.0]]}))

    def test_polygon_chains(self):
        P = Polygon2D(np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]]))
        Q = Polygon2D(np.array([[1.0, 0.0], [0.5, -0.0], [0.0, 1.0]]))
        assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
        assert P != Polygon2D(np.array([[1.0, 0.0], [0.0, 1.0]]))
