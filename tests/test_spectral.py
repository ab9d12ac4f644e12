import warnings

import numpy as np
import pytest

from maxzonoid import (
    DiscreteSpectralMeasure,
    make_measure,
    polygon_from_spectral,
    rebase_reference,
    spectral_from_points,
    spectral_from_polygon_2d,
    support_function,
    validate_dependency,
    zonoid_from_spectral,
)
from maxzonoid.estimate import empirical_spectral
from maxzonoid.geometry import Polygon2D, hausdorff_distance
from maxzonoid.spectral import ATOM_TOL, reference_norm_of

from conftest import random_dependency_polygon

SQRT2 = np.sqrt(2.0)


def grid_2d(n=512):
    th = np.linspace(0, np.pi / 2, n)
    return np.column_stack([np.cos(th), np.sin(th)])


class TestMeasureValidation:
    def test_off_sphere_atom_rejected(self):
        with pytest.raises(ValueError, match="sphere"):
            DiscreteSpectralMeasure(np.array([[0.5, 0.2]]), np.array([1.0]), "l1")

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteSpectralMeasure(np.array([[1.0, 0.0]]), np.array([0.0]), "l1")

    def test_negative_atom_rejected(self):
        with pytest.raises(ValueError, match="orthant"):
            DiscreteSpectralMeasure(np.array([[1.5, -0.5]]), np.array([1.0]), "l1")

    def test_merge_close_atoms(self):
        sigma = make_measure([[0.5, 0.5], [0.5, 0.5 + 1e-12]], [1.0, 2.0])
        assert sigma.n_atoms == 1
        assert sigma.total_mass == pytest.approx(3.0)


def _merge_by_loop(points, masses, reference):
    """The merge as a loop over the sorted rows, each compared with the
    first row of its group and its mass added in sorted order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(masses, dtype=float)
    pts = pts / reference_norm_of(pts, reference)[:, None]
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    out_pts, out_w = [pts[0]], [w[0]]
    for p, m in zip(pts[1:], w[1:]):
        if np.abs(p - out_pts[-1]).max() <= ATOM_TOL:
            out_w[-1] += m
        else:
            out_pts.append(p)
            out_w.append(m)
    return DiscreteSpectralMeasure(np.array(out_pts), np.array(out_w), reference)


class TestMergeMatchesLoop:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("reference", ["l1", "l2", "linf"])
    def test_bit_identical(self, rng, d, reference):
        base = rng.random((300, d)) + 1e-3
        # a 960-row group of exact copies, where a pairwise sum rounds differently
        big = np.repeat(base[:1], 960, axis=0)
        exact = base[rng.integers(0, 300, 200)]
        near = base[rng.integers(0, 300, 200)] * (1.0 + 1e-12 * rng.standard_normal((200, 1)))
        pts = np.vstack([base, big, exact, near])
        w = rng.random(pts.shape[0]) + 0.01
        perm = rng.permutation(pts.shape[0])
        got = make_measure(pts[perm], w[perm], reference)
        want = _merge_by_loop(pts[perm], w[perm], reference)
        assert got.n_atoms == want.n_atoms == 300
        assert got.atoms.tobytes() == want.atoms.tobytes()
        assert got.masses.tobytes() == want.masses.tobytes()


class TestZonoidFromSpectral:
    def test_axis_atoms_make_cube(self):
        K = zonoid_from_spectral(make_measure(np.eye(2), [1.0, 1.0]))
        assert support_function(K, [1.0, 2.0]) == pytest.approx(3.0)

    def test_diagonal_atom_makes_cross_polytope(self):
        sigma = make_measure([[1 / SQRT2, 1 / SQRT2]], [SQRT2], "l2")
        K = zonoid_from_spectral(sigma)
        assert support_function(K, [1.0, 2.0]) == pytest.approx(2.0)

    def test_round_trip_through_points(self, rng):
        pts = rng.random((6, 3)) + 0.05
        w = rng.random(6) + 0.1
        sigma = spectral_from_points(pts, w)
        again = spectral_from_points(sigma.atoms, sigma.masses)
        X = rng.random((40, 3))
        np.testing.assert_allclose(
            support_function(zonoid_from_spectral(sigma), X),
            support_function(zonoid_from_spectral(again), X),
            rtol=0,
            atol=1e-12,
        )


class TestSpectralFromPoints:
    def test_scales_onto_sphere(self):
        sigma = spectral_from_points([[2.0, 0.0]], [1.0], "l1")
        np.testing.assert_allclose(sigma.atoms, [[1.0, 0.0]])
        np.testing.assert_allclose(sigma.masses, [2.0])

    def test_zero_points_dropped(self):
        sigma = spectral_from_points([[0.0, 0.0], [1.0, 1.0]], [5.0, 1.0], "l1")
        assert sigma.n_atoms == 1

    def test_function_discretization_matches_integral(self, rng):
        # F(x) = exp(-int max(f_i(s) x_i) ds) via weighted grid points
        s = (np.arange(200) + 0.5) / 200
        f = np.column_stack([2 * s, 2 * (1 - s)])  # unit-mean densities
        sigma = spectral_from_points(f, np.full(200, 1.0 / 200))
        K = zonoid_from_spectral(sigma)
        x = np.array([1.0, 2.0])
        brute = np.mean(np.maximum(f[:, 0] * x[0], f[:, 1] * x[1]))
        assert support_function(K, x) == pytest.approx(brute, rel=1e-12)


class TestRebase:
    def test_l1_to_l2(self):
        sigma = make_measure([[0.5, 0.5]], [2.0], "l1")
        out = rebase_reference(sigma, "l2")
        np.testing.assert_allclose(out.atoms, [[1 / SQRT2, 1 / SQRT2]])
        np.testing.assert_allclose(out.masses, [SQRT2])

    def test_same_norm_identity(self):
        sigma = make_measure([[0.3, 0.7]], [1.5], "l1")
        assert rebase_reference(sigma, "l1") is sigma

    def test_round_trip(self, rng):
        sigma = spectral_from_points(rng.random((5, 2)) + 0.1, rng.random(5) + 0.1)
        back = rebase_reference(rebase_reference(sigma, "linf"), "l1")
        np.testing.assert_allclose(back.atoms, sigma.atoms, atol=1e-12)
        np.testing.assert_allclose(back.masses, sigma.masses, atol=1e-12)

    def test_support_function_unchanged(self, rng):
        sigma = spectral_from_points(rng.random((7, 3)) + 0.1, rng.random(7) + 0.1)
        X = rng.random((64, 3)) * 2
        h1 = support_function(zonoid_from_spectral(sigma), X)
        for ref in ("l2", "linf"):
            h2 = support_function(zonoid_from_spectral(rebase_reference(sigma, ref)), X)
            np.testing.assert_allclose(h2, h1, rtol=0, atol=1e-12)


class TestValidateDependency:
    def test_cube_measure(self):
        rep = validate_dependency(make_measure(np.eye(2), [1.0, 1.0], "l1"))
        assert rep.is_dependency
        assert rep.total_mass == pytest.approx(2.0)

    def test_diagonal_l2_mass(self):
        rep = validate_dependency(make_measure([[1 / SQRT2] * 2], [SQRT2], "l2"))
        assert rep.is_dependency
        assert SQRT2 - 1e-12 <= rep.total_mass <= 2.0

    def test_unbalanced_measure_flagged(self):
        rep = validate_dependency(make_measure(np.eye(2), [0.5, 1.0], "l1"))
        assert not rep.is_dependency
        np.testing.assert_allclose(rep.marginal_sums, [0.5, 1.0])


class TestPolygonConversion:
    def test_square_chain_to_atoms(self):
        poly = Polygon2D(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        sigma = spectral_from_polygon_2d(poly, "l1")
        assert sigma.n_atoms == 2
        np.testing.assert_allclose(sorted(sigma.atoms.tolist()), [[0, 1], [1, 0]])
        np.testing.assert_allclose(sigma.masses, [1.0, 1.0])

    def test_cross_polytope_chain_l2_mass(self):
        poly = Polygon2D(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sigma = spectral_from_polygon_2d(poly, "l2")
        np.testing.assert_allclose(sigma.atoms, [[1 / SQRT2, 1 / SQRT2]])
        np.testing.assert_allclose(sigma.masses, [SQRT2])

    def test_marshall_olkin_half_l2_masses(self):
        from maxzonoid.families import marshall_olkin_polygon

        sigma = spectral_from_polygon_2d(marshall_olkin_polygon(0.5, 0.5), "l2")
        np.testing.assert_allclose(
            sorted(sigma.masses.tolist()), [0.5, 0.5, SQRT2 / 2], atol=1e-12
        )

    def test_polygon_round_trip_support(self, rng):
        for _ in range(10):
            poly = random_dependency_polygon(rng)
            sigma = spectral_from_polygon_2d(poly, "l1")
            K = zonoid_from_spectral(sigma)
            U = grid_2d(1024)
            np.testing.assert_allclose(
                support_function(K, U), poly.support(U), rtol=0, atol=1e-9
            )

    def test_support_exact_at_edge_normals(self, rng):
        poly = random_dependency_polygon(rng)
        sigma = spectral_from_polygon_2d(poly, "l2")
        K = zonoid_from_spectral(sigma)
        # edge normals (s, t) from the edge vectors (-t, s)
        a, b = poly.vertices[:-1], poly.vertices[1:]
        normals = np.column_stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]])
        np.testing.assert_allclose(
            support_function(K, normals), poly.support(normals), rtol=0, atol=1e-12
        )

    def test_exact_round_trip_of_a_fine_measure(self, rng):
        # 10^4 exceedances of independent Frechet pairs: directions so close
        # that a raw cross-product test at 1e-9 dropped most chain vertices
        X = -1.0 / np.log(rng.random((100_000, 2)))
        s = np.sort(X.sum(axis=1))[-10_000]
        sigma = empirical_spectral(X, s)
        assert sigma.n_atoms == 10_000
        chain = polygon_from_spectral(sigma)
        assert chain.vertices.shape == (sigma.n_atoms + 1, 2)
        back = spectral_from_polygon_2d(chain)
        assert back.n_atoms == sigma.n_atoms
        # edges come back up to the rounding of the vertex sums, about one
        # ulp of the chain's unit scale; an atom is its edge over its mass
        np.testing.assert_allclose(back.masses, sigma.masses, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.scaled_atoms, sigma.scaled_atoms, rtol=0, atol=1e-15)
        K, K_back = zonoid_from_spectral(sigma), zonoid_from_spectral(back)
        assert hausdorff_distance(K, K_back) == 0.0

    def test_materialize_tiny_coordinate_does_not_warn(self):
        sigma = DiscreteSpectralMeasure(np.array([[1.0, 1e-310], [0.5, 0.5]]), np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = polygon_from_spectral(sigma)
        np.testing.assert_array_equal(chain.vertices, [[1.5, 0.0], [1.0, 0.5], [0.0, 0.5]])

    def test_materialize_inverse(self, rng):
        poly = random_dependency_polygon(rng)
        sigma = spectral_from_polygon_2d(poly, "l1")
        back = polygon_from_spectral(sigma)
        np.testing.assert_allclose(back.vertices, poly.vertices, atol=1e-9)

    def test_dependency_polygon_l1_mass_is_dimension(self, rng):
        for _ in range(5):
            sigma = spectral_from_polygon_2d(random_dependency_polygon(rng), "l1")
            assert sigma.total_mass == pytest.approx(2.0, abs=1e-9)
