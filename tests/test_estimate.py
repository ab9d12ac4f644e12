import numpy as np
import pytest

from maxzonoid import (
    MaxStableModel,
    convergence_diagnostic,
    direction_estimate,
    empirical_spectral,
    estimate_zonoid_2d,
    hausdorff_distance,
    make_family,
    simulate,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
)
from maxzonoid.estimate import DirectionEstimate


def directions(n, endpoint=True):
    th = np.linspace(0, np.pi / 2, n, endpoint=endpoint)
    return np.column_stack([np.cos(th), np.sin(th)])


class TestEmpiricalSpectral:
    def test_complete_dependence_single_direction(self):
        s = simulate(MaxStableModel(unit_cross_polytope(2)), 5000, seed=1)
        sigma = empirical_spectral(s, s.values.sum(axis=1).mean())
        assert sigma.n_atoms == 1  # all rays merge at the diagonal
        np.testing.assert_allclose(sigma.atoms, [[0.5, 0.5]], atol=1e-12)

    def test_atoms_on_sphere_masses_positive(self, rng):
        X = rng.pareto(1.0, size=(2000, 2)) + 1.0
        sigma = empirical_spectral(X, 10.0)
        np.testing.assert_allclose(sigma.atoms.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(sigma.masses > 0)

    def test_no_exceedances_guidance(self):
        with pytest.raises(ValueError, match="lower the threshold"):
            empirical_spectral(np.ones((10, 2)), 100.0)

    def test_independence_mass_avoids_interior(self):
        n = 1_000_000
        s = simulate(MaxStableModel(unit_cube(2)), n, seed=101)
        sigma = empirical_spectral(s, np.sqrt(n))
        central = (sigma.atoms[:, 0] > 1 / 3) & (sigma.atoms[:, 0] < 2 / 3)
        assert sigma.masses[central].sum() < 0.1

    def test_total_mass_stability_under_doubling(self):
        # at a fixed exceedance quantile the total mass is s * k / n
        model = MaxStableModel(make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5))
        masses = []
        for n, seed in ((50_000, 1), (100_000, 2)):
            s = simulate(model, n, seed=seed)
            thr = np.quantile(s.values.sum(axis=1), 1 - 1000 / n)
            sigma = empirical_spectral(s, thr)
            masses.append(sigma.total_mass)
            # binomial sanity: k ~ Bin(n, 1000/n), 3 sigma on the mass
            assert sigma.total_mass == pytest.approx(
                thr * 1000 / n, rel=0.15
            )
        assert abs(masses[0] - masses[1]) < 0.3 * masses[0]


class TestEstimateZonoid2d:
    def test_recovers_square_exactly(self):
        ests = [direction_estimate(u, u.sum()) for u in directions(64)]
        poly = estimate_zonoid_2d(ests)
        K = zonoid_from_polygon(poly)
        assert hausdorff_distance(K, unit_cube(2)) <= 1e-9

    def test_recovers_cross_exactly(self):
        # 65 directions include the diagonal, where the single constraint binds
        ests = [direction_estimate(u, u.max()) for u in directions(65)]
        poly = estimate_zonoid_2d(ests)
        K = zonoid_from_polygon(poly)
        assert hausdorff_distance(K, unit_cross_polytope(2)) <= 1e-9

    def test_noisy_values_bounded_error(self, rng):
        target = make_family("logistic", 2, p=2.0)
        U = directions(64)
        noise = rng.uniform(-0.01, 0.01, len(U))
        ests = [
            direction_estimate(u, support_function(target, u) + e)
            for u, e in zip(U, noise)
        ]
        K = zonoid_from_polygon(estimate_zonoid_2d(ests))
        assert hausdorff_distance(K, target) <= 0.05

    def test_clipping_flag(self):
        est = direction_estimate([0.6, 0.8], 2.0)  # above the coherent band
        assert est.clipped
        assert est.value == pytest.approx(1.4)

    def test_sandwich_after_normalization(self, rng):
        U = directions(32)
        vals = [
            support_function(make_family("husler_reiss", 2, lam=0.7), u)
            + rng.uniform(-0.02, 0.02)
            for u in U
        ]
        poly = estimate_zonoid_2d(
            [direction_estimate(u, v) for u, v in zip(U, vals)]
        )
        K = zonoid_from_polygon(poly)
        X = rng.random((50, 2)) * 2
        h = support_function(K, X)
        assert np.all(h <= X.sum(axis=1) + 1e-9)
        assert np.all(h >= X.max(axis=1) - 1e-9)

    @pytest.mark.parametrize("direction, value", [
        ([-0.1, 1.0], 1.0), ([np.nan, 1.0], 1.0), ([np.inf, 1.0], 1.0),
        ([0.6, 0.8], 0.0), ([0.6, 0.8], -1.0), ([0.6, 0.8], np.nan), ([0.6, 0.8], np.inf),
    ])
    def test_bad_estimate_rejected(self, direction, value):
        ests = [DirectionEstimate(np.array(direction), value), direction_estimate([1.0, 0.0], 1.0)]
        with pytest.raises(ValueError):
            estimate_zonoid_2d(ests)

    def test_needs_two_directions(self):
        with pytest.raises(ValueError, match="two direction"):
            estimate_zonoid_2d([direction_estimate([1.0, 0.0], 1.0)])


class TestConvergenceDiagnostic:
    def test_distances_shrink_with_n(self):
        model = MaxStableModel(
            make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5)
        )
        # one draw per n decides little: average over a fixed seed set
        dists = np.zeros(3)
        seeds = range(11, 23)
        for seed in seeds:
            for i, n in enumerate((10**3, 10**4, 10**5)):
                s = simulate(model, n, seed=seed)
                pts = convergence_diagnostic(s, [2 * n ** (1 / 3)], model)
                assert pts[0].ok
                dists[i] += pts[0].distance / len(seeds)
        assert dists[0] > dists[1] > dists[2]
        assert dists[-1] < 0.05

    def test_wrong_target_stays_away(self):
        model = MaxStableModel(unit_cross_polytope(2))
        s = simulate(model, 20_000, seed=3)
        pts = convergence_diagnostic(s, [20.0], unit_cube(2))
        assert pts[0].distance > 0.1

    def test_complete_dependence_close_at_1e5(self):
        model = MaxStableModel(unit_cross_polytope(2))
        s = simulate(model, 100_000, seed=21)
        pts = convergence_diagnostic(s, [2 * 100_000 ** (1 / 3)], model)
        assert pts[0].distance < 0.02

    def test_flagged_when_no_exceedances(self):
        model = MaxStableModel(unit_cube(2))
        s = simulate(model, 100, seed=5)
        pts = convergence_diagnostic(s, [1.0, 1e9], model)
        assert pts[0].ok and not pts[1].ok
        assert np.isnan(pts[1].distance)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_threshold_must_be_positive_and_finite(self, bad):
        s = simulate(MaxStableModel(unit_cube(2)), 100, seed=5)
        with pytest.raises(ValueError, match="positive and finite"):
            convergence_diagnostic(s, [1.0, bad], unit_cube(2))

    def test_deterministic(self):
        model = MaxStableModel(unit_cross_polytope(2))
        s = simulate(model, 5000, seed=9)
        a = convergence_diagnostic(s, [5.0, 10.0], model)
        b = convergence_diagnostic(s, [5.0, 10.0], model)
        assert [p.distance for p in a] == [p.distance for p in b]
