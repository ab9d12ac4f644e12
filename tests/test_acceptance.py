"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -s` to see them)."""

import math
import time

import numpy as np
from scipy.special import gamma
from scipy.stats import kendalltau, kstest

import maxzonoid as mz
from maxzonoid.alternation import subset_indicator_lattice

from conftest import random_dependency, random_dependency_polygon, random_model

SQRT2 = math.sqrt(2.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_kendall_tau_logistic():
    t0 = time.monotonic()
    model = mz.MaxStableModel(mz.make_family("logistic", 2, p=2.0))
    tau_quad = mz.kendall_tau_2d(model)
    sim_model = model.with_discrete(1000)
    s = mz.simulate(sim_model, 100_000, seed=42)
    tau_sim = kendalltau(s.values[:, 0], s.values[:, 1]).statistic
    elapsed = time.monotonic() - t0
    ok = abs(tau_quad - 0.5) <= 1e-6 and abs(tau_sim - 0.5) <= 0.02 and elapsed < 10
    report(
        1,
        ok,
        f"logistic(2) tau: quadrature {tau_quad:.9f} (|err|<=1e-6), "
        f"simulated {tau_sim:.4f} (|err|<=0.02), {elapsed:.1f}s < 10s",
    )


def test_criterion_02_inverted_pearson_logistic():
    model = mz.MaxStableModel(mz.make_family("logistic", 2, p=2.0))
    target = math.pi / 2 - 1
    exact = mz.inverted_pearson_2d(model).value
    mc = mz.inverted_pearson_2d(model, method="mc", n=200_000, seed=2)
    ok = abs(exact - target) <= 1e-6 and abs(mc.value - target) <= 3 * mc.stderr
    report(
        2,
        ok,
        f"inverted-Pearson logistic(2): exact {exact:.9f} vs pi/2-1 "
        f"{target:.9f}; MC {mc.value:.5f} +- {mc.stderr:.5f}",
    )


def test_criterion_03_spearman_endpoints_and_lp_volume():
    ind2 = mz.spearman_rho(mz.MaxStableModel(mz.unit_cube(2))).value
    dep2 = mz.spearman_rho(mz.MaxStableModel(mz.unit_cross_polytope(2))).value
    ok = abs(ind2) <= 1e-9 and abs(dep2 - 1.0) <= 1e-9
    ind3 = mz.spearman_rho(mz.MaxStableModel(mz.unit_cube(3)), n=150_000, seed=4)
    dep3 = mz.spearman_rho(
        mz.MaxStableModel(mz.unit_cross_polytope(3)), n=150_000, seed=4
    )
    ok &= abs(ind3.value) <= 3 * ind3.stderr and abs(dep3.value - 1.0) <= 3 * dep3.stderr
    details = [f"2-D exact ind {ind2:.2e}, dep-1 {dep2 - 1:.2e}"]
    for p, seed in ((1.0, 1), (2.0, 2), (4.0, 3)):
        model = mz.MaxStableModel(mz.make_family("logistic", 3, p=p))
        target = (6 * gamma(1 + 1 / p) ** 3 / gamma(1 + 3 / p) - 1) / 5
        est = mz.multivariate_rho(model, n=250_000, seed=seed)
        ok &= abs(est.value - target) <= 3 * max(est.stderr, 1e-12)
        details.append(f"rho(p={p:g}) {est.value:.4f} vs {target:.4f}")
    report(3, ok, "; ".join(details))


def test_criterion_04_exponential_integral_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240812)
    ok = True
    details = []
    for d in (2, 3):
        for i in range(5):
            K = random_dependency(rng, d=d, m=rng.integers(2, 7))
            est, se_est = mz.exp_support_integral_mc(K, n=200_000, seed=100 + i)
            if d == 2:
                vol = mz.polar_volume(K)
            else:
                vol = mz.polar_volume(K, method="mc", n=300_000, seed=200 + i)
            target = gamma(d + 1) * vol.value
            sigma = math.hypot(se_est, gamma(d + 1) * vol.stderr)
            ok &= abs(est - target) <= 3 * sigma
            details.append(f"d={d}#{i}: {abs(est - target) / sigma:.2f} sigma")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    report(4, ok, f"integral identity within 3 sigma ({'; '.join(details)}), "
                  f"{elapsed:.1f}s < 30s")


def test_criterion_05_m_distance_log4():
    d = mz.m_distance(mz.unit_cross_polytope(2), mz.unit_cube(2))
    ok = abs(d - math.log(4.0)) <= 1e-3
    report(5, ok, f"m(cross, square) = {d:.6f} vs log 4 = {math.log(4):.6f}")


def test_criterion_06_spectral_round_trips():
    rng = np.random.default_rng(7)
    theta = np.linspace(0, np.pi / 2, 4096)
    U = np.column_stack([np.cos(theta), np.sin(theta)])
    worst_support = 0.0
    ok = True
    for _ in range(20):
        poly = random_dependency_polygon(rng)
        sigma2 = mz.spectral_from_polygon_2d(poly, "l2")
        K = mz.zonoid_from_spectral(sigma2)
        err = float(np.abs(mz.support_function(K, U) - poly.support(U)).max())
        worst_support = max(worst_support, err)
        ok &= err <= 1e-9
        ok &= SQRT2 - 1e-9 <= sigma2.total_mass <= 2.0 + 1e-9
        sigma1 = mz.rebase_reference(sigma2, "l1")
        ok &= abs(sigma1.total_mass - 2.0) <= 1e-9
    report(
        6,
        ok,
        f"20 polygons: max support error {worst_support:.2e} <= 1e-9, "
        "l2 mass in [sqrt2, 2], l1 mass = 2",
    )


def test_criterion_07_extremal_consistency():
    ok = True
    cube_t = mz.extremal_table(mz.MaxStableModel(mz.unit_cube(3)))
    cross_t = mz.extremal_table(mz.MaxStableModel(mz.unit_cross_polytope(3)))
    ok &= mz.check_extremal_consistency(cube_t).ok
    ok &= mz.check_extremal_consistency(cross_t).ok
    for bad, expect_subset_size in ((2.5, 2), (0.8, 1)):
        table = mz.ExtremalTable(
            2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): bad}
        )
        res = mz.check_extremal_consistency(table)
        ok &= (not res.ok) and res.violation_value < 0
        ok &= len(res.violation_subset) == expect_subset_size
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(2, 5))
        model = random_model(rng, d=d, m=int(rng.integers(2, 6)))
        table = mz.extremal_table(model)
        res = mz.check_extremal_consistency(table)
        alt = mz.theta_alternation_check(table)
        ok &= res.ok and alt.ok
        rebuilt = mz.construct_from_extremal(table)
        for A, v in table.values.items():
            worst = max(worst, abs(mz.extremal_coefficient(rebuilt, A) - v))
    ok &= worst <= 1e-12
    report(7, ok, f"cube/cross accepted, 2.5/0.8 rejected with witnesses; "
                  f"100 round-trips exact (max err {worst:.2e}); checkers agree")


def test_criterion_08_max_stability_identity():
    rng = np.random.default_rng(5)
    zoo = [
        mz.MaxStableModel(mz.unit_cube(2)),
        mz.MaxStableModel(mz.unit_cross_polytope(3)),
        mz.MaxStableModel(mz.make_family("logistic", 2, p=2.0)),
        mz.MaxStableModel(mz.make_family("logistic", 3, p=1.5)),
        mz.MaxStableModel(mz.make_family("husler_reiss", 2, lam=0.8)),
        mz.MaxStableModel(mz.make_family("neg_logistic", 2, lam=0.6, p=-2.0)),
        mz.MaxStableModel(mz.make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7)),
        random_model(rng, 3, 5),
        mz.construct_from_extremal(
            mz.ExtremalTable(
                2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): 1.5}
            )
        ),
    ]
    worst = 0.0
    for model in zoo:
        for n in (2, 5):
            worst = max(worst, mz.max_stability_check(model, n))
    ok = worst <= 1e-12
    report(8, ok, f"F(nx)^n = F(x) on 25-grid, n in (2,5), {len(zoo)} models, "
                  f"max deviation {worst:.2e}")


def test_criterion_09_simulation_law():
    rng = np.random.default_rng(31)
    n = 100_000
    models = [
        mz.MaxStableModel(mz.unit_cube(2)),
        mz.MaxStableModel(mz.make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5)),
        random_model(rng, 2, 4),
    ]
    ok = True
    worst_z = 0.0
    min_p = 1.0
    for i, model in enumerate(models):
        s = mz.simulate(model, n, seed=300 + i)
        pts = rng.random((25, 2)) * 2.5 + 0.2
        F = mz.cdf(model, pts)
        emp = (s.values[:, None, :] <= pts[None, :, :]).all(axis=2).mean(axis=0)
        z = np.abs(emp - F) / np.sqrt(F * (1 - F) / n)
        worst_z = max(worst_z, float(z.max()))
        ok &= z.max() <= 3.0
        for j in range(2):
            p = kstest(s.values[:, j], lambda x: np.exp(-1.0 / x)).pvalue
            min_p = min(min_p, p)
            ok &= p > 0.01
    report(9, ok, f"ecdf max |z| = {worst_z:.2f} <= 3; KS marginal min p = {min_p:.3f} > 0.01")


def test_criterion_10_alternation_counterexample():
    def h_bad(X):
        return np.maximum(X.max(axis=1), (2.0 / 3.0) * X.sum(axis=1))

    pts = subset_indicator_lattice(3, include_origin=True)
    res = mz.check_alternation(h_bad, pts, max_order=3)
    ok = (not res.ok) and res.witness.value > 1e-9
    for K in (mz.unit_cube(3), mz.unit_cross_polytope(3)):
        passing = mz.check_alternation(
            lambda X: mz.support_function(K, X), pts, max_order=3
        )
        ok &= passing.ok
    report(
        10,
        ok,
        f"simplex-cap body rejected (witness diff {res.witness.value:.4f} at "
        f"order {res.order_checked}); cube and cross pass",
    )


def test_criterion_11_convergence_diagnostic():
    model = mz.MaxStableModel(mz.make_family("marshall_olkin", 2, alpha1=0.5, alpha2=0.5))
    seeds = range(11, 23)
    dists = np.zeros(3)
    for seed in seeds:
        for i, n in enumerate((10**3, 10**4, 10**5)):
            s = mz.simulate(model, n, seed=seed)
            pts = mz.convergence_diagnostic(s, [2 * n ** (1 / 3)], model)
            dists[i] += pts[0].distance / len(seeds)
    ok = dists[0] > dists[1] > dists[2] and dists[-1] < 0.05
    report(
        11,
        ok,
        f"mean Hausdorff distances over seeds {seeds.start}-{seeds.stop - 1}: "
        + " > ".join(f"{d:.4f}" for d in dists)
        + " decreasing, final < 0.05",
    )
