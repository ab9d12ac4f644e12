import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, ndtr
from scipy.stats import kendalltau

from maxzonoid import (
    MaxStableModel,
    chi,
    discretize,
    extremal_coefficient,
    extremal_table,
    inverted_pearson_2d,
    kendall_tau_2d,
    make_family,
    multivariate_rho,
    simulate,
    spearman_rho,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_spectral,
)

from maxzonoid import dependence

from conftest import random_dependency, random_model


@pytest.fixture(scope="module")
def log2():
    return MaxStableModel(make_family("logistic", 2, p=2.0))


class TestExtremalCoefficients:
    def test_independence(self):
        model = MaxStableModel(unit_cube(4))
        for A in ([0], [1, 3], [0, 1, 2, 3]):
            assert extremal_coefficient(model, A) == pytest.approx(len(A))

    def test_complete_dependence(self):
        model = MaxStableModel(unit_cross_polytope(4))
        for A in ([2], [0, 2], [0, 1, 2, 3]):
            assert extremal_coefficient(model, A) == pytest.approx(1.0)

    def test_logistic_full_set(self):
        for d in (2, 3, 4):
            for p in (1.5, 2.0, 4.0):
                model = MaxStableModel(make_family("logistic", d, p=p))
                assert extremal_coefficient(model, range(d)) == pytest.approx(
                    d ** (1 / p)
                )

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            extremal_coefficient(MaxStableModel(unit_cube(2)), [])

    def test_table_bounds_and_monotonicity(self, rng):
        for _ in range(5):
            model = random_model(rng, d=4, m=5)
            table = extremal_table(model)
            for A, v in table.values.items():
                assert 1.0 - 1e-9 <= v <= len(A) + 1e-9
                for B, w in table.values.items():
                    if A < B:
                        assert v <= w + 1e-9

    @pytest.mark.parametrize(
        "name",
        ["logistic3", "logistic4", "cube4", "cross3", "fit406", "husler_reiss", "mo_atoms", "few_atoms5", "atoms5"],
    )
    def test_table_is_one_batch_equal_to_each_coefficient(self, monkeypatch, rng, name):
        K = {
            "logistic3": lambda: make_family("logistic", 3, p=1.5),
            "logistic4": lambda: make_family("logistic", 4, p=2.5),
            "cube4": lambda: unit_cube(4),
            "cross3": lambda: unit_cross_polytope(3),
            # the 406 atoms of a d = 3 NNLS fit, read by the dense kernel
            "fit406": lambda: zonoid_from_spectral(discretize(make_family("logistic", 3, p=1.5), 500).measure),
            "husler_reiss": lambda: make_family("husler_reiss", 2, lam=0.8),
            "mo_atoms": lambda: zonoid_from_spectral(make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7).spectral),
            "few_atoms5": lambda: random_dependency(rng, d=5, m=4),
            "atoms5": lambda: random_dependency(rng, d=5, m=30),
        }[name]()
        model = MaxStableModel(K)
        calls = []
        batch = dependence.support_function

        def recording(K, x):
            calls.append(np.shape(x))
            return batch(K, x)

        monkeypatch.setattr(dependence, "support_function", recording)
        for max_size in (None, 1, 2):
            calls.clear()
            table = extremal_table(model, max_size)
            want = sum(math.comb(K.d, k) for k in range(1, (max_size or K.d) + 1))
            assert calls == [(want, K.d)] and len(table.values) == want
            for A, v in table.values.items():
                assert v == float(extremal_coefficient(model, sorted(A)))

    def test_full_theta_d_iff_pairwise_two(self, rng):
        # axis atoms: both sides hold
        model = MaxStableModel(unit_cube(3))
        table = extremal_table(model)
        full = table.theta(range(3))
        pairs = [table.theta(A) for A in ([0, 1], [0, 2], [1, 2])]
        assert full == pytest.approx(3.0) and all(
            p == pytest.approx(2.0) for p in pairs
        )
        # generic random models: biconditional evaluated
        for _ in range(10):
            m = random_model(rng, d=3, m=4)
            t = extremal_table(m)
            lhs = abs(t.theta(range(3)) - 3.0) < 1e-9
            rhs = all(
                abs(t.theta(A) - 2.0) < 1e-9 for A in ([0, 1], [0, 2], [1, 2])
            )
            assert lhs == rhs


class TestChi:
    def test_endpoints(self):
        assert chi(MaxStableModel(unit_cube(2))) == pytest.approx(0.0)
        assert chi(MaxStableModel(unit_cross_polytope(2))) == pytest.approx(1.0)

    def test_husler_reiss(self):
        for lam in (0.3, 1.0, 2.5):
            model = MaxStableModel(make_family("husler_reiss", 2, lam=lam))
            assert chi(model) == pytest.approx(2 - 2 * ndtr(lam), rel=1e-12)

    def test_range(self, rng):
        for _ in range(10):
            assert -1e-9 <= chi(random_model(rng)) <= 1.0 + 1e-9


class TestSpearman:
    def test_independence_zero(self):
        assert spearman_rho(MaxStableModel(unit_cube(2))).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dependence_one(self):
        assert spearman_rho(
            MaxStableModel(unit_cross_polytope(2))
        ).value == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle_logistic(self, log2):
        J, _ = quad(lambda t: (1 + np.hypot(t, 1 - t)) ** -2, 0, 1, epsabs=1e-13)
        oracle = 12 * J - 3
        assert spearman_rho(log2).value == pytest.approx(
            oracle, abs=1e-9
        )
        assert spearman_rho(log2, method="quadrature").value == pytest.approx(
            oracle, abs=1e-9
        )

    def test_mc_agrees_with_exact(self, rng):
        for seed in range(3):
            model = random_model(rng, 2, 4)
            exact = spearman_rho(model).value
            mc = spearman_rho(model, method="mc", n=50_000, seed=seed)
            assert mc.value == pytest.approx(exact, abs=3 * max(mc.stderr, 1e-4))

    def test_d3_endpoints_mc(self):
        ind = spearman_rho(MaxStableModel(unit_cube(3)), n=100_000, seed=4)
        assert ind.value == pytest.approx(0.0, abs=3 * max(ind.stderr, 1e-4))
        dep = spearman_rho(MaxStableModel(unit_cross_polytope(3)), n=100_000, seed=4)
        assert dep.value == pytest.approx(1.0, abs=3 * max(dep.stderr, 1e-4))


    def test_d3_quadrature_endpoints(self):
        for K, truth in ((unit_cube(3), 0.0), (unit_cross_polytope(3), 1.0)):
            est = spearman_rho(MaxStableModel(K), method="quadrature")
            assert est.method == "quadrature" and est.stderr > 0
            assert abs(est.value - truth) <= est.stderr

    def test_d1_is_value_error(self):
        with pytest.raises(ValueError, match="d >= 2"):
            spearman_rho(MaxStableModel(unit_cube(1)))


class TestKendall:
    def test_independence_zero(self):
        assert kendall_tau_2d(MaxStableModel(unit_cube(2))) == pytest.approx(0.0)

    def test_dependence_one(self):
        assert kendall_tau_2d(MaxStableModel(unit_cross_polytope(2))) == pytest.approx(
            1.0
        )

    def test_logistic_half(self, log2):
        assert kendall_tau_2d(log2) == pytest.approx(0.5, abs=1e-9)

    def test_polygon_model_vs_sample_estimator(self, rng):
        model = MaxStableModel(make_family("marshall_olkin", 2, alpha1=0.6, alpha2=0.4))
        tau = kendall_tau_2d(model)
        s = simulate(model, 100_000, seed=29)
        emp = kendalltau(s.values[:, 0], s.values[:, 1]).statistic
        assert emp == pytest.approx(tau, abs=0.02)

    def test_segment_integration_against_riemann_sum(self, rng):
        # independent oracle for the closed-form segment integrals:
        # midpoint rule on a fine grid, support point from the atom sides
        model = random_model(rng, 2, 5)
        a, w = model.spectral.atoms, model.spectral.masses
        t = (np.arange(400_000) + 0.5) / 400_000
        side1 = a[:, 0][None, :] * t[:, None] >= a[:, 1][None, :] * (1 - t)[:, None]
        y1 = (side1 * (w * a[:, 0])[None, :]).sum(axis=1)
        y2 = (~side1 * (w * a[:, 1])[None, :]).sum(axis=1)
        h = y1 * t + y2 * (1 - t)
        brute = 1.0 - np.mean(y1 * y2 / h**2)
        assert kendall_tau_2d(model) == pytest.approx(brute, abs=1e-5)

    def test_sorted_sums_match_segment_loop(self, log2):
        # reference: the closed form summed one segment at a time, with the
        # support point taken from the atom sides at the segment midpoint
        sigma = discretize(log2, 1000).measure
        a, w = sigma.atoms, sigma.masses
        brk = a[:, 1] / (a[:, 0] + a[:, 1])
        ts = np.unique(np.concatenate([[0.0, 1.0], brk[(brk > 0) & (brk < 1)]]))
        total = 0.0
        for ta, tb in zip(ts[:-1], ts[1:]):
            tm = 0.5 * (ta + tb)
            side1 = a[:, 0] * tm >= a[:, 1] * (1.0 - tm)
            P = float((w * a[:, 0])[side1].sum())
            Q = float((w * a[:, 1])[~side1].sum())
            if P <= 0.0 or Q <= 0.0:
                continue
            ha, hb = P * ta + Q * (1.0 - ta), P * tb + Q * (1.0 - tb)
            if abs(P - Q) < 1e-14:
                total += P * Q * (tb - ta) / (ha * hb)
            else:
                total += P * Q / (P - Q) * (1.0 / ha - 1.0 / hb)
        assert len(ts) > 500
        assert kendall_tau_2d(zonoid_from_spectral(sigma)) == pytest.approx(
            1.0 - total, abs=1e-12
        )

    def test_chain_sums_equal_breakpoint_sums(self, rng, log2):
        # reference: the atoms sorted by breakpoint a_2/(a_1 + a_2), P a
        # prefix and Q a suffix sum in that order.  The planar chain takes
        # the breakpoints as 1/(1 + a_1/a_2) of its sorted slopes and sums
        # tied atoms in another order, so the two agree to rounding only
        def by_breakpoint(sigma):
            a, w = sigma.atoms, sigma.masses
            brk = a[:, 1] / (a[:, 0] + a[:, 1])
            order = np.argsort(brk, kind="stable")
            brk, wa = brk[order], w[order, None] * a[order]
            P_at = np.concatenate([[0.0], np.cumsum(wa[:, 0])])
            Q_at = np.append(np.cumsum(wa[::-1, 1])[::-1], 0.0)
            ts = np.unique(np.concatenate([[0.0, 1.0], brk[(brk > 0) & (brk < 1)]]))
            j = np.searchsorted(brk, ts[:-1], "right")
            P, Q = P_at[j], Q_at[j]
            live = (P > 0.0) & (Q > 0.0)
            P, Q, ta, tb = P[live], Q[live], ts[:-1][live], ts[1:][live]
            ha, hb = P * ta + Q * (1.0 - ta), P * tb + Q * (1.0 - tb)
            return float(1.0 - (P * Q * (tb - ta) / (ha * hb)).sum())

        sigmas = [discretize(log2, 1000).measure, unit_cube(2).spectral,
                  make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7).spectral]
        sigmas += [random_model(rng, 2, m).spectral for m in (1, 2, 5, 40, 200)]
        for sigma in sigmas:
            tau = kendall_tau_2d(zonoid_from_spectral(sigma))
            assert tau == pytest.approx(by_breakpoint(sigma), rel=0, abs=1e-15)

    def test_tied_atoms_act_as_one(self, rng):
        # repeated rows, which only a measure built directly can hold, give
        # the tau of the merged atom: a tie leaves an empty segment
        from maxzonoid.spectral import DiscreteSpectralMeasure

        for m in (1, 3, 20):
            pts = rng.random((m, 2))
            pts /= pts.sum(axis=1, keepdims=True)
            pts[0] = (1.0, 0.0)  # an axis atom ties with its copy too
            w = rng.random(m) + 0.1
            k = rng.integers(0, m, size=4)
            tied = DiscreteSpectralMeasure(np.vstack([pts, pts[k]]), np.concatenate([w, w[k]]))
            np.add.at(w, k, w[k])
            merged = DiscreteSpectralMeasure(pts, w)
            got = kendall_tau_2d(zonoid_from_spectral(tied))
            assert got == pytest.approx(kendall_tau_2d(zonoid_from_spectral(merged)), rel=0, abs=1e-15)

    def test_fd_gradient_fallback_on_smooth_norm(self):
        from maxzonoid import AnalyticNorm, MaxZonoid, as_dependency

        smooth = make_family("husler_reiss", 2, lam=0.9)
        tau_grad = kendall_tau_2d(MaxStableModel(smooth))
        blind = as_dependency(
            MaxZonoid(d=2, norm=AnalyticNorm("blind", 2, smooth.norm.fn))
        )
        tau_fd = kendall_tau_2d(blind)
        assert tau_fd == pytest.approx(tau_grad, abs=1e-6)

    @pytest.mark.parametrize(
        "name, params",
        [("logistic", {"p": p}) for p in (1.05, 1.3, 2.0)]
        + [("husler_reiss", {"lam": lam}) for lam in (0.3, 1.0, 3.0)],
    )
    def test_norms_against_quad(self, name, params):
        K = make_family(name, 2, **params)

        def integrand(t):
            X = np.array([[t, 1 - t]])
            y = K.norm.grad(X)[0]
            return y[0] * y[1] / K.norm.fn(X)[0] ** 2

        ref, _ = quad(integrand, 0, 1, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(kendall_tau_2d(MaxStableModel(K)) - (1 - ref)) <= 1e-9


class TestInvertedPearson:
    def test_endpoints(self):
        assert inverted_pearson_2d(MaxStableModel(unit_cube(2))).value == pytest.approx(
            0.0
        )
        assert inverted_pearson_2d(
            MaxStableModel(unit_cross_polytope(2))
        ).value == pytest.approx(1.0)

    def test_logistic_quarter_disc(self, log2):
        val = inverted_pearson_2d(log2).value
        assert val == pytest.approx(math.pi / 2 - 1, abs=1e-9)
        # cross-check with alpha*B(alpha, alpha) - 1 at alpha = 1/2
        from scipy.special import beta

        assert val == pytest.approx(0.5 * beta(0.5, 0.5) - 1, abs=1e-9)

    def test_unknown_method(self, log2):
        for method in ("bogus", "exact", "exact_2d"):
            with pytest.raises(ValueError, match="unknown method"):
                inverted_pearson_2d(log2, method=method)

    def test_reports_volume_method(self, log2):
        est = inverted_pearson_2d(log2)
        assert est.method == "quadrature" and est.stderr > 0
        est = inverted_pearson_2d(MaxStableModel(unit_cross_polytope(2)))
        assert (est.method, est.stderr) == ("exact_2d", 0.0)


class TestMultivariateRho:
    def test_endpoints_2d_exact(self):
        assert multivariate_rho(MaxStableModel(unit_cube(2))).value == pytest.approx(
            0.0, abs=1e-12
        )
        assert multivariate_rho(
            MaxStableModel(unit_cross_polytope(2))
        ).value == pytest.approx(1.0, abs=1e-12)

    def test_logistic_closed_form_d3(self):
        for p, seed in ((1.0, 1), (2.0, 2), (4.0, 3)):
            model = MaxStableModel(make_family("logistic", 3, p=p))
            target = (6 * gamma(1 + 1 / p) ** 3 / gamma(1 + 3 / p) - 1) / 5
            est = multivariate_rho(model, n=250_000, seed=seed)
            assert est.value == pytest.approx(target, abs=3 * max(est.stderr, 1e-4))


class TestMonotonicityInP:
    def test_dependence_measures_increase(self):
        ps = [1.0, 1.5, 2.0, 3.0, 6.0]
        models = [MaxStableModel(make_family("logistic", 2, p=p)) for p in ps]
        for fn in (
            chi,
            kendall_tau_2d,
            lambda m: spearman_rho(m).value,
            lambda m: multivariate_rho(m).value,
        ):
            vals = [fn(m) for m in models]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), vals
