"""Self-test of the benchmark's correctness checks.

Each check is fed an output that is right, computed here, and the same
output perturbed; the check must pass the first and flag the second.

    python3 perfbench/selftest.py
"""

import itertools
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks as ck  # noqa: E402

RNG = np.random.default_rng(5)


def frechet_sample(n, A):
    """Exact sample of the max-zonoid law with scaled atoms A."""
    z = -1.0 / np.log(RNG.random((n, len(A))))
    return (z[:, :, None] * np.asarray(A)[None]).max(axis=1)


def perturbed_doc(doc, path, value):
    import copy

    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def cases():
    MW = np.array([[0.3, 0.8], [0.7, 0.2]])
    h_mw = lambda X: ck.h_atoms(X, MW)  # noqa: E731
    h_log = lambda X: ck.h_logistic(X, 2.0)  # noqa: E731
    X = frechet_sample(20_000, MW)
    yield ("marginals KS", ck.check_marginals_ks(X, "mw"), ck.check_marginals_ks(X * [1.0, 1.2], "mw"))
    yield ("cdf bands", ck.check_cdf_bands(X, h_mw, [[1, 1], [2, 0.5]], "mw"),
           ck.check_cdf_bands(X, h_log, [[1, 1], [2, 0.5]], "mw"))

    n, s = 20_000, 10.0
    norms = X.sum(axis=1)
    hit = norms >= s
    pts, ms = X[hit] / norms[hit, None], np.full(int(hit.sum()), s / n)
    sums = (ms[:, None] * pts).sum(axis=0)
    yield ("estimate sums", ck.check_estimate(pts, ms, sums, s, n, "mw"),
           ck.check_estimate(pts, ms * 1.5, sums * 1.5, s, n, "mw"))
    yield ("estimate report", [], ck.check_estimate(pts, ms, sums + 1e-3, s, n, "mw"))

    rows = [[10, 900, 0.05, 1], [20, 450, 0.07, 1]]
    yield ("convergence", ck.check_convergence(rows, (10.0, 20.0), "c"),
           ck.check_convergence([[10, 900, 0.75, 1], [20, 450, 0.07, 1]], (10.0, 20.0), "c"))
    yield ("convergence ok flag", [], ck.check_convergence([[10, 900, 0.05, 0], [20, 450, 0.07, 1]], (10.0, 20.0), "c"))

    theta = math.sqrt(2.0)
    doc = {"results": {"theta": {"1": 1.0, "2": 1.0, "1,2": theta}, "chi": 2 - theta, "kendall_tau": 0.5,
                       "spearman_rho": {"value": 0.68}, "multivariate_rho": {"value": 0.57}}}
    yield ("measures", ck.check_measures(doc, h_log, "log", kendall=0.5),
           ck.check_measures(perturbed_doc(doc, ["results", "theta", "1,2"], 1.42), h_log, "log"))
    yield ("measures chi", [], ck.check_measures(perturbed_doc(doc, ["results", "chi"], 0.6), h_log, "log"))
    yield ("measures kendall", [], ck.check_measures(perturbed_doc(doc, ["results", "kendall_tau"], 0.51),
                                                     h_log, "log", kendall=0.5))
    yield ("measures rho range", [], ck.check_measures(
        perturbed_doc(doc, ["results", "spearman_rho", "value"], 1.2), h_log, "log"))

    alpha = 0.8
    th = np.linspace(0.01, 1.56, 50)
    P = np.column_stack([np.cos(th), np.sin(th)])
    curve = 1.0 / (-math.log(alpha) * P)  # h_log(P) = 1
    yield ("quantile", ck.check_quantile(curve, h_log, alpha, "log"),
           ck.check_quantile(curve * 1.001, h_log, alpha, "log"))

    yield ("atoms", ck.check_atoms(MW, np.ones(2), h_mw, "mw"),
           ck.check_atoms(MW, [1.0, 1.001], h_mw, "mw"))
    yield ("atoms support", [], ck.check_atoms([[0.5, 0.5]], [2.0], h_mw, "mw"))

    Xe = np.exp(RNG.uniform(-1.5, 3.0, (500, 2)))
    Xe[:5, 0], Xe[5:10, 1] = 0.0, np.inf
    F = ck.law_cdf(h_mw, Xe)
    yield ("cdf reference", ck.check_values(F, ck.law_cdf(h_mw, Xe), "cdf"),
           ck.check_values(F * (1 + 1e-6), ck.law_cdf(h_mw, Xe), "cdf"))
    yield ("Frechet bounds", ck.check_frechet_bounds(Xe, F, "fb"),
           ck.check_frechet_bounds(Xe, np.minimum(F * 1.5 + 0.01, 1.0), "fb"))
    t = 2.5
    Ft = ck.law_cdf(h_mw, t * Xe)
    yield ("max-stability", ck.check_max_stability(F, Ft, t, "ms"),
           ck.check_max_stability(F, Ft * 0.999, t, "ms"))
    U = RNG.random((400, 2))
    U[:20, 1], U[20:40, 0] = 1.0, 1.0
    C = ck.law_copula(h_mw, U)
    Cbad = C.copy()
    Cbad[:20] *= 0.99
    yield ("copula margins", ck.check_copula_margins(U, C, "cm"), ck.check_copula_margins(U, Cbad, "cm"))
    T = RNG.random(300)
    A = h_mw(np.column_stack([T, 1 - T]))
    yield ("pickands bounds", ck.check_pickands(T, A, "pk"), ck.check_pickands(T, A * 1.5, "pk"))

    yield ("close", ck.check_close(1.0, 1.0, 1e-9, "x"), ck.check_close(1.1, 1.0, 1e-3, "x"))
    truth = 2 / math.sqrt(3)
    yield ("hausdorff grid", ck.check_hausdorff_grid(truth - 0.01, truth, 20_000, 3, math.sqrt(3) + 1, "h"),
           ck.check_hausdorff_grid(truth + 0.01, truth, 20_000, 3, math.sqrt(3) + 1, "h"))
    tol3 = ck.m_distance_tolerance(20_000, 3)
    yield ("m-distance tolerance", ck.check_close(3 * math.log(3) - 0.5 * tol3, 3 * math.log(3), tol3, "m"),
           ck.check_close(3 * math.log(3) - 2 * tol3, 3 * math.log(3), tol3, "m"))
    se = math.sqrt((1 / 6) * (5 / 6) / 400_000)
    yield ("mc volume", ck.check_mc_volume(1 / 6 + 2 * se, 1 / 6, 1.0, 400_000, "v"),
           ck.check_mc_volume(1 / 6 + 8 * se, 1 / 6, 1.0, 400_000, "v"))

    d, p = 3, 1.5
    K = {frozenset(A): len(A) ** (1 / p) for k in (1, 2, 3) for A in itertools.combinations(range(d), k)}
    yield ("logistic theta", ck.check_logistic_theta(K, p, "lt"),
           ck.check_logistic_theta({**K, frozenset({0, 1}): 1.6}, p, "lt"))
    c = ck.mobius_weights(K, d)
    pts = [np.isin(np.arange(d), list(B)) / len(B) for B in c if c[B] > 1e-12]
    ms = [c[B] * len(B) for B in c if c[B] > 1e-12]
    yield ("reproduce theta", ck.check_reproduces_theta(K, pts, ms, d, "rt"),
           ck.check_reproduces_theta(K, pts, np.array(ms) * 1.01, d, "rt"))

    h_cube = lambda Y: ck.h_atoms(Y, np.eye(3))  # noqa: E731
    yield ("discretized", ck.check_discretized(np.eye(3), np.ones(3), h_cube, 0.0, 3, 1, "nn"),
           ck.check_discretized(np.eye(3), np.ones(3), lambda Y: ck.h_logistic(Y, p), 0.0, 3, 1, "nn"))
    yield ("discretized hausdorff", [], ck.check_discretized(np.eye(3), np.ones(3), h_cube, 0.1, 3, 1, "nn"))

    bad = {frozenset(k): v for k, v in {(0,): 1.0, (1,): 1.0, (2,): 1.0, (0, 1): 1.2, (0, 2): 1.5,
                                         (1, 2): 1.9, (0, 1, 2): 2.0}.items()}
    cb = ck.mobius_weights(bad, 3)
    worst = min(cb, key=cb.get)

    class Verdict:
        def __init__(self, ok, subset, value):
            self.ok, self.violation_subset, self.violation_value = ok, subset, value

    yield ("rejection", ck.check_rejection(Verdict(False, worst, cb[worst]), bad, 3, "r"),
           ck.check_rejection(Verdict(True, None, None), bad, 3, "r"))
    other = next(B for B in cb if B != worst)
    yield ("rejection witness", [], ck.check_rejection(Verdict(False, other, cb[worst]), bad, 3, "r"))


def main():
    failures = 0
    for name, good, bad in cases():
        ok = not good and bool(bad)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": good={good} bad={bad}"))
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
