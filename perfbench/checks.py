"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a value computed here,
apart from the program (closed forms of the families, sums over atom
lists, known geometric answers), or with a property the method must
have.  None of them stores a copy of an earlier output.  Each check
returns a list of problem strings; an empty list means it passed.
"""

import math

import numpy as np
from scipy.special import erfc

# --- support functions, written out from the families' definitions --------


def h_logistic(X, p):
    """(sum_i x_i^p)^(1/p)."""
    X = np.asarray(X, float)
    return (X**p).sum(axis=1) ** (1.0 / p)


def h_neg_logistic(X, lam, p):
    """x1 + x2 - lam (x1^p + x2^p)^(1/p), p < 0; the second term is 0 on the axes."""
    X = np.asarray(X, float)
    inner = np.zeros(len(X))
    pos = (X > 0).all(axis=1)
    inner[pos] = (X[pos] ** p).sum(axis=1) ** (1.0 / p)
    return X.sum(axis=1) - lam * inner


def _Phi(z):
    return 0.5 * erfc(-np.asarray(z, float) / math.sqrt(2.0))


def h_husler_reiss(X, lam):
    """Husler-Reiss exponent V(z) at z = 1/x:
    x1 Phi(lam + log(x1/x2)/(2 lam)) + x2 Phi(lam + log(x2/x1)/(2 lam))."""
    X = np.asarray(X, float)
    out = X.sum(axis=1)
    pos = (X > 0).all(axis=1)
    r = np.log(X[pos, 0] / X[pos, 1])
    out[pos] = X[pos, 0] * _Phi(lam + r / (2 * lam)) + X[pos, 1] * _Phi(lam - r / (2 * lam))
    return out


def h_vertices(X, V):
    """Support of conv({0} | V): max(0, max_v <v, x>)."""
    return np.maximum((np.asarray(X, float) @ np.asarray(V, float).T).max(axis=1), 0.0)


def h_atoms(X, A):
    """Support of a max-zonoid with scaled atoms A: sum_k max_i A_ki x_i."""
    X = np.asarray(X, float)
    A = np.asarray(A, float)
    out = np.empty(len(X))
    for lo in range(0, len(X), 256):
        out[lo : lo + 256] = (X[lo : lo + 256, None, :] * A[None]).max(axis=2).sum(axis=1)
    return out


def marshall_olkin_vertices(alpha1, alpha2):
    return [[1.0, 0.0], [1.0, alpha2], [alpha1, 1.0], [0.0, 1.0]]


def law_cdf(h, X):
    """F(x) = exp(-h(x*)), x* = 1/x; 0 where a coordinate is 0, and an
    infinite coordinate drops out of the law."""
    X = np.asarray(X, float)
    zero = (X == 0).any(axis=1)
    with np.errstate(divide="ignore"):
        xs = np.where(np.isinf(X), 0.0, 1.0 / np.where(X == 0, 1.0, X))
    out = np.exp(-h(xs))
    out[zero] = 0.0
    return out


def law_copula(h, U):
    """C(u) = exp(-h(-log u)); 0 where a coordinate is 0."""
    U = np.asarray(U, float)
    zero = (U == 0).any(axis=1)
    with np.errstate(divide="ignore"):
        z = -np.log(np.where(zero[:, None], 1.0, U))
    out = np.exp(-h(z))
    out[zero] = 0.0
    return out


# --- simulation study -----------------------------------------------------

KS_MIN_P = 1e-6   # per margin; a correct sampler fails it once in 10^6 tests
BAND_Z = 5.0      # binomial error band, in standard errors


def check_marginals_ks(sample, label):
    """Each marginal is unit Frechet, F(x) = exp(-1/x)."""
    from scipy.stats import kstest

    out = []
    for j in range(sample.shape[1]):
        p = kstest(sample[:, j], lambda v: np.exp(-1.0 / v)).pvalue
        if not p >= KS_MIN_P:
            out.append(f"{label}: KS p-value {p:.3g} for margin {j + 1}")
    return out


def check_cdf_bands(sample, h, points, label):
    """Empirical P(xi <= x) within binomial bands of exp(-h(1/x))."""
    out = []
    n = len(sample)
    for x in np.asarray(points, float):
        p = float(np.exp(-h(1.0 / x[None, :]))[0])
        p_hat = float((sample <= x).all(axis=1).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        if abs(p_hat - p) > BAND_Z * se:
            out.append(f"{label}: P(xi <= {x.tolist()}) = {p_hat:.4f}, law gives {p:.4f} (se {se:.4f})")
    return out


def estimate_tolerance(s, n):
    """Allowed |marginal sum - 1| at l1 threshold s with n samples.

    Each exceedance adds s/n times a coordinate in [0, 1] and about 2n/s
    samples exceed, so the standard deviation is at most sqrt(2 s / n);
    allow five of them plus 1/s for the threshold's bias."""
    return 5.0 * math.sqrt(2.0 * s / n) + 1.0 / s


def check_estimate(points, masses, reported_sums, s, n, label):
    """The estimated spectral measure's marginal sums, summed here from
    its atoms, are near 1 and agree with the reported ones."""
    sums = (np.asarray(masses, float)[:, None] * np.asarray(points, float)).sum(axis=0)
    out = []
    tol = estimate_tolerance(s, n)
    if np.abs(sums - 1.0).max() > tol:
        out.append(f"{label}: estimated marginal sums {sums.tolist()} beyond 1 +- {tol:.3f}")
    if np.abs(sums - np.asarray(reported_sums, float)).max() > 1e-9:
        out.append(f"{label}: reported marginal sums {reported_sums} differ from the atoms' {sums.tolist()}")
    return out


MAX_PLANAR_GAP = 1.0 / math.sqrt(2.0)  # Hausdorff distance of cube and cross polytope


def check_convergence(rows, s_grid, label):
    """rows: (s, n_exceedances, distance, ok) per threshold."""
    rows = np.atleast_2d(np.asarray(rows, float))
    out = []
    if rows.shape[0] != len(s_grid) or np.abs(rows[:, 0] - s_grid).max() > 0:
        return [f"{label}: thresholds {rows[:, 0].tolist()} differ from {list(s_grid)}"]
    for s, n_exc, dist, ok in rows:
        if ok != 1.0 or n_exc < 1:
            out.append(f"{label}: threshold {s:g} not evaluated (n_exc {n_exc:g}, ok {ok:g})")
        elif not 0.0 <= dist <= MAX_PLANAR_GAP + 1e-12:
            out.append(f"{label}: distance {dist} at s={s:g} outside [0, 1/sqrt(2)]")
    return out


def check_measures(doc, h, label, kendall=None):
    """Functionals of a planar law: theta = h(1, 1), chi = 2 - theta,
    rank correlations in [0, 1] (max-stable laws are positively
    dependent); kendall, when given, is the known closed form."""
    res = doc["results"]
    theta = float(h(np.ones((1, 2)))[0])
    got = float(res["theta"]["1,2"])
    out = []
    if abs(got - theta) > 1e-9:
        out.append(f"{label}: theta_12 {got} != h(1, 1) = {theta}")
    if abs(float(res["chi"]) - (2.0 - theta)) > 1e-9:
        out.append(f"{label}: chi {res['chi']} != 2 - theta_12 = {2.0 - theta}")
    for key, v in (("kendall_tau", res["kendall_tau"]), ("spearman_rho", res["spearman_rho"]["value"]),
                   ("multivariate_rho", res["multivariate_rho"]["value"])):
        if not -1e-9 <= float(v) <= 1.0 + 1e-9:
            out.append(f"{label}: {key} {v} outside [0, 1]")
    if kendall is not None and abs(float(res["kendall_tau"]) - kendall) > 1e-6:
        out.append(f"{label}: kendall_tau {res['kendall_tau']} != {kendall}")
    return out


def check_quantile(curve, h, alpha, label):
    """Every curve point x satisfies F(x) = alpha."""
    F = law_cdf(h, curve)
    err = float(np.abs(F - alpha).max())
    if not err <= 1e-9:
        return [f"{label}: quantile curve off the level {alpha} by {err:.3g}"]
    return []


def check_atoms(points, masses, h, label, tol=1e-4):
    """A discretized model has unit marginal sums and its support is
    within tol of the family's closed form."""
    A = np.asarray(masses, float)[:, None] * np.asarray(points, float)
    out = []
    sums = A.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        out.append(f"{label}: atom marginal sums {sums.tolist()}")
    t = np.linspace(0.0, 1.0, 65)
    U = np.column_stack([t, 1.0 - t])
    err = float(np.abs(h_atoms(U, A) - h(U)).max())
    if not err <= tol:
        out.append(f"{label}: atom support off the closed form by {err:.3g}")
    return out


# --- bulk law evaluation ----------------------------------------------------


def check_values(got, ref, label, tol=1e-9):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != {ref.shape}"]
    err = np.abs(got - ref)
    bad = ~(err <= tol + tol * np.abs(ref))
    if bad.any():
        i = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{label}: {int(bad.sum())} values off, worst {got[i]} vs {ref[i]}"]
    return []


def check_frechet_bounds(X, F, label, tol=1e-12):
    """prod_i F_i(x_i) <= F(x) <= min_i F_i(x_i), F_i(x) = exp(-1/x)."""
    X = np.asarray(X, float)
    with np.errstate(divide="ignore"):
        Fi = np.where(X == 0, 0.0, np.exp(-1.0 / np.where(X == 0, 1.0, X)))
    lo, hi = Fi.prod(axis=1), Fi.min(axis=1)
    bad = (F < lo - tol) | (F > hi + tol)
    if bad.any():
        return [f"{label}: {int(bad.sum())} values outside the Frechet bounds"]
    return []


def check_max_stability(F_x, F_tx, t, label, tol=1e-9):
    """F(t x)^t = F(x)."""
    return check_values(np.asarray(F_tx, float) ** t, F_x, f"{label} F(tx)^t", tol)


def check_copula_margins(U, C, label, tol=1e-9):
    """C(u, 1) = u and C(1, u) = u."""
    U = np.asarray(U, float)
    out = []
    for j in range(2):
        rows = U[:, 1 - j] == 1.0
        out += check_values(np.asarray(C)[rows], U[rows, j], f"{label} C margin {j + 1}", tol)
    return out


def check_pickands(T, A, label, tol=1e-12):
    """max(t, 1 - t) <= A(t) <= 1."""
    T, A = np.asarray(T, float), np.asarray(A, float)
    bad = (A < np.maximum(T, 1.0 - T) - tol) | (A > 1.0 + tol)
    if bad.any():
        return [f"{label}: {int(bad.sum())} Pickands values outside [max(t, 1-t), 1]"]
    return []


# --- trivariate comparison --------------------------------------------------


def check_close(got, truth, tol, label):
    got = float(got)
    if not abs(got - truth) <= tol:
        return [f"{label}: {got} vs {truth} (tolerance {tol:.3g})"]
    return []


def sphere_grid_tolerance(n, d, lipschitz):
    """Grid error of a max over n quasi-uniform directions on the unit
    sphere S^(d-1): a Lipschitz function's sup is at most L r above the
    grid max, with the covering radius r taken as twice the mean
    spacing (area / n)^(1/(d-1))."""
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return lipschitz * 2.0 * (area / n) ** (1.0 / (d - 1))


def check_hausdorff_grid(got, truth, n, d, lipschitz, label):
    """A grid max lies at or below the sup, and within the grid error of it."""
    tol = sphere_grid_tolerance(n, d, lipschitz)
    got = float(got)
    if not truth - tol <= got <= truth + 1e-12:
        return [f"{label}: {got} outside [{truth - tol:.6g}, {truth:.6g}]"]
    return []


def m_distance_tolerance(n, d):
    """Grid error of the m-distance on n directions of the l1 simplex.

    Between grid directions the support of a dependency set (Lipschitz
    constant sqrt(d), value at least 1/d on the simplex) can dip by
    sqrt(d) r relative d sqrt(d) r, r the covering radius; each of d
    scale factors can be off by that ratio.  r is twice the mean spacing
    of n points on the simplex of area sqrt(d) / (d - 1)!."""
    area = math.sqrt(d) / math.factorial(d - 1)
    r = 2.0 * (area / n) ** (1.0 / (d - 1))
    return d * d * math.sqrt(d) * r


NNLS_ACCURACY = 5e-3  # allowed support error of an NNLS fit on ~500 lattice atoms, a few times the 1.3e-3 it reaches at p = 1.5


def check_discretized(points, masses, h, hausdorff, d, seed, label):
    """An NNLS atom fit has unit marginal sums and support within
    NNLS_ACCURACY of the closed form on random simplex directions; its
    Hausdorff distance to the closed form lies in [0, sqrt(d) NNLS_ACCURACY]
    because a unit direction u has h(u) = |u_+|_1 h(u_+ / |u_+|_1)."""
    A = np.asarray(masses, float)[:, None] * np.asarray(points, float)
    out = []
    sums = A.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        out.append(f"{label}: atom marginal sums {sums.tolist()}")
    V = np.random.default_rng(seed).dirichlet(np.ones(d), 1000)
    err = float(np.abs(h_atoms(V, A) - h(V)).max())
    if not err <= NNLS_ACCURACY:
        out.append(f"{label}: atom support off the closed form by {err:.3g}")
    if not 0.0 <= float(hausdorff) <= math.sqrt(d) * NNLS_ACCURACY:
        out.append(f"{label}: Hausdorff distance {float(hausdorff)} to the closed form")
    return out


def check_mc_volume(value, truth, box_volume, n, label):
    """A hit-or-miss volume lies within 5 binomial standard errors."""
    p = truth / box_volume
    se = box_volume * math.sqrt(p * (1.0 - p) / n)
    return check_close(value, truth, 5.0 * se + 1e-12, label)


def check_logistic_theta(values, p, label, tol=1e-9):
    """theta_A = |A|^(1/p) for the logistic family."""
    out = []
    for A, v in values.items():
        if abs(float(v) - len(A) ** (1.0 / p)) > tol:
            out.append(f"{label}: theta_{sorted(A)} = {v}, expected {len(A) ** (1.0 / p)}")
    return out


def _indicator(A, d):
    e = np.zeros(d)
    e[list(A)] = 1.0
    return e


def check_reproduces_theta(values, points, masses, d, label, tol=1e-9):
    """The constructed model's atoms give back every theta_A."""
    A_sc = np.asarray(masses, float)[:, None] * np.asarray(points, float)
    out = []
    for A, v in values.items():
        got = float(h_atoms(_indicator(A, d)[None, :], A_sc)[0])
        if abs(got - float(v)) > tol:
            out.append(f"{label}: theta_{sorted(A)} rebuilt as {got}, table has {v}")
    return out


def mobius_weights(values, d):
    """Weights c_B with theta_A = sum over B meeting A of c_B, by solving
    that linear system over all nonempty subsets."""
    subsets = [frozenset(i for i in range(d) if mask >> i & 1) for mask in range(1, 2**d)]
    M = np.array([[1.0 if A & B else 0.0 for B in subsets] for A in subsets])
    theta = np.array([values[A] for A in subsets])
    return dict(zip(subsets, np.linalg.solve(M, theta)))


def check_rejection(result, values, d, label):
    """An inconsistent table is rejected and the witness is the subset
    with the most negative weight."""
    c = mobius_weights(values, d)
    worst = min(c, key=c.get)
    if result.ok:
        return [f"{label}: inconsistent table accepted"]
    out = []
    if result.violation_subset != worst:
        out.append(f"{label}: witness {sorted(result.violation_subset)}, expected {sorted(worst)}")
    if abs(float(result.violation_value) - c[worst]) > 1e-9:
        out.append(f"{label}: witness weight {result.violation_value}, expected {c[worst]}")
    return out
