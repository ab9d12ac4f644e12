"""Scalar dependence functionals: extremal coefficients, the tail index
chi, Spearman and Kendall correlations, the inverted-Pearson covariance,
and the multivariate volume-based rho."""

import math
from itertools import combinations

import numpy as np

from .geometry import (
    Estimate,
    _as_count,
    _as_subset,
    _indicator_rows,
    _simplex_quadrature,
    _support_finite,
    minkowski_combine,
    polar_volume,
    support_function,
    unit_cube,
)
from .spectral import _ByKey


class ExtremalTable(_ByKey):
    """Map from nonempty coordinate subsets (0-based, read by _as_subset,
    stored as frozensets, each named once) to the extremal coefficients
    theta_A = h(K, e_A), of d coordinates (_as_count)."""

    _fields = ("d", "values")

    def __init__(self, d, values):
        d, vals = _as_count(d, "d"), {}
        for key, v in values.items():
            A = _as_subset(key, d)
            if A in vals:
                raise ValueError(f"subset {sorted(A)} is named twice, the second time as {key!r}")
            vals[A] = float(v)
            if not math.isfinite(vals[A]):
                raise ValueError(f"extremal coefficient of {sorted(A)} must be finite, got {v}")
        self._set(d, vals)

    def theta(self, subset):
        return self.values[_as_subset(subset, self.d)]

    def is_complete(self):
        return len(self.values) == 2**self.d - 1


def extremal_coefficient(model, A):
    """theta_A = h(K, e_A), the effective number of independent
    coordinates among A (_as_subset)."""
    e_A = _indicator_rows([sum(1 << i for i in _as_subset(A, model.d))], model.d)[0]
    return Estimate(support_function(model, e_A), 0.0, "exact")


def extremal_table(model, max_size=None):
    """All theta_A up to the given subset size (default: every subset),
    read in one support_function batch of the subsets asked for."""
    d = model.d
    max_size = d if max_size is None else _as_count(max_size, "max_size")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    subsets = [A for k in range(1, min(max_size, d) + 1) for A in combinations(range(d), k)]
    E = _indicator_rows([sum(1 << i for i in A) for A in subsets], d)
    return ExtremalTable(d, dict(zip(map(frozenset, subsets), support_function(model, E))))


def chi(model):
    """Bivariate tail dependence index chi = 2 - h(K, (1, 1)) in [0, 1]."""
    if model.d != 2:
        raise ValueError("chi is bivariate")
    return Estimate(2.0 - support_function(model, np.ones(2)), 0.0, "exact")


def spearman_rho(model, method="auto", n=200_000, seed=0):
    """Spearman correlation rho = c (d! V_d(L°) - 1), c = (d+1)/(2^d - d - 1),
    from the polar volume of L = (K + cube)/2 (3(2 V_2(L°) - 1) in the
    plane).  method is a polar_volume method; by default the shoelace for
    planar atom lists, else quadrature for d <= 3 (error O(N^-2) on d = 3
    atom lists) and Monte Carlo beyond.
    """
    d = model.d
    if d < 2:
        raise ValueError("Spearman's rho needs d >= 2")
    L = minkowski_combine(model, unit_cube(d), 0.5, mode="sum")
    V = polar_volume(L, method=method, n=n, seed=seed)
    c = (d + 1.0) / (2.0**d - d - 1.0)
    return V.affine(c * math.factorial(d), -c)


def _tau_discrete(sigma):
    """Closed-form segment integration: planar chain vertex (P, Q) is the
    support point in direction (t, 1 - t) while t lies between the
    breakpoints 1/(1 + r) of the slopes r of its two edges, where
    h(t) = P t + Q (1 - t), so the integrand P Q / h^2 integrates to
    P Q (tb - ta) / (h(ta) h(tb)).  Read from the y-axis, t ascends."""
    r, P, Q = sigma.chain[:3]  # r ends in +inf, the y-axis's t = 0
    P, Q, t = P[::-1], Q[::-1], np.append(1.0 / (1.0 + r[::-1]), 1.0)
    live = (P > 0.0) & (Q > 0.0) & (t[:-1] < t[1:])  # tied slopes leave empty segments
    P, Q, ta, tb = P[live], Q[live], t[:-1][live], t[1:][live]
    ha = P * ta + Q * (1.0 - ta)
    hb = P * tb + Q * (1.0 - tb)
    return float(1.0 - (P * Q * (tb - ta) / (ha * hb)).sum())


def kendall_tau_2d(model):
    """Kendall correlation tau = 1 - int_0^1 y1 y2 / h(t, 1-t)^2 dt where
    (y1, y2) is the support point in direction (t, 1-t): in closed form
    for atom lists, else by the graded planar rule of _simplex_quadrature
    (the gradient by central differences when the norm has none)."""
    if model.d != 2:
        raise ValueError("Kendall tau is bivariate")
    if model.spectral is not None:
        return Estimate(_tau_discrete(model.spectral), 0.0, "exact")
    if model.norm.grad is not None:
        grad = lambda X: np.asarray(model.norm.grad(X), dtype=float)
    else:

        def grad(X, h=1e-7):
            out = np.empty_like(X)
            for i in range(2):
                up, dn = X.copy(), X.copy()
                up[:, i] += h
                dn[:, i] = np.maximum(dn[:, i] - h, 0.0)
                out[:, i] = (_support_finite(model, up) - _support_finite(model, dn)) / (
                    up[:, i] - dn[:, i]
                )
            return out

    def integrand(T):
        return grad(T).prod(axis=1) / _support_finite(model, T) ** 2

    return _simplex_quadrature(integrand, 2).affine(-1.0, 1.0)


def inverted_pearson_2d(model, method="auto", n=200_000, seed=0):
    """Covariance of (1/xi_1, 1/xi_2), equal to 2 V_2(K°) - 1; method is a
    polar_volume method."""
    if model.d != 2:
        raise ValueError("defined for bivariate models")
    V = polar_volume(model, method=method, n=n, seed=seed)
    return V.affine(2.0, -1.0)


def multivariate_rho(model, n=400_000, seed=0, method="auto"):
    """rho = (d! V_d(K°) - 1)/(d! - 1) in [0, 1], zero iff independent
    and one iff completely dependent."""
    d = model.d
    if d < 2:
        raise ValueError("needs d >= 2")
    fact = math.factorial(d)
    V = polar_volume(model, method=method, n=n, seed=seed)
    return V.affine(fact / (fact - 1.0), -1.0 / (fact - 1.0))
