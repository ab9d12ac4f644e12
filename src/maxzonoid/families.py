"""Named parametric dependency sets exposed as analytic support functions.

Families: independence, dependence (complete), logistic(p), negative
logistic(lam, p), Husler-Reiss(lam), Marshall-Olkin(alpha1, alpha2),
and matrix weights.  All outputs are normalized dependency sets; the
analytic ones carry closed-form gradients so they can be discretized
into atom lists (needed for exact simulation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.optimize import nnls
from scipy.special import ndtr

from .geometry import (
    AnalyticNorm,
    MaxZonoid,
    Polygon2D,
    _norm_chain,
    _quarter_circle,
    _support_finite,
    as_dependency,
    directions_simplex,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
)
from .spectral import (
    DiscreteSpectralMeasure,
    make_measure,
    rebase_reference,
    spectral_from_points,
    spectral_from_polygon_2d,
)

FAMILY_NAMES = (
    "independence",
    "dependence",
    "logistic",
    "neg_logistic",
    "husler_reiss",
    "marshall_olkin",
    "matrix_weights",
)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    d: int = 2
    params: dict = field(default_factory=dict)

    def build(self):
        return make_family(self.name, self.d, **self.params)


def _lp_norm_rows(X, p):
    """Row-wise (sum x_i^p)^(1/p), overflow-safe for large |p|."""
    M = X.max(axis=1)
    out = np.zeros(X.shape[0])
    pos = M > 0
    if np.isinf(p):
        return M if p > 0 else X.min(axis=1)
    R = X[pos] / M[pos, None]
    if p < 0:
        # convention: zero whenever a coordinate vanishes (limit from p < 0)
        zero = (X[pos] <= 0).any(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            vals = M[pos] * (np.where(R > 0, R, 1.0) ** p).sum(axis=1) ** (1.0 / p)
        vals[zero] = 0.0
        out[pos] = vals
    else:
        out[pos] = M[pos] * (R**p).sum(axis=1) ** (1.0 / p)
    return out


def _logistic_norm(d, p):
    def fn(X, _p=p):
        return _lp_norm_rows(X, _p)

    def grad(X, _p=p):
        h = _lp_norm_rows(X, _p)
        out = np.zeros_like(X)
        pos = h > 0
        out[pos] = (X[pos] / h[pos, None]) ** (_p - 1.0)
        return out

    return AnalyticNorm("logistic", d, fn, grad, (p,))


def _neg_logistic_norm(lam, p):
    def fn(X, _l=lam, _p=p):
        return X.sum(axis=1) - _l * _lp_norm_rows(X, _p)

    def grad(X, _l=lam, _p=p):
        out = np.ones_like(X)
        if _l == 0:
            return out
        if np.isinf(_p):
            idx = np.argmin(X, axis=1)
            sub = np.zeros_like(X)
            sub[np.arange(len(X)), idx] = 1.0
            return out - _l * sub
        h = _lp_norm_rows(X, _p)
        pos = (h > 0) & (X > 0).all(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            out[pos] -= _l * (X[pos] / h[pos, None]) ** (_p - 1.0)
        return out

    return AnalyticNorm("neg_logistic", 2, fn, grad, (lam, p))


def _husler_reiss_norm(lam):
    def _parts(X, _l=lam):
        x1, x2 = X[:, 0], X[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.log(np.where(x2 > 0, x1, 1.0) / np.where(x2 > 0, x2, 1.0))
        a = _l + r / (2.0 * _l)
        b = _l - r / (2.0 * _l)
        return x1, x2, a, b

    def fn(X, _l=lam):
        x1, x2, a, b = _parts(X)
        interior = (x1 > 0) & (x2 > 0)
        out = x1 + x2  # axis limit
        out[interior] = x1[interior] * ndtr(a[interior]) + x2[interior] * ndtr(
            b[interior]
        )
        return out

    def grad(X, _l=lam):
        x1, x2, a, b = _parts(X)
        out = np.empty_like(X)
        interior = (x1 > 0) & (x2 > 0)
        # density terms cancel: dh/dx1 = Phi(a), dh/dx2 = Phi(b)
        out[:, 0] = np.where(interior, ndtr(a), (x1 > 0).astype(float))
        out[:, 1] = np.where(interior, ndtr(b), (x2 > 0).astype(float))
        return out

    return AnalyticNorm("husler_reiss", 2, fn, grad, (lam,))


def marshall_olkin_polygon(alpha1, alpha2):
    chain = np.array(
        [[1.0, 0.0], [1.0, alpha2], [alpha1, 1.0], [0.0, 1.0]], dtype=float
    )
    return Polygon2D.from_chain(chain)


def make_family(name, d=2, **params):
    """Build the named dependency set; raises on out-of-range parameters."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if name == "independence":
        return unit_cube(d)
    if name == "dependence":
        return unit_cross_polytope(d)
    if name == "logistic":
        p = float(params.pop("p"))
        _no_extra(params)
        if not p >= 1:
            raise ValueError("logistic exponent must satisfy p >= 1")
        if np.isinf(p):
            return unit_cross_polytope(d)
        if p == 1.0:
            return unit_cube(d)
        return as_dependency(MaxZonoid(d=d, norm=_logistic_norm(d, p)))
    if name == "neg_logistic":
        lam = float(params.pop("lam"))
        p = float(params.pop("p"))
        _no_extra(params)
        if d != 2:
            raise ValueError("negative logistic family is bivariate")
        if not 0.0 <= lam <= 1.0:
            raise ValueError("negative logistic weight must lie in [0, 1]")
        if not p <= 0:
            raise ValueError("negative logistic exponent must lie in [-inf, 0]")
        if lam == 0.0 or p == 0.0:
            return unit_cube(2)
        return as_dependency(MaxZonoid(d=2, norm=_neg_logistic_norm(lam, p)))
    if name == "husler_reiss":
        lam = float(params.pop("lam"))
        _no_extra(params)
        if d != 2:
            raise ValueError("Husler-Reiss family is bivariate")
        if lam < 0:
            raise ValueError("Husler-Reiss parameter must be nonnegative")
        if lam == 0.0:
            return unit_cross_polytope(2)
        if np.isinf(lam):
            return unit_cube(2)
        return as_dependency(MaxZonoid(d=2, norm=_husler_reiss_norm(lam)))
    if name == "marshall_olkin":
        a1 = float(params.pop("alpha1"))
        a2 = float(params.pop("alpha2"))
        _no_extra(params)
        if d != 2:
            raise ValueError("Marshall-Olkin family is bivariate")
        if not (0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0):
            raise ValueError("Marshall-Olkin parameters must lie in [0, 1]")
        return as_dependency(zonoid_from_polygon(marshall_olkin_polygon(a1, a2)))
    if name == "matrix_weights":
        A = np.atleast_2d(np.asarray(params.pop("matrix"), dtype=float))
        _no_extra(params)
        if A.shape[1] != d:
            raise ValueError(f"weight matrix must have {d} columns")
        if np.any(A < 0):
            raise ValueError("weights must be nonnegative")
        colsum = A.sum(axis=0)
        if np.abs(colsum - 1.0).max() > 1e-9:
            raise ValueError(f"column sums must be 1, got {colsum}")
        sigma = spectral_from_points(A, np.ones(A.shape[0]))
        return as_dependency(MaxZonoid(d=d, spectral=sigma))
    raise ValueError(f"unknown family {name!r}")


def _no_extra(params):
    if params:
        raise ValueError(f"unexpected parameters {sorted(params)}")


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscretizeResult:
    measure: DiscreteSpectralMeasure
    max_support_error: float
    n_eval_directions: int


def _renormalize_marginals(sigma):
    s = sigma.marginal_sums()
    if np.abs(s - 1.0).max() == 0.0:
        return sigma
    return spectral_from_points(sigma.atoms / s, sigma.masses, sigma.reference)


def discretize(K, m=1000, n_eval=2048):
    """Atom-list approximation of a dependency set on the l1 simplex.

    Exact (zero reported error) for bodies that already carry atoms.
    Analytic planar norms are inscribed via their support
    points at m Chebyshev-spaced simplex directions; in higher
    dimensions masses are fit by nonnegative least squares on a simplex
    lattice.  Marginal sums are renormalized to 1.
    """
    if m < 2:
        raise ValueError("need at least two atoms")
    if K.spectral is not None:
        sigma = _renormalize_marginals(rebase_reference(K.spectral, "l1"))
        return DiscretizeResult(sigma, 0.0, 0)
    if K.d == 2:
        t = 0.5 * (1.0 - np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m)))
        chain = _norm_chain(K, np.column_stack([t, 1.0 - t])[::-1])  # anticlockwise
        sigma = _renormalize_marginals(spectral_from_polygon_2d(chain, "l1"))
        E = _quarter_circle(n_eval - 1)
    else:
        sigma = _fit_nnls(K, m)
        E = np.vstack([directions_simplex(n_eval, K.d), np.eye(K.d)])
    approx = MaxZonoid(d=K.d, spectral=sigma)
    err = float(np.abs(_support_finite(K, E) - _support_finite(approx, E)).max())
    return DiscretizeResult(sigma, err, n_eval)


def _simplex_lattice(d, m):
    """Largest resolution-r lattice on the l1 simplex with at most m atoms."""
    r = 1
    while comb(r + d, d - 1) <= m:
        r += 1
    pts = []
    for c in itertools.combinations(range(r + d - 1), d - 1):
        parts = np.diff(np.concatenate([[-1], c, [r + d - 1]])) - 1
        pts.append(parts / r)
    return np.array(pts)


def _fit_nnls(K, m):
    atoms = _simplex_lattice(K.d, m)
    n_fit = min(max(4 * len(atoms), 1024), 8192)
    X = np.vstack([directions_simplex(n_fit, K.d), np.eye(K.d)])
    target = _support_finite(K, X)
    G = np.empty((len(X), len(atoms)))
    for k, a in enumerate(atoms):
        G[:, k] = (X * a).max(axis=1)
    w, _ = nnls(G, target)
    keep = w > 1e-12
    if not keep.any():
        raise ValueError("nonnegative fit degenerated to the zero measure")
    return _renormalize_marginals(make_measure(atoms[keep], w[keep], "l1"))
