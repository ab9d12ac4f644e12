"""Named parametric dependency sets exposed as analytic support functions.

Families: independence, dependence (complete), logistic(p), negative
logistic(lam, p), Husler-Reiss(lam), Marshall-Olkin(alpha1, alpha2),
and matrix weights.  All outputs are normalized dependency sets; the
analytic ones carry closed-form gradients so they can be discretized
into atom lists (needed for exact simulation).  The Husler-Reiss norm
reads the standard normal cdf as Phi(x) = erfc(-x / sqrt 2) / 2, with
``math.erfc`` applied elementwise; it agrees with ``scipy.special.ndtr``
to 2e-13 relative wherever Phi exceeds 1e-300.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .geometry import (
    AnalyticNorm,
    Estimate,
    MaxZonoid,
    Polygon2D,
    _as_count,
    _fold,
    _norm_chain,
    _quarter_circle,
    _simplex_lattice,
    _support_finite,
    as_dependency,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
)
from .spectral import (
    DiscreteSpectralMeasure,
    _normalized,
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

    def __hash__(self):  # equal specs have equal params, whose values may be lists
        return hash((self.name, self.d, tuple(sorted(self.params))))


def _lp_norm_rows(X, p):
    """Row-wise (sum x_i^p)^(1/p), overflow-safe for large |p|, in whole-column
    passes: M = max_i x_i, then (x_i / M)^p folded left to right; 0 where M = 0."""
    M = _fold(np.maximum, X.T)
    if np.isinf(p):
        return M if p > 0 else _fold(np.minimum, X.T)
    den = np.where(M > 0, M, 1.0)
    R = [c / den for c in X.T]
    if p < 0:
        # convention: zero whenever a coordinate vanishes (limit from p < 0)
        zero = _fold(np.logical_or, [c <= 0 for c in X.T])
        with np.errstate(divide="ignore", over="ignore"):
            S = _fold(np.add, [np.where(r > 0, r, 1.0) ** p for r in R])
            return np.where(zero, 0.0, M * S ** (1.0 / p))
    return np.where(M > 0, M * _fold(np.add, [r**p for r in R]) ** (1.0 / p), 0.0)


def _logistic_norm(d, p):
    def fn(X, _p=p):
        return _lp_norm_rows(X, _p)

    def grad(X, _p=p):
        h = _lp_norm_rows(X, _p)
        return (X / np.where(h > 0, h, 1.0)[:, None]) ** (_p - 1.0)  # 0 where h = 0, as p > 1

    return AnalyticNorm("logistic", d, fn, grad, (p,))


def _neg_logistic_norm(lam, p):
    def fn(X, _l=lam, _p=p):
        return X[:, 0] + X[:, 1] - _l * _lp_norm_rows(X, _p)

    def grad(X, _l=lam, _p=p):
        out = np.ones_like(X)
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


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x):
    """Standard normal cdf, elementwise; the shape of x is kept."""
    # times 1/sqrt 2, not over sqrt 2: the argument rounds as in ndtr
    out = np.asarray(_erfc(np.multiply(x, -math.sqrt(0.5))), dtype=float)
    out *= 0.5
    return out


def _husler_reiss_norm(lam):
    def _parts(X, _l=lam):
        x1, x2 = X[:, 0], X[:, 1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = np.log(np.where(x2 > 0, x1, 1.0) / np.where(x2 > 0, x2, 1.0))
        a = _l + r / (2.0 * _l)
        b = _l - r / (2.0 * _l)
        return x1, x2, a, b

    def fn(X, _l=lam):
        x1, x2, a, b = _parts(X)
        interior = (x1 > 0) & (x2 > 0)  # else the axis limit x1 + x2
        return np.where(interior, x1 * _normal_cdf(a) + x2 * _normal_cdf(b), x1 + x2)

    def grad(X, _l=lam):
        x1, x2, a, b = _parts(X)
        out = np.empty_like(X)
        interior = (x1 > 0) & (x2 > 0)
        # density terms cancel: dh/dx1 = Phi(a), dh/dx2 = Phi(b)
        out[:, 0] = np.where(interior, _normal_cdf(a), (x1 > 0).astype(float))
        out[:, 1] = np.where(interior, _normal_cdf(b), (x2 > 0).astype(float))
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
        if not lam >= 0:
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
        if not np.all(A >= 0):
            raise ValueError("weights must be nonnegative")
        colsum = A.sum(axis=0)
        if not _normalized(colsum):
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
    """The atom list and its largest support gap, an Estimate whose method
    is the fit ("atoms", "planar-chain" or "nnls-bpp") and whose
    n_samples is the number of directions the gap was measured on."""

    measure: DiscreteSpectralMeasure
    max_support_error: Estimate


def _renormalize_marginals(sigma):
    s = sigma.marginal_sums()
    if np.abs(s - 1.0).max() == 0.0:
        return sigma
    return spectral_from_points(sigma.atoms / s, sigma.masses, sigma.reference)


def discretize(K, m=1000, n_eval=2048):
    """Atom-list approximation of a dependency set on the l1 simplex.

    Exact (zero reported error, method "atoms") for bodies that already
    carry atoms.  Analytic planar norms are inscribed via their support
    points at m Chebyshev-spaced simplex directions ("planar-chain").  In
    d >= 3 the masses of a simplex lattice of at most m atoms (so m >= d)
    are fit by nonnegative least squares to h on a finer simplex lattice
    ("nnls-bpp"): block principal pivoting returns the exact NNLS
    minimizer, a KKT point, after one step of iterative refinement, with
    one weight per orbit of the coordinate swaps that keep h on the lattice
    and one row per orbit of fit points, weighted by its size (91 atom
    orbits of 496 and 341 point orbits of 1,953 for an exchangeable d = 3
    body), which is exact: the weighted fit has the full fit's minimizer.
    Marginal sums are renormalized to 1; the error is the largest support
    gap over n_eval directions (equally spaced on the quarter circle in
    d = 2, the simplex lattice of at most n_eval points in d >= 3).  That
    set must hold a direction off the axes, so n_eval is at least 3 in
    d = 2 and d(d + 1)/2 in d >= 3; a smaller one raises ValueError, as
    the gap would be read on the axes alone, where every fit is exact.
    """
    m, n_eval = _as_count(m, "m"), _as_count(n_eval, "n_eval")
    if m < 2:
        raise ValueError("need at least two atoms")
    least = K.d * (K.d + 1) // 2  # 3 on the quarter circle, the resolution-2 lattice in d >= 3
    if K.d > 1 and n_eval < least:
        raise ValueError(f"n_eval = {n_eval} holds no off-axis direction in d = {K.d}; need {least}")
    if K.spectral is not None:
        sigma = _renormalize_marginals(rebase_reference(K.spectral, "l1"))
        return DiscretizeResult(sigma, Estimate(0.0, 0.0, "atoms", 0))
    if K.d == 2:
        t = 0.5 * (1.0 - np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m)))
        chain = _norm_chain(K, np.column_stack([t, 1.0 - t])[::-1])  # anticlockwise
        sigma = _renormalize_marginals(spectral_from_polygon_2d(chain, "l1"))
        E, method = _quarter_circle(n_eval - 1), "planar-chain"
    else:
        if m < K.d:
            raise ValueError(f"the simplex lattice in d = {K.d} needs at least {K.d} atoms")
        sigma = _fit_nnls(K, m)
        E, method = _simplex_lattice(K.d, n_eval), "nnls-bpp"
    approx = MaxZonoid(d=K.d, spectral=sigma)
    err = np.abs(_support_finite(K, E) - _support_finite(approx, E)).max()
    return DiscretizeResult(sigma, Estimate(err, 0.0, method, len(E)))


def _fit_nnls(K, m):
    """Masses of the lattice of at most m atoms fit to b = h(K, X) on a finer
    lattice X: one weight per atom orbit and one row per point orbit under
    the swaps _swap_blocks finds (_orbit_labels), the columns summed over
    atom orbits, each row and b's orbit mean scaled by the root of the
    orbit's size.  Exact: the full design has full column rank, so its
    NNLS minimizer is unique, so kept by each swap, so constant on atom
    orbits, where each row is constant on its point orbit: the weighted sum
    of squares is the full one less a constant.  For b symmetric to
    rounding, this fits b's orbit average.  With no symmetry the design is
    max_products(atoms, X) bit for bit, its rows in lattice order."""
    atoms = _simplex_lattice(K.d, m)
    n_fit = min(max(4 * len(atoms), 1024), 8192)
    X = _simplex_lattice(K.d, n_fit)
    b = _support_finite(K, X)
    block = _swap_blocks(X, b)
    label, row = _orbit_labels(atoms, block), _orbit_labels(X, block)
    X, size = X[np.unique(row, return_index=True)[1]], np.bincount(row)  # each orbit's first point
    order = np.argsort(label, kind="stable")
    within = np.empty_like(label)  # each atom's place in its orbit, in lattice order
    within[order] = np.arange(len(label)) - np.searchsorted(label[order], label[order])
    # layer k: the k-th atom of each orbit of more than k atoms, a prefix of the orbits
    layers = np.split(atoms[np.lexsort((label, within))], np.cumsum(np.bincount(within))[:-1])
    A = _kernels.max_products(layers[0], X)  # the N x m design is never held
    for B in layers[1:]:
        A[:, : len(B)] += _kernels.max_products(B, X)
    A *= np.sqrt(size)[:, None]  # n (A w - mean b)^2 = (sqrt(n) A w - sum b / sqrt(n))^2
    w = _nnls_bpp(A, np.bincount(row, weights=b) / np.sqrt(size))[label]
    keep = w > 1e-12
    if not keep.any():
        raise ValueError("nonnegative fit degenerated to the zero measure")
    return _renormalize_marginals(make_measure(atoms[keep], w[keep], "l1"))


def _swap_blocks(X, b):
    """Blocks of coordinates, one number each, whose swaps map the rows of X
    onto themselves, matched exactly (k/r is one float per integer k), and
    keep b to 4 ulps of max|b|: the swaps generate the product of the
    symmetric groups on the blocks."""
    block = np.arange(X.shape[1])
    for i, j in itertools.combinations(range(X.shape[1]), 2):
        if block[i] == block[j]:
            continue  # the swaps found already generate this one
        Y = X.copy()
        Y[:, [i, j]] = X[:, [j, i]]
        o = np.lexsort(Y.T[::-1])  # Y[o] = X: the swap of row o[k] is row k
        if np.array_equal(Y[o], X) and np.abs(b[o] - b).max() <= 4 * np.spacing(np.abs(b).max()):
            block[block == block[j]] = block[i]
    return block


def _orbit_labels(P, block):
    """Each row's orbit under the swaps within blocks, its coordinates sorted
    within blocks, numbered from the largest orbit down and in lattice order
    among orbits of one size: with no swaps, each row is its own, in order."""
    S = P.copy()
    for c in set(block):
        S[:, block == c] = np.sort(S[:, block == c], axis=1)
    o = np.lexsort(S.T[::-1])  # np.unique(S, axis=0) takes 3-5 times as long
    label = np.empty(len(S), dtype=np.intp)
    label[o] = np.cumsum(np.r_[True, (S[o][1:] != S[o][:-1]).any(axis=1)]) - 1
    return np.argsort(np.argsort(-np.bincount(label), kind="stable"))[label]


def _nnls_bpp(A, b):
    """argmin ||A x - b|| over x >= 0 for full-column-rank A, by block
    principal pivoting (Portugal, Judice & Vicente 1994) with the backup
    rule of Kim & Park 2011: every infeasible variable changes side while
    their count falls; after 3 steps without a fall only the last one does.
    Each step is one LU solve (numpy.linalg.solve) of the passive block of
    G = A'A; the final solution is refined once against A itself, by one
    more solve of that block, which recovers the accuracy that squaring
    cond(A) in G costs.  An exactly singular block raises
    numpy.linalg.LinAlgError, a ValueError.  The rule terminates in exact arithmetic; should rounding
    make it cycle, 3n steps raise ValueError."""
    G, c = A.T @ A, A.T @ b
    n = len(c)
    tol = n * np.finfo(float).eps * np.abs(c).max(initial=0.0)  # rounding in G x - c
    P = np.zeros(n, dtype=bool)  # passive (free) variables
    x, y = np.zeros(n), -c  # y = G x - c, read outside P only
    best, backup = n + 1, 3
    for _ in range(3 * n + 1):
        bad = np.flatnonzero(P & (x < 0) | ~P & (y < -tol))
        if bad.size == 0:
            if P.any():
                x[P] += np.linalg.solve(GP, (A.T @ (b - A @ x))[P])
            return np.maximum(x, 0.0)
        if bad.size < best:
            best, backup = bad.size, 3
        elif backup:
            backup -= 1
        else:
            bad = bad[-1:]
        P[bad] = ~P[bad]
        i = np.flatnonzero(P)
        GP = G.take(i, 0).take(i, 1)  # half the time of G[np.ix_(P, P)]
        x = np.zeros(n)
        x[P] = np.linalg.solve(GP, c[P])
        y = G @ x - c
    raise ValueError("block principal pivoting did not terminate")
