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

import functools
import math
from collections import namedtuple

import numpy as np

from . import _kernels
from .geometry import (
    AnalyticNorm,
    DependencySet,
    Estimate,
    MaxZonoid,
    Polygon2D,
    _MAX_D,
    _as_count,
    _as_real,
    _fold,
    _grid_gap,
    _lattice_orbits,
    _norm_chain,
    _quarter_circle,
    _simplex_lattice,
    _support_finite,
    _values_exchangeable,
    as_dependency,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
)
from .spectral import (
    _close_to_normalized,
    _normalized,
    _point_rows,
    make_measure,
    spectral_from_points,
    spectral_from_polygon_2d,
)

def _lp_norm_rows(X, p):
    """Row-wise (sum x_i^p)^(1/p), overflow-safe for large |p|, in whole-column
    passes: M = max_i x_i, then (x_i / M)^p folded left to right; 0 where M = 0."""
    M = _fold(np.maximum, X.T)
    if np.isinf(p):
        return M if p > 0 else _fold(np.minimum, X.T)
    pos = M > 0
    den = np.where(pos, M, 1.0)
    if p < 0:
        R = [c / den for c in X.T]
        # convention: zero whenever a coordinate vanishes (limit from p < 0)
        zero = _fold(np.logical_or, [c <= 0 for c in X.T])
        with np.errstate(divide="ignore", over="ignore"):
            S = _fold(np.add, [np.where(r > 0, r, 1.0) ** p for r in R])
            return np.where(zero, 0.0, M * S ** (1.0 / p))
    # in place on one scratch column; **= takes numpy's square and sqrt, as ** does
    S, T = X[:, 0] / den, np.empty_like(den)
    S **= p
    for c in X.T[1:]:
        np.divide(c, den, out=T)
        T **= p
        S += T
    S **= 1.0 / p
    S *= M
    S[~pos] = 0.0
    return S


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


def _normal_cdf(x):
    """Standard normal cdf, elementwise; the shape of x is kept."""
    # times 1/sqrt 2, not over sqrt 2: the argument rounds as in ndtr
    z = np.multiply(x, -math.sqrt(0.5))
    out = np.fromiter(map(math.erfc, z.ravel().tolist()), float, count=z.size).reshape(z.shape)
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


# each family's parameters, and the bivariate families by the names their errors give them
_PARAMS = {"independence": (), "dependence": (), "logistic": ("p",), "matrix_weights": ("matrix",),
           "neg_logistic": ("lam", "p"), "husler_reiss": ("lam",), "marshall_olkin": ("alpha1", "alpha2")}
_BIVARIATE = {"neg_logistic": "negative logistic", "husler_reiss": "Husler-Reiss", "marshall_olkin": "Marshall-Olkin"}


def make_family(name, d=2, **params):
    """Build the named dependency set from exactly its parameters (_PARAMS),
    each a real number (_as_real) but the weight matrix, a point batch
    (_point_rows); ValueError on a missing, extra or out-of-range one, or a
    d that is not a positive integer (2 for a bivariate family)."""
    d = _as_count(d, "d", 1, _MAX_D)
    if not isinstance(name, str) or name not in _PARAMS:
        raise ValueError(f"unknown family {name!r}")
    extra = sorted(set(params) - set(_PARAMS[name]))
    if extra:
        raise ValueError(f"unexpected parameters {extra}")
    missing = [k for k in _PARAMS[name] if k not in params]
    if missing:
        raise ValueError(f"family {name!r} is missing parameters {missing}")
    if name in _BIVARIATE and d != 2:
        raise ValueError(f"{_BIVARIATE[name]} family is bivariate")
    params = {k: v if k == "matrix" else _as_real(v, f"parameter {k!r}") for k, v in params.items()}
    if name == "independence":
        return unit_cube(d)
    if name == "dependence":
        return unit_cross_polytope(d)
    if name == "logistic":
        p = params["p"]
        if not p >= 1:
            raise ValueError("logistic exponent must satisfy p >= 1")
        if np.isinf(p):
            return unit_cross_polytope(d)
        if p == 1.0:
            return unit_cube(d)
        return DependencySet(d, norm=_logistic_norm(d, p))
    if name == "neg_logistic":
        lam, p = params["lam"], params["p"]
        if not 0.0 <= lam <= 1.0:
            raise ValueError("negative logistic weight must lie in [0, 1]")
        if not p <= 0:
            raise ValueError("negative logistic exponent must lie in [-inf, 0]")
        if lam == 0.0 or p == 0.0:
            return unit_cube(2)
        return DependencySet(2, norm=_neg_logistic_norm(lam, p))
    if name == "husler_reiss":
        lam = params["lam"]
        if not lam >= 0:
            raise ValueError("Husler-Reiss parameter must be nonnegative")
        if lam == 0.0:
            return unit_cross_polytope(2)
        if np.isinf(lam):
            return unit_cube(2)
        return DependencySet(2, norm=_husler_reiss_norm(lam))
    if name == "marshall_olkin":
        a1, a2 = params["alpha1"], params["alpha2"]
        if not (0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0):
            raise ValueError("Marshall-Olkin parameters must lie in [0, 1]")
        return as_dependency(zonoid_from_polygon(marshall_olkin_polygon(a1, a2)))
    A = _point_rows(params["matrix"], "weight matrix")  # matrix_weights
    if A.shape[1] != d:
        raise ValueError(f"weight matrix must have {d} columns, not shape {A.shape}")
    if not np.all(A >= 0):
        raise ValueError("weights must be nonnegative")
    colsum = A.sum(axis=0)
    if not _normalized(colsum):
        raise ValueError(f"column sums must be 1, got {colsum}")
    sigma = spectral_from_points(A, np.ones(A.shape[0]))
    return DependencySet(d, spectral=sigma)


# ---------------------------------------------------------------------------
# discretization


DiscretizeResult = namedtuple("DiscretizeResult", "measure max_support_error")
DiscretizeResult.__doc__ = """The atom list and its largest support gap, an Estimate whose
method is the fit ("atoms", "planar-chain" or "nnls-bpp") and whose
n_samples is the number of directions the gap was measured on."""


def _renormalize_marginals(sigma):
    s = sigma.marginal_sums()
    if np.abs(s - 1.0).max() == 0.0:
        return sigma
    return spectral_from_points(sigma.atoms / s, sigma.masses)


def discretize(K, m=1000, n_eval=2048):
    """Atom-list approximation of a dependency set on the l1 simplex, as
    the named tuple DiscretizeResult(measure, max_support_error).

    K's marginals h(K, e_i) must be 1 within DEP_TOL = 1e-6, else
    ValueError: a fit, or a renormalized atom list, would be another body.
    A body that already carries atoms is returned as it is, its marginal
    sums renormalized to 1 (zero reported error, method "atoms").  Analytic
    planar norms are inscribed via their support points at m
    Chebyshev-spaced simplex directions ("planar-chain").  In d >= 3 the
    masses of a simplex lattice of at most m atoms (so m >= d) are fit by
    nonnegative least squares to h on a finer simplex lattice ("nnls-bpp"):
    block principal pivoting returns the exact NNLS minimizer, a KKT point,
    after one step of iterative refinement.  When every coordinate
    permutation keeps h on the lattice, the fit has one weight per atom
    orbit and one row per orbit of fit points (_lattice_orbits), weighted by
    its size (91 atom orbits of 496 and 341 point orbits of 1,953 in
    d = 3), which is exact: the weighted fit has the full fit's minimizer.
    The design and A'A depend on (d, m, exchangeable or not) alone and are
    cached, four entries at most, each 8 (rows + columns) columns bytes:
    0.31 MB exchangeable at d = 3, m = 500, 39 MB in full at m = 1000.  A
    lattice's first fit forms A'A on the calling thread (_gram); solves of
    blocks of 100 or more columns (176 at d = 3, m = 1000) still wake
    OpenBLAS's threads, and those fits' bits follow the thread count.
    Marginal sums are renormalized to 1: an orbit fit's by one factor, the
    mean of its sums, which keeps its masses equal on each atom orbit;
    any other fit's coordinate by coordinate.  The error is the largest
    support gap over n_eval directions (equally spaced on the quarter
    circle in d = 2, the simplex lattice of at most n_eval points in
    d >= 3).  That set must hold a direction off the axes, so n_eval is at
    least 3 in d = 2 and d(d + 1)/2 in d >= 3; a smaller one raises
    ValueError, as the gap would be read on the axes alone, where every fit
    is exact.  The gap is _grid_gap's, which in d >= 3 reads the fit on
    each orbit's first lattice direction when K and the fit are both
    exchangeable: 352 of 2,016 in d = 3.  The maximum over those
    directions is still a lower bound on the sup of the gap, and equals
    the maximum over the whole lattice up to rounding; n_samples stays the
    whole lattice's count.  A NaN support value of K, on the fit lattice or
    the error directions, raises ValueError (_support_finite).
    """
    m, n_eval = _as_count(m, "m", 2), _as_count(n_eval, "n_eval")
    least = K.d * (K.d + 1) // 2  # 3 on the quarter circle, the resolution-2 lattice in d >= 3
    if K.d > 1 and n_eval < least:
        raise ValueError(f"n_eval = {n_eval} holds no off-axis direction in d = {K.d}; need {least}")
    if not _close_to_normalized(K.marginals()):
        raise ValueError(f"discretize needs marginal sums 1 within DEP_TOL (every h(K, e_i)), got {K.marginals()}")
    if K.spectral is not None:
        sigma = _renormalize_marginals(K.spectral)
        return DiscretizeResult(sigma, Estimate(0.0, 0.0, "atoms", 0))
    if K.d == 2:
        t = 0.5 * (1.0 - np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m)))
        chain = _norm_chain(K, np.column_stack([t, 1.0 - t])[::-1])  # anticlockwise
        sigma = _renormalize_marginals(spectral_from_polygon_2d(chain))
        E, method = _quarter_circle(n_eval - 1), "planar-chain"
    else:
        if m < K.d:
            raise ValueError(f"the simplex lattice in d = {K.d} needs at least {K.d} atoms")
        sigma = _fit_nnls(K, m)
        E, method = _simplex_lattice(K.d, n_eval), "nnls-bpp"
    err = _grid_gap(K, MaxZonoid(d=K.d, spectral=sigma), E, n_eval)
    return DiscretizeResult(sigma, Estimate(err, 0.0, method, len(E)))


def _fit_nnls(K, m):
    """Masses of the lattice of at most m atoms fit to b = h(K, X) on a finer
    lattice X, on _fit_design's design for whether every coordinate
    permutation keeps b (_values_exchangeable): if so, to b's orbit means."""
    atoms = _simplex_lattice(K.d, m)
    n_fit = min(max(4 * len(atoms), 1024), 8192)
    b = _support_finite(K, _simplex_lattice(K.d, n_fit))
    symmetric = _values_exchangeable(K.d, n_fit, b)
    label, row, root, A, G = _fit_design(K.d, m, n_fit, symmetric)
    w = _nnls_bpp(A, np.bincount(row, weights=b) / root, G)[label]
    keep = w > 1e-12
    sigma = make_measure(atoms[keep], w[keep])
    if not symmetric:
        return _renormalize_marginals(sigma)
    # the marginal sums are equal in exact arithmetic: one common factor keeps
    # the masses equal on each atom orbit, where a factor per coordinate would
    # carry their rounding (up to 7.8e-16 apart at d = 3, m = 500) into the fit
    return make_measure(atoms[keep], w[keep] / sigma.marginal_sums().mean())


@functools.lru_cache(maxsize=4)
def _fit_design(d, m, n_fit, symmetric):
    """The part of the fit that reads the lattices alone, cached read-only:
    the atom and point orbit labels, both lattices' (_lattice_orbits) when
    symmetric, else each row its own, the roots of the point orbits' sizes,
    the design A on each point orbit's first row, its columns summed over
    atom orbits and its rows scaled by those roots, and G = A'A.  Symmetric,
    this is exact: the full design has full column rank, so its NNLS
    minimizer is unique, so kept by each permutation, so constant on atom
    orbits, where each row is constant on its point orbit: the weighted sum
    of squares is the full one less a constant.  Otherwise A is
    max_products(atoms, X) bit for bit, its rows in lattice order.  G is
    _gram(A): formed on the calling thread, exactly symmetric, the same bits
    under any BLAS thread count."""
    atoms, X = _simplex_lattice(d, m), _simplex_lattice(d, n_fit)
    if symmetric:
        (label, _), (row, first) = _lattice_orbits(d, m), _lattice_orbits(d, n_fit)
        X = X[first]
    else:
        label, row = np.arange(len(atoms)), np.arange(len(X))
    root = np.sqrt(np.bincount(row))
    order = np.argsort(label, kind="stable")  # the atoms by orbit, each orbit in lattice order
    within = np.arange(len(label)) - np.searchsorted(label[order], label[order])  # places in orbits
    # layer k: the k-th atom of each orbit of more than k atoms, a prefix of the orbits
    layers = [atoms[order[within == k]] for k in range(within.max() + 1)]
    A = _kernels.max_products(layers[0], X)  # the N x m design is never held
    for B in layers[1:]:
        A[:, : len(B)] += _kernels.max_products(B, X)
    A *= root[:, None]  # n (A w - mean b)^2 = (sqrt(n) A w - sum b / sqrt(n))^2
    G = _gram(A)
    for a in (label, row, root, A, G):
        a.setflags(write=False)
    return label, row, root, A, G


def _gram(A):
    """G = A'A, formed on the calling thread in a fixed order: each 64 x 64
    tile of the upper triangle is summed over 64-row blocks of A in turn,
    from a contiguous copy of the block's transpose, then mirrored into the
    lower half, so G is exactly symmetric and its bits do not follow the
    BLAS thread count.  Cost on a 2-core Xeon: 0.3 ms at 341 x 91,
    20-33 ms at 1,953 x 496 and 0.15-0.19 s at 3,916 x 990."""
    # OpenBLAS 0.3.31 kept a product of m n k multiply-adds on the caller
    # below 2^19 with its Haswell kernels and up to 10^6 with its SkylakeX
    # kernels: 64 x 64 x 128 woke the thread pool under the first, 64^3 under
    # neither.  B' @ B on one buffer goes to syrk, which woke it already at
    # 91 x 91 x 64, hence the copy.  A pooled product leaves its workers
    # spinning for about 0.1 s, in the way of the numpy work that follows.
    n, k = A.shape
    G = np.zeros((k, k))
    for r in range(0, n, 64):
        B = A[r : r + 64]
        Bt = B.T.copy()
        for i in range(0, k, 64):
            for j in range(i, k, 64):
                G[i : i + 64, j : j + 64] += Bt[i : i + 64] @ B[:, j : j + 64]
    G = np.triu(G)
    return G + np.triu(G, 1).T


def _nnls_bpp(A, b, G=None):
    """argmin ||A x - b|| over x >= 0 for full-column-rank A, by block
    principal pivoting (Portugal, Judice & Vicente 1994) with the backup
    rule of Kim & Park 2011: every infeasible variable changes side while
    their count falls; after 3 steps without a fall only the last one does.
    Each step is one LU solve (numpy.linalg.solve) of the passive block of
    G = A'A, formed here by _gram unless given; the final solution is
    refined once against A itself, by one more solve of that block, which
    recovers the accuracy that squaring cond(A) in G costs.  An exactly
    singular block raises numpy.linalg.LinAlgError, a ValueError.  The rule
    terminates in exact arithmetic; should rounding make it cycle, 3n steps
    raise ValueError."""
    G, c = _gram(A) if G is None else G, A.T @ b
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
