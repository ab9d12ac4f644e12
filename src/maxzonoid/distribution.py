"""The probability layer: cdf, copula, Pickands function, quantile
curves, exact simulation, and exponent-measure densities.

The law of a dependency set K (unit Frechet marginals) is
F(x) = exp(-h(K, x*)) with x*_i = 1/x_i, so every function here takes K
itself: MaxStableModel is as_dependency, and MaxStableModel(K) is K.
"""

import numpy as np

from . import _kernels
from .geometry import (
    _fold,
    _as_count,
    _as_points,
    _as_real,
    _mc_chunks,
    _support_checked,
    _support_finite,
    as_dependency,
    subset_indicator_lattice,
)
from .spectral import _ByKey, _close_to_normalized, _point_rows, _real_array


class SampleMatrix(_ByKey):
    """n x d strictly positive observations plus the generator seed, the
    sampler that drew them and the number of Poisson points it used."""

    _fields = ("values", "seed", "method", "n_points")

    def __init__(self, values, seed=None, method=None, n_points=None):
        v = _point_rows(values)
        if not ((v > 0) & (v < np.inf)).all():  # NaN fails both
            raise ValueError("samples must be finite and strictly positive")
        v.setflags(write=False)
        self._set(v, seed, method, n_points)

    def _key(self):  # the values bit for bit
        return self.values.shape, self.values.tobytes(), self.seed, self.method, self.n_points

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]


# The simple max-stable law F(x) = exp(-h(K, x*)) is the dependency set K:
# a model is made of a set by the one reader that checks h(K, e_i) = 1.
MaxStableModel = as_dependency


def _check_domain(X, inside, message):
    """Raise message unless inside holds everywhere (NaN is never inside),
    or the NaN message when every entry outside is NaN."""
    if not inside.all():
        raise ValueError("directions must not be NaN" if np.isnan(X[~inside]).all() else message)


def cdf(model, x):
    """F(x) = exp(-h(K, x*)); coordinates may be 0 (gives 0) or +inf
    (marginalizes that coordinate)."""
    X, single = _as_points(x, model.d)
    _check_domain(X, X >= 0, "the law lives on the nonnegative orthant")
    inv = np.add(X, 0.0)  # -0.0 + 0.0 is +0.0, so 0 maps to +inf
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, inv, out=inv)
    vals = _exp_minus(model, _support_checked(model, inv))
    return float(vals[0]) if single else vals


def copula(model, u):
    """C(u) = exp(-h(K, (-log u_1, ..., -log u_d))) on the unit cube."""
    U, single = _as_points(u, model.d)
    _check_domain(U, (U >= 0) & (U <= 1), "copula arguments must lie in [0, 1]^d")
    with np.errstate(divide="ignore"):
        z = np.log(U)
    vals = _exp_minus(model, _support_checked(model, np.negative(z, out=z)))
    return float(vals[0]) if single else vals


def _exp_minus(model, h):
    """exp(-h), in place unless h is a norm's value, which may be its caller's."""
    h = np.negative(h, out=h if model.spectral is not None else None)
    return np.exp(h, out=h)


def pickands(model, t):
    """The norm restricted to the unit simplex: A(t) = h(K, (t, 1 - sum t)).

    For d = 2, t is a scalar (or array) in [0, 1]; in general t holds the
    first d-1 simplex coordinates per row.  A coordinate down to -1e-12 reads as 0.
    """
    T = _real_array(t, "t", copy=False)
    if model.d == 2 and (T.ndim == 0 or T.ndim == 1):
        single = T.ndim == 0
        T = np.atleast_1d(T)[:, None]
    else:
        single = T.ndim == 1
        T = np.atleast_2d(T)
    if T.ndim != 2 or T.shape[1] != model.d - 1:
        raise ValueError(f"need {model.d - 1} simplex coordinates per point: shape (n, {model.d - 1}), not {T.shape}")
    X = np.column_stack([T, 1.0 - sum(T.T)])  # column by column, as numpy sums a row of < 8 terms
    _check_domain(X, X >= -1e-12, "coordinates must lie in the unit simplex")
    vals = _support_checked(model, np.maximum(X, 0.0, out=X))
    return float(vals[0]) if single else vals


def quantile_curve(model, alpha, points_n=200):
    """Boundary polyline of {x : F(x) >= alpha} in the plane.

    Parametrized through the polar boundary: for p with h(K, p) = 1 the
    point x_i = 1 / ((-log alpha) p_i) satisfies F(x) = alpha exactly.
    """
    if model.d != 2:
        raise ValueError("quantile curves are planar")
    alpha = _as_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    points_n = _as_count(points_n, "points_n", 2)
    theta = np.linspace(1e-6, np.pi / 2 - 1e-6, points_n)
    U = np.column_stack([np.cos(theta), np.sin(theta)])
    P = U / _support_finite(model, U)[:, None]
    return 1.0 / (-np.log(alpha) * P)


def simulate(model, n, seed):
    """Exact sampler from the atom list a_k = mass_k * atom_k, stopped
    as soon as no further point of the Poisson process can matter.

    With w_k = max_j a_kj, c = sum_k w_k and b_k = a_k / w_k, the points
    zeta_i = c / Gamma_i (Gamma_i cumulative Exp(1) sums), each carrying
    atom k with probability w_k / c, give xi_j = max_i zeta_i b_{K_i, j}
    with -log P(xi <= x) = sum_k w_k max_j b_kj / x_j = h(K, 1/x). Once
    zeta_i <= min_j xi_j no later point can raise a coordinate, since
    zeta decreases and b <= 1, so stopping there is exact.  A point's atom
    is read off the cumulative weights by the bucket lookup
    (_kernels.bucket_search) in O(1) expected, so N points cost O(N d)
    expected whatever m is; a binary search would cost O(N (d + log m)).
    A body is simulated from its own atoms, the ones its cdf reads; an
    analytic body needs with_discrete() first, which makes its fit the law.
    """
    n = _as_count(n, "n", 1)
    sigma = model.spectral
    if sigma is None:
        raise ValueError("model has no atom list; call with_discrete() to discretize first")
    A = sigma.scaled_atoms
    colsum = A.sum(axis=0)
    if not _close_to_normalized(colsum):
        raise ValueError(f"atom list is not normalized: marginal sums {colsum}")
    w = _fold(np.maximum, A.T)
    A, w = A[w > 0], w[w > 0]
    # coordinates first, so gathers and reductions over rows are contiguous
    BT = (A / w[:, None]).T.copy()
    cum = np.append(np.cumsum(w), np.inf)  # a sentinel above every u * c
    c, last, buckets = cum[-2], len(w) - 1, _kernels.bucket_index(cum[:-1])
    out = np.empty((sigma.d, n))
    n_points = 0
    for lo, chunk_n, rng in _mc_chunks(n, seed):
        rows = np.arange(lo, lo + chunk_n)
        gamma = np.zeros(chunk_n)
        xi = np.zeros((sigma.d, chunk_n))
        while rows.size:
            gamma += rng.standard_exponential(rows.size)
            zeta = c / gamma
            k = _kernels.bucket_search(cum, buckets, rng.random(rows.size) * c, "right")
            np.minimum(k, last, out=k)  # u * c may round up to c
            np.maximum(xi, zeta * BT.take(k, axis=1), out=xi)
            n_points += rows.size
            done = zeta <= xi.min(axis=0)
            i = np.flatnonzero(done)
            out[:, rows.take(i)] = xi.take(i, axis=1)
            i = np.flatnonzero(~done)
            rows, gamma, xi = rows.take(i), gamma.take(i), xi.take(i, axis=1)
    return SampleMatrix(out.T, seed, "poisson-stop", n_points)


def exponent_density(model, z):
    """Interior density of the exponent measure from the d-th mixed
    derivative of the norm at z*, scaled by prod z_i^{-2}.

    Central differences with one Richardson step; the relative step is
    1e-4 in the plane, and the trivariate third-order stencil needs a
    larger one (5e-3) to stay above floating-point cancellation.
    """
    if model.norm is None:
        raise ValueError(
            "exponent density needs a smooth analytic norm; discrete models "
            "carry their mass on the atoms"
        )
    if model.d not in (2, 3):
        raise ValueError("implemented for d = 2 and d = 3")
    z = _real_array(z, "z")
    if z.shape != (model.d,) or np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("evaluation point must be finite positive")
    step = 1e-4 if model.d == 2 else 5e-3
    zs = 1.0 / z
    d = model.d

    def mixed(h_vec):
        signs = 1.0 - 2.0 * subset_indicator_lattice(d)
        pts = zs[None, :] + signs * h_vec[None, :]
        vals = _support_finite(model, pts)
        parity = np.prod(signs, axis=1)
        return float((parity * vals).sum()) / float(np.prod(2.0 * h_vec))

    h_vec = step * zs
    D = (4.0 * mixed(h_vec / 2.0) - mixed(h_vec)) / 3.0
    return (-1.0) ** (d - 1) * D * float(np.prod(zs**2))


def max_stability_check(model, n_fold=2, grid=None):
    """Max deviation of F(n x)^n from F(x) over a grid; zero (up to
    floating error) exactly when the support function is homogeneous."""
    if not 2 <= _as_real(n_fold, "n_fold") < np.inf:  # NaN fails
        raise ValueError(f"need a finite n_fold >= 2, got {n_fold!r}")
    if grid is None:
        axes = np.linspace(0.6, 3.0, 5)
        grid = np.array(np.meshgrid(*[axes] * model.d)).reshape(model.d, -1).T
    grid = _point_rows(grid, "grid")
    return float(np.abs(cdf(model, n_fold * grid) ** n_fold - cdf(model, grid)).max())
