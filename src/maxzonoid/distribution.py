"""The probability layer: cdf, copula, Pickands function, quantile
curves, exact simulation, and exponent-measure densities.

A model couples a dependency set K (unit Frechet marginals) with an
optional atom list used for simulation; the law is
F(x) = exp(-h(K, x*)) with x*_i = 1/x_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import (
    MaxZonoid,
    _mc_chunks,
    _support_finite,
    as_dependency,
    support_function,
)
from .spectral import DiscreteSpectralMeasure


@dataclass(frozen=True)
class SampleMatrix:
    """n x d strictly positive observations plus the generator seed."""

    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(v <= 0):
            raise ValueError("samples must be strictly positive")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class MaxStableModel:
    """Simple max-stable law given by its dependency set; the discrete
    form (when present) enables exact simulation."""

    K: MaxZonoid
    discrete: DiscreteSpectralMeasure | None = None

    def __post_init__(self):
        object.__setattr__(self, "K", as_dependency(self.K))
        if self.discrete is None and self.K.spectral is not None:
            object.__setattr__(self, "discrete", self.K.spectral)

    @property
    def d(self):
        return self.K.d

    def with_discrete(self, m=1000):
        """Attach an atom list, discretizing analytic norms on demand."""
        if self.discrete is not None:
            return self
        from .families import discretize

        return MaxStableModel(self.K, discretize(self.K, m).measure)


def model_from_zonoid(K, discrete=None):
    return MaxStableModel(K, discrete)


def _body(model):
    """The dependency set of a model; bodies pass through unchanged."""
    return model.K if isinstance(model, MaxStableModel) else model


def _as_points(x, d):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != d:
        raise ValueError(f"points have dimension {X.shape[1]}, model has {d}")
    return X, single


def cdf(model, x):
    """F(x) = exp(-h(K, x*)); coordinates may be 0 (gives 0) or +inf
    (marginalizes that coordinate)."""
    K = _body(model)
    X, single = _as_points(x, K.d)
    if np.any(X < 0):
        raise ValueError("the law lives on the nonnegative orthant")
    with np.errstate(divide="ignore"):
        inv = np.where(X == 0, np.inf, 1.0 / X)
    vals = np.exp(-np.atleast_1d(support_function(K, inv)))
    return float(vals[0]) if single else vals


def copula(model, u):
    """C(u) = exp(-h(K, (-log u_1, ..., -log u_d))) on the unit cube."""
    K = _body(model)
    U, single = _as_points(u, K.d)
    if np.any(U < 0) or np.any(U > 1):
        raise ValueError("copula arguments must lie in [0, 1]^d")
    with np.errstate(divide="ignore"):
        z = -np.log(U)
    vals = np.exp(-np.atleast_1d(support_function(K, z)))
    return float(vals[0]) if single else vals


def pickands(model, t):
    """The norm restricted to the unit simplex: A(t) = h(K, (t, 1 - sum t)).

    For d = 2, t is a scalar (or array) in [0, 1]; in general t holds the
    first d-1 simplex coordinates per row.
    """
    K = _body(model)
    T = np.asarray(t, dtype=float)
    if K.d == 2 and (T.ndim == 0 or T.ndim == 1):
        single = T.ndim == 0
        T = np.atleast_1d(T)[:, None]
    else:
        single = T.ndim == 1
        T = np.atleast_2d(T)
    if T.shape[1] != K.d - 1:
        raise ValueError(f"need {K.d - 1} simplex coordinates per point")
    last = 1.0 - T.sum(axis=1)
    if np.any(T < -1e-12) or np.any(last < -1e-12):
        raise ValueError("coordinates must lie in the unit simplex")
    X = np.column_stack([T, np.clip(last, 0.0, None)])
    vals = np.atleast_1d(support_function(K, X))
    return float(vals[0]) if single else vals


def quantile_curve(model, alpha, points_n=200):
    """Boundary polyline of {x : F(x) >= alpha} in the plane.

    Parametrized through the polar boundary: for p with h(K, p) = 1 the
    point x_i = 1 / ((-log alpha) p_i) satisfies F(x) = alpha exactly.
    """
    K = _body(model)
    if K.d != 2:
        raise ValueError("quantile curves are planar")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if points_n < 2:
        raise ValueError("a quantile curve needs at least two points")
    theta = np.linspace(1e-6, np.pi / 2 - 1e-6, points_n)
    U = np.column_stack([np.cos(theta), np.sin(theta)])
    P = U / _support_finite(K, U)[:, None]
    return 1.0 / (-np.log(alpha) * P)


def simulate(model, n, seed):
    """Exact sampler from the atom list: xi_j = max_k zeta_k a_kj with
    zeta_k iid unit Frechet and a_kj = mass_k * atom_kj."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if model.discrete is None:
        raise ValueError(
            "model has no atom list; call with_discrete() to discretize first"
        )
    A = model.discrete.scaled_atoms
    colsum = A.sum(axis=0)
    if np.abs(colsum - 1.0).max() > 1e-6:
        raise ValueError(f"atom list is not normalized: marginal sums {colsum}")
    m = A.shape[0]
    out = np.empty((n, model.d))
    for lo, chunk_n, rng in _mc_chunks(n, seed):
        # row blocks of one stream draw the same values as a single draw
        for blo in range(lo, lo + chunk_n, _kernels._CHUNK):
            rows = min(_kernels._CHUNK, lo + chunk_n - blo)
            out[blo : blo + rows] = _kernels.simulate_frechet(A, rng.random((rows, m)))
    return SampleMatrix(out, seed)


def exponent_density(model, z, step=None, richardson=True):
    """Interior density of the exponent measure from the d-th mixed
    derivative of the norm at z*, scaled by prod z_i^{-2}.

    The relative difference step defaults to 1e-4 in the plane; the
    trivariate third-order stencil needs a larger step (5e-3) to stay
    above floating-point cancellation.
    """
    K = _body(model)
    if K.norm is None:
        raise ValueError(
            "exponent density needs a smooth analytic norm; discrete models "
            "carry their mass on the atoms"
        )
    if K.d not in (2, 3):
        raise ValueError("implemented for d = 2 and d = 3")
    z = np.asarray(z, dtype=float)
    if z.shape != (K.d,) or np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("evaluation point must be finite positive")
    if step is None:
        step = 1e-4 if K.d == 2 else 5e-3
    zs = 1.0 / z
    d = K.d

    def mixed(h_vec):
        signs = np.array(
            [[1 - 2 * ((mask >> i) & 1) for i in range(d)] for mask in range(2**d)],
            dtype=float,
        )
        pts = zs[None, :] + signs * h_vec[None, :]
        vals = _support_finite(K, pts)
        parity = np.prod(signs, axis=1)
        return float((parity * vals).sum()) / float(np.prod(2.0 * h_vec))

    h_vec = step * zs
    D = mixed(h_vec)
    if richardson:
        D = (4.0 * mixed(h_vec / 2.0) - D) / 3.0
    return (-1.0) ** (d - 1) * D * float(np.prod(zs**2))


def max_stability_check(model, n_fold=2, grid=None):
    """Max deviation of F(n x)^n from F(x) over a grid; zero (up to
    floating error) exactly when the support function is homogeneous."""
    K = _body(model)
    if n_fold < 2:
        raise ValueError("need n_fold >= 2")
    if grid is None:
        axes = np.linspace(0.6, 3.0, 5)
        grid = np.array(np.meshgrid(*[axes] * K.d)).reshape(K.d, -1).T
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    with np.errstate(divide="ignore"):
        inv = np.where(grid == 0, np.inf, 1.0 / grid)
    F1 = np.exp(-np.atleast_1d(support_function(K, inv)))
    Fn = np.exp(-np.atleast_1d(support_function(K, inv / n_fold)))
    return float(np.abs(Fn**n_fold - F1).max())
