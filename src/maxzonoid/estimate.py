"""Data-facing layer: empirical spectral measures from threshold
exceedances, half-plane estimation of planar dependency sets, and
Hausdorff convergence diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import SampleMatrix
from .geometry import (
    Polygon2D,
    _envelope_polygon,
    _ne_chain,
    hausdorff_distance,
    normalize_dependency,
    zonoid_from_spectral,
)
from .spectral import make_measure, reference_norm_of


@dataclass(frozen=True)
class DirectionEstimate:
    """An estimated stable-tail-dependence value for one direction on
    the reference sphere; values outside the coherent band
    [max_i u_i, sum_i u_i] are clipped and flagged."""

    direction: np.ndarray
    value: float
    clipped: bool = False


def direction_estimate(direction, value):
    u = np.asarray(direction, dtype=float)
    lo, hi = float(u.max()), float(u.sum())
    v = float(np.clip(value, lo, hi))
    return DirectionEstimate(u, v, clipped=v != float(value))


def empirical_spectral(samples, s, reference="l1"):
    """Empirical exceedance measure: one atom z/|z| of mass s/n per
    observation with |z| >= s."""
    X = (samples if hasattr(samples, "values") else SampleMatrix(samples)).values
    if not s > 0:  # NaN fails
        raise ValueError("threshold must be positive")
    norms = reference_norm_of(X, reference)
    hit = norms >= s
    n_exc = int(hit.sum())
    if n_exc == 0:
        raise ValueError(
            f"no exceedances above s={s:g} (max norm {norms.max():g}); "
            "lower the threshold"
        )
    atoms = X[hit] / norms[hit, None]
    mass = s / X.shape[0]
    return make_measure(atoms, np.full(n_exc, mass), reference)


def estimate_zonoid_2d(estimates):
    """Half-plane estimator of a planar dependency set.

    Intersects {x : <x, u_i> <= value_i} with the unit square and
    renormalizes the result onto unit marginals.  The intersection is
    read by polarity: its polar is the hull of e1, e2 and the points
    u_i / value_i, and it is the polar of that hull.  Valid in the plane,
    where every such body is a max-zonoid; deliberately not offered in
    higher dimensions, where the intersection need not be one.
    """
    if len(estimates) < 2:
        raise ValueError("need at least two direction estimates")
    if any(np.shape(est.direction) != (2,) for est in estimates):
        raise ValueError("the half-plane estimator is bivariate")
    U = np.array([est.direction for est in estimates], dtype=float)
    h = np.array([est.value for est in estimates], dtype=float)
    if not (np.isfinite(U).all() and (U >= 0).all()):
        raise ValueError("directions must be finite and nonnegative")
    if not (np.isfinite(h).all() and (h > 0).all()):
        raise ValueError("estimated values must be positive and finite")
    polar = _ne_chain(np.vstack([np.eye(2), U / h[:, None]])).vertices
    V = _envelope_polygon(polar, 1.0).vertices
    return Polygon2D(V / V.max(axis=0))


@dataclass(frozen=True)
class ConvergencePoint:
    s: float
    distance: float
    n_exceedances: int
    ok: bool


def convergence_diagnostic(samples, s_grid, target, reference="l1", grid_n=None):
    """Hausdorff distance between the normalized empirical max-zonoid at
    each threshold and a target body.  Thresholds without exceedances,
    or whose exceedances leave a coordinate empty, are flagged; bad data,
    grids, dimensions or a threshold that is not positive and finite
    fail the whole sweep."""
    X = (samples if hasattr(samples, "values") else SampleMatrix(samples)).values
    s_grid = np.asarray(s_grid, dtype=float)
    if not (np.isfinite(s_grid).all() and (s_grid > 0).all()):
        raise ValueError("thresholds must be positive and finite")
    norms = reference_norm_of(X, reference)
    out = []
    for s in s_grid:
        n_exc = int((norms >= s).sum())
        try:  # no exceedances, or a coordinate without any
            K = normalize_dependency(zonoid_from_spectral(empirical_spectral(X, s, reference)))
        except ValueError:
            out.append(ConvergencePoint(float(s), float("nan"), n_exc, False))
            continue
        dist = hausdorff_distance(K, target, grid_n=grid_n)
        out.append(ConvergencePoint(float(s), dist, n_exc, True))
    return out
