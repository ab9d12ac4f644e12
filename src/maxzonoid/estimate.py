"""Data-facing layer: empirical spectral measures from threshold
exceedances, half-plane estimation of planar dependency sets, and
Hausdorff convergence diagnostics."""

from collections import namedtuple

import numpy as np

from . import _kernels
from .distribution import SampleMatrix
from .geometry import (
    Estimate,
    Polygon2D,
    _as_real,
    _envelope_polygon,
    _grid_size,
    _ne_chain,
    _support_finite,
    _unit_distance_grid,
)
from .spectral import _from_reference, _merged, _nondegenerate, _real_array, _row_sum, reference_norm_of


DirectionEstimate = namedtuple("DirectionEstimate", "direction value clipped", defaults=(False,))
DirectionEstimate.__doc__ = """An estimated stable-tail-dependence value for one direction in
the nonnegative orthant; values outside the coherent band
[max_i u_i, sum_i u_i] are clipped and flagged."""


def direction_estimate(direction, value):
    u, value = _real_array(direction, "direction"), _as_real(value, "value")
    if u.ndim != 1 or not ((u >= 0).all() and np.isfinite(u).all() and np.isfinite(value)):
        raise ValueError("need one finite nonnegative direction and a finite value")
    lo, hi = float(u.max()), float(u.sum())
    v = float(np.clip(value, lo, hi))
    return DirectionEstimate(u, v, clipped=v != value)


def empirical_spectral(samples, s, reference="l1"):
    """Empirical exceedance measure: one atom z/|z| of mass s/n per
    observation with reference norm |z| >= s, restated on the l1 simplex."""
    X = (samples if isinstance(samples, SampleMatrix) else SampleMatrix(samples)).values
    if not _as_real(s, "threshold") > 0:  # NaN fails
        raise ValueError(f"threshold must be positive, got {s!r}")
    norms = reference_norm_of(X, reference)
    hit = norms >= s
    if not hit.any():
        raise ValueError(f"no exceedances above s={s:g} (max norm {norms.max():g}); lower the threshold")
    return _from_reference(X[hit] / norms[hit, None], np.full(int(hit.sum()), s / X.shape[0]), reference)


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


ConvergencePoint = namedtuple("ConvergencePoint", "s distance n_exceedances ok")


def convergence_diagnostic(samples, s_grid, target, reference="l1", grid_n=None):
    """Hausdorff distance between the normalized empirical max-zonoid at
    each threshold and a target body, as hausdorff_distance reads it: an
    Estimate, a lower bound on the unit orthant directions U of its grid.
    The target is read on U once, E_s off its scaled exceedance rows, merged
    as make_measure merges atoms, in one kernel sum on U/m_s, m_s their column
    sums: h(diag(1/m) E, u) = h(E, u/m), and no measure or body is built.
    Thresholds without exceedances, or whose exceedances leave a coordinate
    empty, are flagged; bad data, a target of another dimension or NaN
    support values, a bad grid, or thresholds that are not positive,
    finite and increasing fail the whole sweep."""
    X = (samples if isinstance(samples, SampleMatrix) else SampleMatrix(samples)).values
    s_grid = _real_array(s_grid, "thresholds")
    if s_grid.ndim != 1 or not (np.isfinite(s_grid).all() and (s_grid > 0).all()):
        raise ValueError("thresholds must be positive and finite")
    if (np.diff(s_grid) <= 0).any():
        raise ValueError("threshold grid must be increasing")
    if target.d != X.shape[1]:
        raise ValueError(f"the target has dimension {target.d}, the data {X.shape[1]}")
    U = _unit_distance_grid(target.d, _grid_size(target.d, grid_n))
    h_target = _support_finite(target, U)
    norms = reference_norm_of(X, reference)
    out = []
    for s in s_grid:
        hit = norms >= s
        P = X[hit] / norms[hit, None]
        l1 = _row_sum(P)
        A, w = _merged(P / l1[:, None], l1 * (s / X.shape[0]))  # atoms x/|x|_1 of mass (s/n) |x|_1/|x|_ref
        B = A * w[:, None]
        m = B.sum(axis=0)
        if not _nondegenerate(m):  # no exceedances, or a coordinate without any
            out.append(ConvergencePoint(float(s), float("nan"), len(P), False))
            continue
        gap = np.abs(_kernels.support_sum(B, U / m) - h_target).max()
        out.append(ConvergencePoint(float(s), Estimate(gap, 0.0, "grid-lower-bound", len(U)), len(P), True))
    return out
