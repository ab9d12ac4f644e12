"""Finite-order complete alternation checks and the reconstruction of a
max-stable model from a consistent extremal-coefficient table.

The consistency criterion inverts theta on the subset lattice: weights
c_B with theta_A = sum over B meeting A of c_B exist and are the
inclusion-exclusion transform of g(C) = theta_full - theta_complement;
the table is realizable iff all c_B are nonnegative, and the weights
directly build a model with atoms on the 0/1 directions.
"""

from collections import namedtuple
from itertools import combinations
from math import comb, inf

import numpy as np

from .distribution import MaxStableModel
from .geometry import MaxZonoid, _as_count, _indicator_rows, subset_indicator_lattice
from .spectral import _ByKey, _normalized, _point_keys, make_measure

ALT_TOL = 1e-9


def _key_rows(P):
    """The points' keys (_point_keys), one void item a row, which compare
    and sort by their bytes; ValueError at NaN, which equals no key, so no
    set holding it is closed under maxima."""
    keys = _point_keys(P)
    if np.isnan(keys).any():
        raise ValueError("point set is not closed under maxima: a NaN point equals no point")
    return np.ascontiguousarray(keys).view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def _max_table(pts):
    """table[i, j] = index in pts of max(pts[i], pts[j]), the last of the
    points with its key; ValueError at a pairwise maximum missing.  Row i
    is matched to the sorted keys (_key_rows) in one searchsorted."""
    uniq, first = np.unique(_key_rows(pts)[::-1], return_index=True)  # the first from the end
    table = np.empty((len(pts), len(pts)), dtype=np.intp)
    for i, p in enumerate(pts):
        q = _key_rows(np.maximum(p, pts))
        at = np.minimum(np.searchsorted(uniq, q), len(uniq) - 1)
        if not np.all(uniq[at] == q):
            raise ValueError("point set is not closed under maxima")
        table[i] = len(pts) - 1 - first[at]
    return table


def _lattice_points(points):
    """points as a new (n, d) float array, n and d at least 1, else ValueError."""
    pts = np.atleast_2d(np.array(points, dtype=float))
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError(f"points must form an (n, d) array with n, d >= 1, not one of shape {pts.shape}")
    return pts


def _subset(mask, d):
    """The coordinate subset of a bitmask over d coordinates."""
    return frozenset(i for i in range(d) if (mask >> i) & 1)


class FiniteMaxLattice(_ByKey):
    """Finite point set closed under coordinatewise maxima, optionally
    carrying nonnegative function values (one per point); scaling_ok is
    computed from the points (_scaling_condition), not passed in."""

    _fields = ("points", "values", "scaling_ok")

    def __init__(self, points, values=None):
        pts = _lattice_points(points)  # a copy, made read-only
        if np.any(pts < 0):
            raise ValueError("lattice points must be nonnegative")
        _max_table(pts)  # raises unless closed; the table is not kept
        pts.setflags(write=False)
        if values is not None:
            values = np.array(values, dtype=float)
            if values.shape != (len(pts),):
                raise ValueError("need one value per lattice point")
            if not (values >= 0).all():  # NaN fails
                raise ValueError("lattice values must be nonnegative, not NaN")
            values.setflags(write=False)
        self._set(pts, values, _scaling_condition(pts))

    def _key(self):  # the points as np.array_equal compares them, the values bit for bit
        values = None if self.values is None else self.values.tobytes()
        return self.points.shape, (self.points + 0.0).tobytes(), values


def _scaling_condition(pts):
    """tu <= v for some t > 0 must imply u <= v (needed only for the
    lattice-extension construction, not for difference checks): where v > 0
    on the support of u, u <= v + 1e-12.  Checked on boolean (u, v, i)
    arrays, a chunk of u at a time, of about 2**20 entries each."""
    pos = pts > 0
    rows = max(1, 2**20 // max(pts.size, 1))
    for lo in range(0, len(pts), rows):
        inside = ~(pos[lo : lo + rows, None] & ~pos).any(axis=2)
        below = (pts[lo : lo + rows, None] <= pts + 1e-12).all(axis=2)
        if (inside & ~below).any():
            return False
    return True


def max_closure(points, max_size=100_000):
    """Close a point set under coordinatewise maxima: the points as given,
    then each level's new maxima in (frontier point, point) order, the
    frontier being the last level's new points.  A maximum is new when no
    point held so far has its key (_key_rows, so NaN raises ValueError);
    ValueError as soon as more than max_size points would be held."""
    pts = _lattice_points(points)
    seen, frontier, count = np.unique(_key_rows(pts)), pts, len(pts)
    while len(frontier):
        new = []
        for q in frontier:
            M = np.maximum(pts, q)  # max(p, q): which zero a tie gives depends on the order
            keys, first = np.unique(_key_rows(M), return_index=True)
            at = np.searchsorted(seen, keys)
            fresh = seen[np.minimum(at, len(seen) - 1)] != keys
            count += fresh.sum()
            if count > max_size:
                raise ValueError("max-closure exceeds the size guard")
            new.append(M[np.sort(first[fresh])])
            seen = np.insert(seen, at[fresh], keys[fresh])
        frontier = np.concatenate(new)
        pts = np.concatenate([pts, frontier])
    return pts


AlternationWitness = namedtuple("AlternationWitness", "base increments value")
AlternationResult = namedtuple("AlternationResult", "ok witness order_checked")


def check_alternation(f, points, max_order=3, tol=ALT_TOL, budget=10**7):
    """Search for a positive successive difference of f under the max
    operation: D_{x_n}..D_{x_1} f(x) = sum over subsets S of (-1)^|S|
    f(x v max(S)).  Returns the first witness above tol, else ok.

    f is called on an (n, d) array of points and must return (n,) values;
    pass f=None with a value-carrying FiniteMaxLattice to use its values.
    points must be closed under coordinatewise maxima (see max_closure).
    """
    if not 0.0 <= tol < inf:  # NaN fails
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    max_order = _as_count(max_order, "max_order")
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if isinstance(points, FiniteMaxLattice):
        if f is None:
            if points.values is None:
                raise ValueError("lattice carries no values and f is None")
            f = lambda X, _v=points.values: _v
        points = points.points
    elif f is None:
        raise ValueError("f is required unless a value-carrying lattice is given")
    pts = _lattice_points(points)
    n = len(pts)
    table = _max_table(pts)
    values = np.asarray(f(pts), dtype=float)
    if values.shape != (n,):
        raise ValueError("f must map (n, d) points to (n,) values")
    if np.isnan(values).any():  # every difference through a NaN is NaN, never above tol
        raise ValueError(f"f is NaN at {np.isnan(values).sum()} of {n} points")

    evals = 0
    bases = np.arange(n)
    for order in range(1, max_order + 1):
        cost = comb(n, order) * n * 2**order
        if evals + cost > budget:
            raise ValueError(f"evaluation budget exceeded at order {order} ({evals + cost} > {budget})")
        evals += cost
        for args in combinations(range(n), order):
            # diff[b] = sum_S (-1)^|S| f(b v max(args[S])), all bases at once; idx[mask]
            # indexes b v max(args[S]), S the bits of mask, from S less its lowest bit k
            idx, diff = [bases], values.copy()
            for mask in range(1, 2**order):
                k = (mask & -mask).bit_length() - 1
                idx.append(table[idx[mask ^ 1 << k], args[k]])
                diff = diff + (-1.0) ** bin(mask).count("1") * values[idx[mask]]
            worst = int(np.argmax(diff))
            if diff[worst] > tol:
                witness = AlternationWitness(pts[worst], pts[np.array(args)], float(diff[worst]))
                return AlternationResult(False, witness, order)
    return AlternationResult(True, None, max_order)


# ---------------------------------------------------------------------------
# extremal coefficients


ConsistencyResult = namedtuple(
    "ConsistencyResult", "ok weights violation_subset violation_value", defaults=(None, None, None)
)
ConsistencyResult.__doc__ = """The verdict on an extremal-coefficient table.  When ok, weights
maps each nonempty subset B to its inclusion-exclusion weight c_B >= 0,
and theta_A = sum over B meeting A of c_B; else violation_subset is the
subset of the most negative weight, violation_value that weight."""


def _theta_array(table):
    if not table.is_complete():
        raise ValueError("need theta_A for every nonempty subset")
    d = table.d
    return np.array([0.0] + [table.values[_subset(mask, d)] for mask in range(1, 2**d)])


def check_extremal_consistency(table, tol=ALT_TOL):
    """Verdict and certificate for an extremal-coefficient table.

    Computes g(C) = theta_full - theta_{complement of C}, inverts it on
    the subset lattice, and accepts iff every weight c_B >= -tol."""
    if not 0.0 <= tol < inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    d = table.d
    theta = _theta_array(table)
    full = 2**d - 1
    for i in range(d):
        if not _normalized(theta[[1 << i]]):
            raise ValueError(f"theta of coordinate {i} must be 1 (unit Frechet)")
    c = theta[full] - theta[full ^ np.arange(2**d)]  # g, inverted in place below
    for i in range(d):
        bit = 1 << i
        has = (np.arange(2**d) & bit).astype(bool)
        c[has] -= c[np.arange(2**d)[has] ^ bit]
    worst = int(np.argmin(c[1:])) + 1
    if c[worst] < -tol:
        return ConsistencyResult(False, None, _subset(worst, d), float(c[worst]))
    return ConsistencyResult(True, {_subset(mask, d): float(c[mask]) for mask in range(1, 2**d)})


def construct_from_extremal(table):
    """Model with one atom per weight c_B above 1e-12, in direction e_B;
    reproduces every theta_A exactly and has unit Frechet marginals."""
    if table.d > 20:
        raise ValueError("full-table inversion is limited to d <= 20")
    res = check_extremal_consistency(table)
    if not res.ok:
        raise ValueError(
            f"inconsistent table: weight {res.violation_value:.6g} on subset "
            f"{sorted(res.violation_subset)}"
        )
    d = table.d
    c = np.fromiter(res.weights.values(), float, 2**d - 1)  # by mask, from 1
    keep = c > 1e-12
    E = _indicator_rows(np.arange(1, 2**d)[keep], d)
    size = E.sum(axis=1)
    sigma = make_measure(E / size[:, None], c[keep] * size, "l1")
    return MaxStableModel(MaxZonoid(d=d, spectral=sigma))
