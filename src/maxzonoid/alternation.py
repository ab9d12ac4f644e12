"""Finite-order complete alternation checks and the reconstruction of a
max-stable model from a consistent extremal-coefficient table.

The consistency criterion inverts theta on the subset lattice: weights
c_B with theta_A = sum over B meeting A of c_B exist and are the
inclusion-exclusion transform of g(C) = theta_full - theta_complement;
the table is realizable iff all c_B are nonnegative, and the weights
directly build a model with atoms on the 0/1 directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .distribution import MaxStableModel
from .geometry import MaxZonoid
from .spectral import make_measure

ALT_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMaxLattice:
    """Finite point set closed under coordinatewise maxima, optionally
    carrying nonnegative function values (one per point); scaling_ok is
    computed from the points (_scaling_condition), not passed in."""

    points: np.ndarray
    values: np.ndarray | None = None
    scaling_ok: bool = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if np.any(pts < 0):
            raise ValueError("lattice points must be nonnegative")
        keys = {tuple(np.round(p, 9)) for p in pts}
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if tuple(np.round(np.maximum(pts[i], pts[j]), 9)) not in keys:
                    raise ValueError("point set is not closed under maxima")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (len(pts),):
                raise ValueError("need one value per lattice point")
            if np.any(vals < 0):
                raise ValueError("lattice values must be nonnegative")
            vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)
        object.__setattr__(self, "scaling_ok", _scaling_condition(pts))


def _scaling_condition(pts):
    """tu <= v for some t > 0 must imply u <= v (needed only for the
    lattice-extension construction, not for difference checks)."""
    for u in pts:
        for v in pts:
            if np.all(v[u > 0] > 0) and not np.all(u <= v + 1e-12):
                return False
    return True


def max_closure(points, max_size=100_000):
    """Close a point set under coordinatewise maxima."""
    pts = [np.asarray(p, dtype=float) for p in np.atleast_2d(points)]
    seen = {tuple(np.round(p, 9)) for p in pts}
    frontier = list(pts)
    while frontier:
        new = []
        for q in frontier:
            for p in pts:
                m = np.maximum(p, q)
                key = tuple(np.round(m, 9))
                if key not in seen:
                    seen.add(key)
                    new.append(m)
        pts.extend(new)
        if len(pts) > max_size:
            raise ValueError("max-closure exceeds the size guard")
        frontier = new
    return np.array(pts)


@dataclass(frozen=True)
class AlternationWitness:
    base: np.ndarray
    increments: np.ndarray
    value: float


@dataclass(frozen=True)
class AlternationResult:
    ok: bool
    witness: AlternationWitness | None = None
    order_checked: int = 0
    evaluations: int = 0


def check_alternation(f, points, max_order=3, tol=ALT_TOL, budget=10**7):
    """Search for a positive successive difference of f under the max
    operation: D_{x_n}..D_{x_1} f(x) = sum over subsets S of (-1)^|S|
    f(x v max(S)).  Returns the first witness above tol, else ok.

    f is called on an (n, d) array of points and must return (n,) values;
    pass f=None with a value-carrying FiniteMaxLattice to use its values.
    points must be closed under coordinatewise maxima (see max_closure).
    """
    if isinstance(points, FiniteMaxLattice):
        if f is None:
            if points.values is None:
                raise ValueError("lattice carries no values and f is None")
            table_vals = points.values
            f = lambda X, _v=table_vals: _v
        points = points.points
    elif f is None:
        raise ValueError("f is required unless a value-carrying lattice is given")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    keys = {tuple(np.round(p, 9)): i for i, p in enumerate(pts)}
    # index table of pairwise maxima; fails fast when not closed
    table = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            key = tuple(np.round(np.maximum(pts[i], pts[j]), 9))
            if key not in keys:
                raise ValueError("point set is not closed under maxima")
            table[i, j] = table[j, i] = keys[key]
    values = np.asarray(f(pts), dtype=float)
    if values.shape != (n,):
        raise ValueError("f must map (n, d) points to (n,) values")

    evals = 0
    bases = np.arange(n)
    for order in range(1, max_order + 1):
        cost = comb(n, order) * n * 2**order
        if evals + cost > budget:
            raise ValueError(
                f"evaluation budget exceeded at order {order} "
                f"({evals + cost} > {budget})"
            )
        evals += cost
        for args in combinations(range(n), order):
            # diff[b] = sum_S (-1)^|S| f(b v max(args[S])), all bases at once
            diff = values.copy()
            for mask in range(1, 2**order):
                idx = bases
                for k in range(order):
                    if (mask >> k) & 1:
                        idx = table[idx, args[k]]
                sign = -1.0 if bin(mask).count("1") % 2 else 1.0
                diff = diff + sign * values[idx]
            worst = int(np.argmax(diff))
            if diff[worst] > tol:
                return AlternationResult(
                    False,
                    AlternationWitness(
                        pts[worst], pts[np.array(args)], float(diff[worst])
                    ),
                    order,
                    evals,
                )
    return AlternationResult(True, None, max_order, evals)


# ---------------------------------------------------------------------------
# extremal coefficients


@dataclass(frozen=True)
class MobiusWeights:
    """Inclusion-exclusion weights c_B >= 0 reproducing a consistent
    table via theta_A = sum_{B: B meets A} c_B."""

    d: int
    c: dict

    def reproduce(self, A):
        A = frozenset(A)
        return sum(v for B, v in self.c.items() if B & A)


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    weights: MobiusWeights | None = None
    violation_subset: frozenset | None = None
    violation_value: float | None = None


def _theta_array(table):
    if not table.is_complete():
        raise ValueError("need theta_A for every nonempty subset")
    d = table.d
    theta = np.zeros(2**d)
    for A, v in table.values.items():
        mask = sum(1 << i for i in A)
        theta[mask] = v
    return theta


def check_extremal_consistency(table, tol=ALT_TOL):
    """Verdict and certificate for an extremal-coefficient table.

    Computes g(C) = theta_full - theta_{complement of C}, inverts it on
    the subset lattice, and accepts iff every weight c_B >= -tol."""
    d = table.d
    theta = _theta_array(table)
    full = 2**d - 1
    for i in range(d):
        if abs(theta[1 << i] - 1.0) > 1e-9:
            raise ValueError(f"theta of coordinate {i} must be 1 (unit Frechet)")
    g = theta[full] - theta[full ^ np.arange(2**d)]
    c = g.copy()
    for i in range(d):
        bit = 1 << i
        has = (np.arange(2**d) & bit).astype(bool)
        c[has] -= c[np.arange(2**d)[has] ^ bit]
    worst = int(np.argmin(c[1:])) + 1
    if c[worst] < -tol:
        subset = frozenset(i for i in range(d) if (worst >> i) & 1)
        return ConsistencyResult(False, None, subset, float(c[worst]))
    weights = {
        frozenset(i for i in range(d) if (mask >> i) & 1): float(c[mask])
        for mask in range(1, 2**d)
    }
    return ConsistencyResult(True, MobiusWeights(d, weights))


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
    points, masses = [], []
    for B, cB in res.weights.c.items():
        if cB <= 1e-12:
            continue
        e = np.zeros(d)
        e[list(B)] = 1.0 / len(B)
        points.append(e)
        masses.append(cB * len(B))
    sigma = make_measure(points, masses, "l1")
    return MaxStableModel(MaxZonoid(d=d, spectral=sigma))


def subset_indicator_lattice(d, include_origin=True):
    """The 0/1 indicator points of all subsets, a max-closed lattice."""
    n = 2**d if include_origin else 2**d - 1
    start = 0 if include_origin else 1
    return np.array(
        [[float((mask >> i) & 1) for i in range(d)] for mask in range(start, 2**d)]
    )


def theta_alternation_check(table, max_order=None):
    """Direct successive-difference check of A -> theta_A on the subset
    lattice; agrees with check_extremal_consistency."""
    d = table.d
    theta = _theta_array(table)
    pts = subset_indicator_lattice(d, include_origin=True)

    def f(X):
        masks = (X > 0.5).astype(int) @ (1 << np.arange(d))
        return theta[masks]

    return check_alternation(f, pts, max_order=max_order or d)
