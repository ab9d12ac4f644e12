"""Convex bodies in the nonnegative orthant represented by support functions.

A max-zonoid has two representations (atoms, analytic norm); planar
chains are a view.  The atoms of a discrete spectral measure are the
canonical form, a finite sum of cross-polytopes; an analytic norm is a
closed-form support function.  A planar vertex chain (Polygon2D) is
materialized on demand for hull, intersection and area work and stored
back as atoms; the polar is the radial hull of u / h(K, u).  Every
operation is a pure function of immutable values; Monte Carlo ones take
explicit seeds and chunk them deterministically.
"""

import functools
import itertools
import math
import operator

import numpy as np

from . import _kernels
from ._kernels import _fold
from .spectral import (
    ATOM_TOL,
    _ByKey,
    _close_to_normalized,
    _nondegenerate,
    _normalized,
    _point_keys,
    _row_sum,
    make_measure,
    rebase_reference,
    spectral_from_points,
    spectral_from_polygon_2d,
)

EPS = 1e-9


# ---------------------------------------------------------------------------
# representations


class Polygon2D(_ByKey):
    """Anticlockwise vertex chain of a planar body, from a point on the
    positive x-axis to a point on the positive y-axis.  The body is the
    convex hull of the chain and the origin.  A view of a planar atom
    list (polygon_from_spectral / spectral_from_polygon_2d), not a body
    representation of its own."""

    _fields = ("vertices",)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("polygon chain needs at least two 2-D vertices")
        if not np.isfinite(v).all():
            raise ValueError("polygon vertices must be finite")
        if np.any(v < -EPS):
            raise ValueError("polygon vertices must be nonnegative")
        if abs(v[0, 1]) > EPS or abs(v[-1, 0]) > EPS:
            raise ValueError("chain must start on the x-axis and end on the y-axis")
        v = v.copy()
        v[0, 1] = 0.0
        v[-1, 0] = 0.0
        v.setflags(write=False)
        self._set(v)

    @classmethod
    def from_chain(cls, vertices):
        """Check a raw chain and return its hull chain (_ne_chain).  Edges
        no longer than EPS are ignored; a turn is the signed angle between
        the next two edges, atan2(cross, dot), which does not depend on
        their lengths.  A turn below -10 EPS, or an edge running right or
        down by more than EPS, is rejected: a reflex vertex 5e-10 inside a
        unit chord, as typed or rescaled vertices can be, turns by -1e-9
        and is dropped by the hull, but a larger one is not a body."""
        v = cls(vertices).vertices
        e = np.diff(v, axis=0)
        e = e[_fold(np.maximum, np.abs(e).T) > EPS]
        a, b = e[:-1], e[1:]
        turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], _row_sum(a * b))
        if np.any(turn < -10 * EPS):
            raise ValueError("chain violates convexity beyond tolerance")
        if np.any(e[:, 0] > EPS) or np.any(e[:, 1] < -EPS):
            raise ValueError("chain is not monotone: an edge runs right or down")
        return _ne_chain(v)

    def _key(self):  # finite, so bytes agree as np.array_equal does
        return self.vertices.shape, (self.vertices + 0.0).tobytes()

    def area_with_origin(self):
        """Area of the body conv({0} | chain) by the shoelace fan."""
        a, b = self.vertices[:-1], self.vertices[1:]
        return 0.5 * float((a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]).sum())


class AnalyticNorm(_ByKey):
    """Closed-form support function handle, equal to another by name,
    dimension and params, whatever its closures.

    fn maps (n, d) arrays of nonnegative points to (n,) values; grad,
    when given, maps (n, d) to the (n, d) support points (gradient of
    the norm where it is smooth)."""

    _fields = ("name", "d", "fn", "grad", "params")

    def __init__(self, name, d, fn, grad=None, params=()):
        self._set(name, d, fn, grad, params)

    def _key(self):
        return self.name, self.d, self.params


class MaxZonoid(_ByKey):
    """A max-zonoid in [0, inf)^d given by exactly one of two
    representations (atoms, analytic norm); planar chains are a view."""

    _fields = ("d", "spectral", "norm")

    def __init__(self, d, spectral=None, norm=None):
        if (spectral is None) == (norm is None):
            raise ValueError("exactly one representation must be given")
        if spectral is not None and spectral.d != d:
            raise ValueError("dimension mismatch between measure and body")
        if norm is not None and norm.d != d:
            raise ValueError("dimension mismatch between norm and body")
        self._set(d, spectral, norm)

    def marginals(self):
        """h(K, e_i): an atom list's column sums sum_k mass_k * atom_{k,i}
        (K is the expected random cross-polytope), else the norm at e_i,
        read directly so that a NaN marginal meets the predicates judging it."""
        if self.spectral is not None:
            return self.spectral.marginal_sums()
        return np.asarray(self.norm.fn(np.eye(self.d)), dtype=float)

    @property
    def discrete(self):
        """Read-only alias of spectral, kept for perfbench, which reads it."""
        return self.spectral


class DependencySet(MaxZonoid):
    """A max-zonoid normalized so the support of every basis vector is 1
    (unit Frechet marginals)."""

    def __init__(self, d, spectral=None, norm=None):
        super().__init__(d, spectral, norm)
        if not _normalized(self.marginals()):
            raise ValueError(
                f"not normalized: support at basis vectors is {self.marginals()}, expected all 1"
            )


def as_dependency(K):
    """Assert the normalization h(e_i) = 1 and rewrap."""
    if isinstance(K, DependencySet):
        return K
    return DependencySet(K.d, K.spectral, K.norm)


def normalize_dependency(K):
    """Coordinatewise rescale onto unit marginals (always possible for a
    max-zonoid with positive coordinate extents)."""
    marg = K.marginals()
    if not _nondegenerate(marg):
        raise ValueError("body has a degenerate coordinate, cannot normalize")
    if np.abs(marg - 1.0).max() <= 1e-12:
        return as_dependency(K)
    return as_dependency(scale(K, 1.0 / marg))


def _rewrap(result, *inputs):
    if all(isinstance(K, DependencySet) for K in inputs):
        return as_dependency(result)
    return result


# ---------------------------------------------------------------------------
# constructors


def zonoid_from_spectral(sigma):
    """The max-zonoid whose support function is
    h(x) = sum_k mass_k * max_i atom_{k,i} x_i (exact)."""
    return MaxZonoid(d=sigma.d, spectral=sigma)


def cross_polytope(apex):
    """conv{0, apex_1 e_1, ..., apex_d e_d}; support max_i max(0, apex_i x_i)."""
    apex = np.asarray(apex, dtype=float)
    return MaxZonoid(d=apex.size, spectral=spectral_from_points([apex]))


def unit_cube(d):
    """Independence body [0,1]^d: unit atoms on the coordinate axes."""
    return DependencySet(d=d, spectral=make_measure(np.eye(d), np.ones(d)))


def unit_cross_polytope(d):
    """Complete-dependence body conv{0, e_1, ..., e_d}: one diagonal atom."""
    return DependencySet(d=d, spectral=make_measure(np.full((1, d), 1.0 / d), [float(d)]))


def zonoid_from_polygon(polygon):
    """The planar body of a vertex chain, stored as its edge atoms."""
    K = MaxZonoid(d=2, spectral=spectral_from_polygon_2d(polygon))
    return as_dependency(K) if _normalized(K.marginals()) else K


def polygon_from_spectral(sigma):
    """The planar body of a 2-D measure as its vertex chain, sigma.chain's
    vertices: one per atom plus one, convex by construction, and the exact
    inverse of spectral_from_polygon_2d (every atom comes back, its edge
    within the rounding of the vertex sums)."""
    if sigma.d != 2:
        raise ValueError("polygon materialization requires d = 2")
    return Polygon2D(np.column_stack([sigma.chain.vx, sigma.chain.vy]))


# ---------------------------------------------------------------------------
# support evaluation


def _as_points(x, d, what="points"):
    """x as an (n, d) float array, and whether it was one point (d,)."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"{what} of dimension {d} have shape (n, {d}) or ({d},), not {X.shape}")
    return X, single


def _support_finite(K, X):
    """h(K, X) on an (n, d) batch of finite nonnegative points, X >= 0, the
    one read of the support function; the kernel does not clamp planar
    points (_kernels.support_sum).  Only a norm can give NaN, which is no
    answer: it raises ValueError."""
    if K.spectral is not None:
        return _kernels.support_sum(K.spectral.chain if K.d == 2 else K.spectral.scaled_atoms, X)
    h = np.asarray(K.norm.fn(X), dtype=float)
    if np.isnan(h).any():
        raise ValueError(f"support function is NaN at {np.isnan(h).sum()} of {h.size} points")
    return h


def support_function(K, x):
    """h(K, x) = sup over the body of the scalar product with x.

    x is one direction (d,) or a batch (n, d) of nonnegative coordinates,
    +inf allowed; a batch is one kernel call on whole columns.  A row with
    +inf on a coordinate where the body has extent gives +inf: every
    coordinate of an analytic norm, those of an atom list where some scaled
    atom exceeds ATOM_TOL.  Any other +inf counts as 0 (0 * inf = 0 in atom
    products, matching marginalization).  A NaN direction, or a NaN value of
    a norm (_support_finite), raises ValueError.
    """
    X, single = _as_points(x, K.d, "directions")
    if not (X >= 0).all():  # NaN fails too
        raise ValueError("directions must not be NaN" if np.isnan(X).any() else "directions must be nonnegative")
    if K.spectral is not None and K.d == 2:
        X = np.maximum(X, 0.0)  # the planar kernel reads -0.0 as given; h(-0.0, -0.0) is +0.0
    elif np.isinf(X).any():
        X = X.copy()  # X may be the caller's; +inf is zeroed in place
    out = _support_checked(K, X)
    return float(out[0]) if single else out


def _support_checked(K, X):
    """support_function on an (n, d) batch X already checked to hold no NaN
    and no negative entry, as an array; cdf, copula and pickands check their
    own input and hand over the points they made.  X is the caller's own:
    +inf is zeroed in place, and +inf rows are found by OR-ing columns."""
    inf = X == np.inf
    if not inf.any():
        return _support_finite(K, X)
    X[inf] = 0.0
    out = _support_finite(K, X)
    if K.spectral is None:  # every coordinate has extent; the value may be the norm's own
        return np.where(_fold(np.logical_or, inf.T), np.inf, out)
    cols = inf.T[K.spectral.extent]
    if len(cols):  # tiny atoms may leave a body no extent
        out[_fold(np.logical_or, cols)] = np.inf
    return out


# ---------------------------------------------------------------------------
# the operations algebra


def _quarter_circle(n):
    """n + 1 unit directions at equal angles from e1 to e2, anticlockwise."""
    theta = np.linspace(0.0, np.pi / 2, n + 1)
    return np.column_stack([np.cos(theta), np.sin(theta)])


@functools.lru_cache(maxsize=8)
def _simplex_lattice(d, m):
    """Largest resolution-r lattice on the l1 simplex with at most m points
    (at least the d vertices; the single point 1 when d = 1), rows in
    lexicographic order of their bar positions.  Cached read-only: the
    d = 3, 20,000-point grid of the distances takes milliseconds."""
    r = 1
    while d > 1 and math.comb(r + d, d - 1) <= m:
        r += 1
    n = math.comb(r + d - 1, d - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(r + d - 1), d - 1)),
        dtype=np.intp,
        count=n * (d - 1),
    ).reshape(n, d - 1)
    bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, r + d - 1))
    lattice = (np.diff(bars, axis=1) - 1) / r
    lattice.setflags(write=False)
    return lattice


@functools.lru_cache(maxsize=8)
def _lattice_orbits(d, m):
    """The orbits of the coordinate permutations on the rows of
    _simplex_lattice(d, m), cached read-only: each row's label, numbered
    from the largest orbit down and in lattice order among orbits of one
    size, and by label each orbit's first row, its nondecreasing one.  Rows
    k/r are sorted as integers by a network of column min/max and ranked
    among the compositions of r in lexicographic order, the lattice's."""
    L = _simplex_lattice(d, m)
    r = round(1.0 / L[-2, 1]) if d > 1 else 1  # the second-last row is (r - 1, 1, 0, ...) / r
    S = list(np.rint(L.T * r).astype(np.intp))
    for i in range(d - 1, 0, -1):
        for j in range(i):
            S[j], S[j + 1] = np.minimum(S[j], S[j + 1]), np.maximum(S[j], S[j + 1])
    rank, top = np.zeros(len(L), dtype=np.intp), r  # rank: the compositions of r before the row
    for i, k in enumerate(S[:-1]):  # of top into d - i parts, C[top] - C[top - k] have a first part below k
        C = np.array([math.comb(s + d - 1 - i, s) for s in range(r + 1)])  # C[s]: compositions of s into d - i parts
        rank, top = rank + C[top] - C[top - k], top - k
    size = np.bincount(rank, minlength=len(L))
    first = np.flatnonzero(size)  # the nondecreasing rows, in lattice order
    first = first[np.argsort(-size[first], kind="stable")]
    label = np.empty(len(L), dtype=np.intp)
    label[first] = np.arange(len(first))
    label = label[rank]
    for a in (label, first):
        a.setflags(write=False)
    return label, first


def _values_exchangeable(d, m, b):
    """Whether every coordinate permutation keeps the values b on the rows of
    _simplex_lattice(d, m): each within 4 ulps of max|b| of the value at its
    orbit's first row (_lattice_orbits); a NaN in b keeps none."""
    label, first = _lattice_orbits(d, m)
    return np.abs(b[first][label] - b).max() <= 4 * np.spacing(np.abs(b).max())


def _atoms_exchangeable(B):
    """Whether the swaps (0, j) keep an atom list, read on its scaled atoms
    B: the swapped rows match B's row for row, both sorted by _point_keys,
    to 16 ulps of max B (an orbit fit's atoms differ by at most 0.5, as it
    divides by one common factor; images and empirical bodies divide each
    atom by its own norm, summed in an order a swap changes).  Atoms tied in
    their keys but not their bits may sort apart and fail, never pass wrongly."""

    def rows(A):
        return A[np.lexsort(_point_keys(A).T[::-1])]

    S, tol, d = rows(B), 16 * np.spacing(B.max()), B.shape[1]
    return all(np.abs(rows(B[:, [j, *range(1, j), 0, *range(j + 1, d)]]) - S).max() <= tol for j in range(1, d))


def _exchangeable(K, m, h=None):
    """Whether every coordinate permutation keeps K: an atom list tested on
    its atoms (_atoms_exchangeable), a norm on its values h on the distance
    grid of size m, read there when h is None: the lattice
    (_values_exchangeable) in d >= 3, in d = 2 the quarter circle, whose
    reversal is the coordinate swap, to 4 ulps."""
    if K.spectral is not None:
        return _atoms_exchangeable(K.spectral.scaled_atoms)
    if h is None:
        h = _support_finite(K, _distance_grid(K.d, m))
    if K.d == 2:
        return np.abs(h[::-1] - h).max() <= 4 * np.spacing(np.abs(h).max())
    return _values_exchangeable(K.d, m, h)


def _grid_gap(K1, K2, U, m):
    """max over the rows u of U of |h(K1, u) - h(K2, u)|; a NaN support
    value raises ValueError (_support_finite).  In d >= 3, for U the lattice
    _simplex_lattice(d, m) with its rows scaled, an atom list is read on each
    orbit's first row (_lattice_orbits) when both bodies are exchangeable
    (_exchangeable: a norm tested on its values on all of U).  Such bodies
    keep every permutation to rounding, so this is the maximum over all of U
    up to rounding.  Otherwise every row is read."""
    bodies = (K1, K2)
    h = [None if K.spectral is not None and K.d >= 3 else _support_finite(K, U) for K in bodies]
    if any(v is None for v in h):
        symmetric = all(_exchangeable(K, m, v) for K, v in zip(bodies, h))
        rows = _lattice_orbits(K1.d, m)[1] if symmetric else slice(None)
        h = [_support_finite(K, U[rows]) if v is None else v[rows] for K, v in zip(bodies, h)]
    return np.abs(h[0] - h[1]).max()


def _polygon_of(K, directions=512):
    """Planar vertex chain of a 2-D body; exact for atom lists, a fine inscribed/circumscribed chain for analytic norms."""
    if K.d != 2:
        raise ValueError("polygon materialization requires d = 2")
    if K.spectral is not None:
        return polygon_from_spectral(K.spectral)
    return _norm_chain(K, _quarter_circle(directions)[1:-1])


def _image(parts, d):
    """The body with h(x) = sum_j h(K_j, y_j), where y_j[dst_j] =
    lam_j * x[src_j] and y_j is zero elsewhere; parts are tuples
    (K_j, src_j, dst_j, lam_j).  Rescaling, marginalizing, products and
    Minkowski sums are all this map.  Atom lists map to atom lists (atom
    b becomes c with c[src] = lam * b[dst], zero rows dropped); otherwise
    the support functions compose, with a gradient only when every part
    has one."""
    parts = [
        (K, src, dst, np.array(np.broadcast_to(lam, np.shape(src)), dtype=float))
        for K, src, dst, lam in parts
    ]
    if all(K.spectral is not None for K, *_ in parts):
        pts, w = [], []
        for K, src, dst, lam in parts:
            c = np.zeros((K.spectral.n_atoms, d))
            c[:, src] = K.spectral.atoms[:, dst] * lam
            pts.append(c)
            w.append(K.spectral.masses)
        sigma = spectral_from_points(
            np.vstack(pts), np.concatenate(w), parts[0][0].spectral.reference
        )
        return MaxZonoid(d=d, spectral=sigma)

    def lift(K, src, dst, lam, X):
        Y = np.zeros((X.shape[0], K.d))
        Y[:, dst] = X[:, src] * lam
        return Y

    def fn(X):
        return sum(_support_finite(K, lift(K, *rest, X)) for K, *rest in parts)

    grad = None
    if all(K.norm is not None and K.norm.grad is not None for K, *_ in parts):

        def grad(X):
            G = np.zeros(X.shape)
            for K, src, dst, lam in parts:
                G[:, src] += K.norm.grad(lift(K, src, dst, lam, X))[:, dst] * lam
            return G

    params = tuple((K, *(tuple(a.tolist()) for a in rest)) for K, *rest in parts)
    return MaxZonoid(d=d, norm=AnalyticNorm("image", d, fn, grad, params))


def scale(K, lam):
    """Coordinatewise rescaled body: h(scale(K, lam), x) = h(K, lam * x)."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (K.d,))
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise ValueError("scale factors must be positive finite")
    if np.all(lam == 1.0):
        return K
    idx = np.arange(K.d)
    return _image([(K, idx, idx, lam)], K.d)


def project(K, coords):
    """Body of the sub-vector on the given coordinates (_as_subset): the
    support function of the result equals h(K, x lifted with zeros)."""
    coords = np.array(sorted(_as_subset(coords, K.d)))
    if coords.size == K.d:
        return K
    return _rewrap(_image([(K, np.arange(coords.size), coords, 1.0)], coords.size), K)


def cartesian_product(K1, K2):
    """Body of the concatenation of independent vectors:
    h(K1 x K2, (x1, x2)) = h(K1, x1) + h(K2, x2)."""
    d1, d2 = K1.d, K2.d
    i1, i2 = np.arange(d1), np.arange(d2)
    out = _image([(K1, i1, i1, 1.0), (K2, d1 + i2, i2, 1.0)], d1 + d2)
    return _rewrap(out, K1, K2)


def minkowski_combine(K1, K2, lam, mode="sum"):
    """Weighted Minkowski sum lam*K1 + (1-lam)*K2 (lam scalar in [0,1] or
    vector in [0,1]^d), or spectral difference K1 - lam*K2 (lam scalar)."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    d = K1.d
    if mode == "sum":
        lam_v = np.broadcast_to(np.asarray(lam, dtype=float), (d,))
        if not ((0 <= lam_v) & (lam_v <= 1)).all():  # NaN fails
            raise ValueError("weights must lie in [0, 1]")
        idx = np.arange(d)
        out = _image([(K1, idx, idx, lam_v), (K2, idx, idx, 1.0 - lam_v)], d)
        return _rewrap(out, K1, K2)
    if mode == "difference":
        lam_s = float(lam)
        if not 0 < lam_s < math.inf:
            raise ValueError(f"difference weight must be positive and finite, got {lam_s!r}")
        s1, s2 = K1.spectral, K2.spectral
        if s1 is None or s2 is None:
            raise ValueError("spectral difference needs discrete representations")
        s2 = rebase_reference(s2, s1.reference)
        masses = s1.masses.copy()
        for atom, m2 in zip(s2.atoms, s2.masses):
            dist = np.abs(s1.atoms - atom).max(axis=1)
            j = int(np.argmin(dist))
            if dist[j] > 1e-7:
                raise ValueError(
                    f"atom {atom.tolist()} of the subtrahend is absent from the minuend"
                )
            masses[j] -= lam_s * m2
        if masses.min() < -EPS:
            j = int(np.argmin(masses))
            raise ValueError(
                f"negative mass {masses[j]:.3g} at atom {s1.atoms[j].tolist()}"
            )
        keep = masses > ATOM_TOL
        if not keep.any():
            raise ValueError("difference is the degenerate body {0}")
        sigma = make_measure(s1.atoms[keep], masses[keep], s1.reference)
        return MaxZonoid(d=d, spectral=sigma)
    raise ValueError(f"unknown mode {mode!r}")


def _ne_chain(points):
    """Anticlockwise boundary chain of conv({0} | points) from the
    positive x-axis to the positive y-axis.

    One monotone-chain pass (Andrew 1979) over the points in decreasing
    x, between the fixed anchors (xmax, 0) and (0, ymax): both anchors
    are extreme points and are never popped, so the chain always runs
    between them and is anticlockwise monotone.  A point within EPS of
    the last one kept is skipped; a vertex is popped while its signed
    turn angle atan2(cross, dot) is <= EPS.  The angle, not the cross
    product or the sine: it does not shrink with the edges of a fine
    chain, and a reversal, whose sine is about 0, turns by about pi.

    A certificate reads the pass without its loop, as on every family's
    support chain.  If y never falls along the anchors and sorted points,
    a step longer than EPS lands on a point the pass keeps: only runs of
    short steps take the near-duplicate test.  If every turn of the kept
    points, by the loop's own products, exceeds 2 EPS (np.arctan2 is within
    ulps of math.atan2), the pass pops nothing and they are its output."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise ValueError("planar chain points must be finite")
    pts = np.where(pts <= EPS, 0.0, pts)
    xmax, ymax = float(pts[:, 0].max()), float(pts[:, 1].max())
    if xmax <= EPS or ymax <= EPS:
        raise ValueError("degenerate point set for a planar chain")
    pts = pts[np.lexsort((pts[:, 1], -pts[:, 0]))]
    q = np.vstack([[xmax, 0.0], pts, [0.0, ymax]])
    step = np.diff(q, axis=0)
    if (step[:, 1] >= 0.0).all():
        new = np.concatenate([[True], _fold(np.logical_or, [c != 0 for c in step.T])])  # a repeat is never kept
        q, step = q[new], step[new[1:]]
        keep = np.concatenate([[True], _fold(np.maximum, np.abs(step).T) > EPS])
        short = np.flatnonzero(~keep)
        for i, (x, y), (bx, by) in zip(short.tolist(), q[short].tolist(), q[short - 1].tolist()):
            lx, ly = (bx, by) if keep[i - 1] else (lx, ly)  # the last point kept
            keep[i] = abs(x - lx) > EPS or abs(y - ly) > EPS
        k = q[keep]
        u, v = k[1:-1] - k[:-2], k[2:] - k[1:-1]
        turn = np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0], u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
        if (turn > 2 * EPS).all():
            return Polygon2D(k)
    chain = [(xmax, 0.0)]
    for x, y in pts.tolist() + [(0.0, ymax)]:
        bx, by = chain[-1]
        if abs(x - bx) <= EPS and abs(y - by) <= EPS:
            continue
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            ux, uy, vx, vy = bx - ax, by - ay, x - bx, y - by
            if math.atan2(ux * vy - uy * vx, ux * vx + uy * vy) > EPS:
                break
            chain.pop()
        bx, by = chain[-1]  # checked again: a pop can uncover a near-duplicate
        if abs(x - bx) > EPS or abs(y - by) > EPS:
            chain.append((x, y))
    return Polygon2D(np.array(chain))


def _envelope_polygon(U, h):
    """Circumscribed chain of the lines <u_j, x> = h_j, u_j anticlockwise
    from e1 to e2; h may be a scalar.  With U a chain and h = 1 it is the
    polar chain.  Adjacent lines meet by Cramer's rule (|det| < 1e-14
    skipped, clipped to the orthant), within 1e-12 of the exact rational
    solve even where cond reaches 1e9."""
    h = np.broadcast_to(np.asarray(h, dtype=float), U.shape[:1])
    u, v, hu, hv = U[:-1], U[1:], h[:-1], h[1:]
    det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    ok = np.abs(det) >= 1e-14
    x = np.column_stack([hu * v[:, 1] - u[:, 1] * hv, u[:, 0] * hv - hu * v[:, 0]])
    x = np.clip(x[ok] / det[ok, None], 0.0, None)
    return _ne_chain(np.vstack([[h[0] / U[0, 0], 0.0], x, [0.0, h[-1] / U[-1, 1]]]))


def _norm_chain(K, U):
    """Planar chain of an analytic norm from anticlockwise directions U
    inside the open quadrant: the support points grad(U) with the axis
    points when the norm has a gradient (inscribed), else the envelope
    of the supporting lines on U and the two axes (circumscribed)."""
    h_e = _support_finite(K, np.eye(2))
    if K.norm.grad is not None:
        pts = np.asarray(K.norm.grad(U), dtype=float)
        return _ne_chain(np.vstack([[h_e[0], 0.0], pts, [0.0, h_e[1]]]))
    U = np.vstack([[1.0, 0.0], U, [0.0, 1.0]])
    return _envelope_polygon(U, _support_finite(K, U))


def combine_2d(K1, K2, mode, p=2.0, lam=0.5, directions=512):
    """Planar-only closure operations: convex hull, intersection by
    polarity, (K1 & K2)° = conv(K1° | K2°) with each K° from polar_2d
    and the body read back as the envelope of that hull's lines, and the
    power mean h = (lam*h1^p + (1-lam)*h2^p)^(1/p) materialized as a
    supporting-line envelope."""
    if K1.d != 2 or K2.d != 2:
        raise ValueError("planar combination requires d = 2")
    if mode == "hull":
        V = [_polygon_of(K, directions).vertices for K in (K1, K2)]
        return as_dependency(zonoid_from_polygon(_ne_chain(np.vstack(V))))
    if mode == "intersection":
        polar = _ne_chain(np.vstack([polar_2d(K, directions).vertices for K in (K1, K2)]))
        return as_dependency(zonoid_from_polygon(_envelope_polygon(polar.vertices, 1.0)))
    if mode == "power_mean":
        if p < 1:
            raise ValueError("power-mean exponent must be >= 1")
        if not (0.0 <= lam <= 1.0):
            raise ValueError("power-mean weight must lie in [0, 1]")
        U = _quarter_circle(directions)
        h1, h2 = _support_finite(K1, U), _support_finite(K2, U)
        h = (lam * h1**p + (1.0 - lam) * h2**p) ** (1.0 / p)
        return as_dependency(zonoid_from_polygon(_envelope_polygon(U, h)))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# polar sets, volumes, metrics


def polar_2d(K, directions=4096):
    """The polar set {x in E : h(K, x) <= 1}, the chain of the points
    u / h(K, u): exact for an atom list, with u on the axes and the edge
    normals of its chain (the scaled atoms reversed), where every polar
    vertex lies; inscribed for a norm, with u on the quarter circle."""
    if K.d != 2:
        raise ValueError("polar materialization requires d = 2")
    if K.norm is not None:
        U = _quarter_circle(directions)
    else:
        U = np.vstack([np.eye(2), K.spectral.scaled_atoms[:, ::-1]])
    return _ne_chain(U / _support_finite(K, U)[:, None])


class Estimate(float):
    """A scalar result that is its own value, a float, carrying its
    standard error (0 for exact methods), the method that produced it
    and, for Monte Carlo, the draws and seed (for quadrature, the node
    count; for a grid, the direction count).  Arithmetic on it gives a
    plain float; json.dumps writes the float."""

    __slots__ = ("stderr", "method", "n_samples", "seed")

    def __new__(cls, value, stderr, method, n_samples=None, seed=None):
        self = super().__new__(cls, value)
        for name, v in zip(cls.__slots__, (stderr, method, n_samples, seed)):
            object.__setattr__(self, name, v)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"an Estimate is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Estimate, (float(self), self.stderr, self.method, self.n_samples, self.seed)

    @property
    def value(self):
        return float(self)

    def affine(self, a, b):
        """The estimate a * value + b, by the same method."""
        return Estimate(a * self + b, abs(a) * self.stderr, self.method, self.n_samples, self.seed)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes, ascending, and weights on [-1, 1]:
    Newton's method on the three-term recurrence
    P_{j+1} = x P_j + j/(j+1) (x P_j - P_{j-1}) from Tricomi's guess
    (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)) for the positive nodes, then
    w = 2/((1 - x^2) P_n'(x)^2), mirrored; odd n keeps the node 0.  O(n^2)
    with no eigensolve (Hale & Townsend 2013); cached read-only."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.append(x, [0.0] * (n % 2))  # P_n(0) = 0 exactly for odd n: Newton keeps it

    def legendre(x):  # P_n(x), P_n'(x)
        p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
        for j in range(1, n):
            np.multiply(x, p1, out=t)
            np.subtract(t, p0, out=p0)
            p0 *= j / (j + 1)
            p0 += t
            p0, p1 = p1, p0
        return p1, n * (p0 - x * p1) / (1.0 - x * x)

    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 4 * np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)
    x, w = np.concatenate([-x, x[::-1][n % 2 :]]), np.concatenate([w, w[::-1][n % 2 :]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=None)
def _simplex_rule(d, n):
    """Nodes on the unit simplex (rows of t >= 0 summing to 1) and
    weights for dt_1 ... dt_{d-1}, from n-point Gauss-Legendre on [0, 1]
    (_gauss_legendre, shared by both d).  d = 2: graded by
    t = 10u^3 - 15u^4 + 6u^5, which flattens the endpoint singularities of
    analytic norms.  d = 3: the Duffy-collapsed n x n product t_1 = u,
    t_2 = (1 - u) v with weight factor 1 - u (Duffy 1982), ungraded.
    Nodes are symmetric, so 1 - u is u reversed.  Cached read-only."""
    if d not in (2, 3):
        raise ValueError("quadrature needs 2 <= d <= 3")
    x, w = _gauss_legendre(n)
    u, w = (x + 1.0) / 2.0, w / 2.0
    if d == 2:
        t = u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
        T, w = np.column_stack([t, t[::-1]]), w * 30.0 * u**2 * u[::-1] ** 2
    else:
        s = u[::-1, None]  # 1 - u
        T = np.stack(np.broadcast_arrays(u[:, None], s * u, s * u[::-1]), axis=-1)
        T, w = T.reshape(-1, 3), (np.outer(w, w) * s).ravel()
    T.setflags(write=False)
    w.setflags(write=False)
    return T, w


def _simplex_quadrature(f, d):
    """Q_128 of the integral of f over the unit simplex by _simplex_rule,
    f mapping (n, d) nodes to (n,) values, with error |Q_64 - Q_128|,
    never below the rounding level n_nodes * eps * |Q_128|."""
    (T64, w64), (T, w) = _simplex_rule(d, 64), _simplex_rule(d, 128)
    vals = f(np.vstack([T64, T]))
    # elementwise, not w @ vals: a threaded BLAS dot can stall for milliseconds
    q64, q = float((w64 * vals[: len(w64)]).sum()), float((w * vals[len(w64) :]).sum())
    err = max(abs(q - q64), len(w) * float(np.finfo(float).eps) * abs(q))
    return Estimate(q, err, "quadrature", len(w))


def polar_volume(K, method="auto", n=200_000, seed=0):
    """Lebesgue volume of the polar set, V(K°) = (1/d) int_simplex h(K, t)^-d dt.

    quadrature (2 <= d <= 3): the exact shoelace area of the polar chain
    for a planar atom list, labelled "exact_2d", whose kinks the graded
    rule's error estimate can miss; otherwise _simplex_quadrature, whose
    error |Q_64 - Q_128| is pessimistic for analytic norms, and O(N^-2) in
    the N x N rule on the kinks of a d = 3 atom list.  mc: rejection
    sampling on the bounding box prod [0, 1/h(e_i)] with a binomial
    standard error taken at p = (accepted + 1)/(n + 2): of order box_vol/n
    even if p^ is 0 or 1.  auto: quadrature for d <= 3, else mc.  A body
    with some h(K, e_i) at most 1e-9 has an unbounded polar: it, or a NaN
    h(K, e_i), raises ValueError.
    """
    if method == "auto":
        method = "quadrature" if K.d in (2, 3) else "mc"
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    extents = K.marginals()
    if not _nondegenerate(extents):
        raise ValueError("degenerate body: polar set is unbounded")
    if method == "quadrature":
        if K.d == 2 and K.spectral is not None:
            return Estimate(polar_2d(K).area_with_origin(), 0.0, "exact_2d")
        return _simplex_quadrature(lambda T: _support_finite(K, T) ** -K.d / K.d, K.d)
    n = _as_count(n, "n")
    box = 1.0 / extents
    box_vol = float(np.prod(box))
    K_box = scale(K, box)  # h(K_box, u) = h(K, box * u): u in the unit cube is x in the box
    accepted, U = 0, None
    for _, chunk_n, rng in _mc_chunks(n, seed):  # the first chunk's array, refilled by the rest
        U = rng.random((chunk_n, K.d)) if U is None else rng.random(out=U[:chunk_n])
        accepted += np.count_nonzero(_support_finite(K_box, U) <= 1.0)
    p_tilde = (accepted + 1) / (n + 2)
    se = box_vol * math.sqrt(p_tilde * (1.0 - p_tilde) / n)
    return Estimate(box_vol * accepted / n, se, "mc", n, seed)


def _mc_chunks(n, seed, chunk=65536):
    """Deterministic chunked RNG streams for n >= 1 draws: one spawned child per chunk."""
    if n < 1:
        raise ValueError("Monte Carlo needs at least one sample")
    children = np.random.SeedSequence(seed).spawn(-(-n // chunk))
    for lo, child in zip(range(0, n, chunk), children):
        yield lo, min(chunk, n - lo), np.random.default_rng(child)


def exp_support_integral_mc(K, n=200_000, seed=0, beta=0.5):
    """Importance-sampled integral of exp(-h(K, x)) over the orthant,
    with proposal Exp(beta)^d; finite variance for any beta in (0, 1)
    because h dominates the maximum coordinate, infinite for beta >= 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("the proposal rate beta must lie in (0, 1)")
    n = _as_count(n, "n")
    d = K.d
    total = total_sq = 0.0
    for _, chunk_n, rng in _mc_chunks(n, seed):
        X = rng.exponential(1.0 / beta, size=(chunk_n, d))
        w = beta**-d * np.exp(beta * X.sum(axis=1) - _support_finite(K, X))
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _as_subset(A, d):
    """A coordinate subset, an index or an iterable of them, as a frozenset
    of ints by operator.index, so 1.5 and "1" are refused rather than
    truncated; ValueError unless it is nonempty, within range(d) and
    names no index twice."""
    try:
        idx = list(map(operator.index, A if np.iterable(A) else [A]))
    except TypeError:
        idx = []
    S = frozenset(idx)
    if not S or len(S) < len(idx) or min(S) < 0 or max(S) >= d:
        raise ValueError(f"invalid subset {A!r}: need a nonempty set of distinct integers in range({d})")
    return S


def _indicator_rows(masks, d):
    """The 0/1 indicator rows of coordinate subsets given as bitmasks: row k
    holds bit i of masks[k] in column i (Python ints past 62 bits)."""
    masks = np.asarray(masks, dtype=np.int64 if d < 63 else object)
    return ((masks[:, None] >> np.arange(d)) & 1).astype(float)


def subset_indicator_lattice(d, include_origin=True):
    """The 0/1 indicator points of all subsets, a max-closed lattice: row
    mask (from 1 without the origin) holds bit i of mask in column i."""
    return _indicator_rows(np.arange(0 if include_origin else 1, 2**d), d)


def _corner_directions(d):
    """All 0/1 indicator directions (2^d - 1 of them) for small d."""
    return np.eye(d) if d > 12 else subset_indicator_lattice(d, include_origin=False)


def _as_count(n, name):
    """n as a Python int, for a size argument: ValueError, not TypeError,
    for nan, inf, 2.5 and anything else that is not an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None


def _grid_size(d, grid_n):
    """grid_n of the distances' direction grid, by default 4096 in d = 2 and
    20,000 otherwise.  The grid must hold a direction off the axes, as any
    two dependency sets agree on the axes: grid_n is at least 2 in d = 2
    and d(d + 1)/2 in d >= 3, else ValueError."""
    if grid_n is None:
        grid_n = 4096 if d == 2 else 20_000
    grid_n = _as_count(grid_n, "grid_n")
    if grid_n < 1:
        raise ValueError("direction grid needs at least one direction")
    least = 2 if d == 2 else d * (d + 1) // 2  # the angle pi/4, the resolution-2 lattice
    if grid_n < least:
        raise ValueError(f"grid_n = {grid_n} holds no off-axis direction in d = {d}; need {least}")
    return grid_n


def _distance_grid(d, grid_n):
    """Orthant directions for the distances: grid_n + 1 of the quarter circle
    in d = 2, else the simplex lattice of at most grid_n points (_grid_size)."""
    grid_n = _grid_size(d, grid_n)
    return _quarter_circle(grid_n) if d == 2 else _simplex_lattice(d, grid_n)


@functools.lru_cache(maxsize=8)
def _unit_distance_grid(d, grid_n):
    """_distance_grid(d, grid_n) with its rows scaled to unit length, for
    Hausdorff.  Cached read-only: the rescale of the 19,900-point d = 3 grid
    costs about half a millisecond, the cached grid 0.5 MB."""
    U = _distance_grid(d, grid_n)
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    U.setflags(write=False)
    return U


def hausdorff_distance(K1, K2, grid_n=None):
    """Grid-limited Hausdorff distance: max over unit directions u of
    |h(K1, u) - h(K2, u)|.  Both bodies contain the origin and are
    coordinatewise comprehensive, so h(u) = h(u_+) with |u_+| <= 1: the
    sup over the sphere is the sup over unit orthant directions.  Those
    are the quarter circle in d = 2 and the simplex lattice scaled to
    unit length otherwise; the value is a lower bound that can only rise
    under nested refinement (doubling grid_n in d = 2, a lattice whose
    resolution is a multiple of the old one in d >= 3).  In d >= 3, when
    both bodies are exchangeable, an atom list is read on one direction per
    orbit of the coordinate permutations (_grid_gap): the maximum over those
    representatives, still a lower bound, equals the maximum over the whole
    grid up to rounding.  Returned as an Estimate with method
    "grid-lower-bound" and the count of the whole grid.  The bodies need not be normalized, but a
    NaN support value on the grid raises ValueError."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    grid_n = _grid_size(K1.d, grid_n)
    U = _unit_distance_grid(K1.d, grid_n)
    return Estimate(_grid_gap(K1, K2, U, grid_n), 0.0, "grid-lower-bound", len(U))


def m_distance(K1, K2, grid_n=None, lam_tol=1e-6):
    """Multiplicative (Banach-Mazur style) distance between dependency
    sets, log inf prod(lam_i) over lam with K1 in lam*K2 and K2 in lam*K1,
    with containment tested on a direction grid: the quarter circle in
    d = 2, else the simplex lattice, plus the 0/1 corners.  Each body's
    h(K, e_i) must be within DEP_TOL = 1e-6 of 1, which NaN fails, and a
    NaN support value on the grid raises; both give ValueError.  The value
    is an Estimate carrying its method and the direction count.  It is 0.0,
    method "grid-lower-bound", when every grid test passes at lam = 1: the
    grid corners e_i force lam_i >= max(r_i, 1/r_i) >= 1, r_i = h(K1, e_i)/h(K2, e_i).

    lam = c 1, with c = max over the grid of max(h1/h2, h2/h1), passes
    every grid test.  Both bodies exchangeable (_exchangeable, a norm judged
    on the default grid when grid_n is smaller, as a coarse grid can hold
    too few directions to tell): method "grid-lower-bound", the value d log c.
    With mu = 1/lam and s = log mu, K1 in lam*K2 holds when h(K1, e^s*v)
    <= h(K2, v) for every v >= 0, a constraint convex in s, and likewise
    with the bodies swapped; the objective sum(s) is linear.  The program
    on the grid is kept by every coordinate permutation, so the average of
    an optimum's permutations is optimal: s is constant, and by homogeneity
    lam = c 1.  The value is the on-grid optimum, so a lower bound of the
    true distance.  Cube against cross polytope gives d log d.

    Other pairs: method "grid-infimum-upper-bound", the lesser of d log c
    and log prod(lam) where one pass of coordinate descent stops.  Both
    lam pass every grid test, so the value bounds the on-grid infimum from
    above, but it is not that infimum: descent stops where no single lam_i
    can fall, while the optimum can need one factor to rise as another
    falls.  Nor does it bound the true distance either way, as a lam can
    pass the grid test and fail between grid directions.

    From the first feasible lam = d 2^k, the pass bisects each lam_i in
    turn on [1e-9, lam_i], until the bracket is no wider than lam_tol or
    holds no float strictly inside.  The search rests on one fact: for
    u >= 0, h(K, lam * u) does not decrease in any lam_i.  On the dense
    path of d >= 3 atom lists this holds exactly in floating point too,
    as products by nonnegatives, max and sums round monotonically; the
    d = 3 table path, the planar kernel and analytic norms are monotone
    up to rounding.  So a direction that meets a containment at the
    infeasible lower end of the bracket meets it at every later trial,
    and only the directions that failed there are tested again.
    Directions with u_i = 0 are not tested while lam_i moves, nor, while
    every lam_j >= 1, directions that meet the containment at lam = 1.
    The decisions, and so lam, are those of a test on the whole grid.
    Cost: the two supports on the grid, and for a searched pair the
    trials; on random trivariate atom lists these pass about 15 grids'
    worth of directions to the kernel, one pass on the whole grid 101."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    lam_tol = float(lam_tol)
    if not 0.0 < lam_tol < math.inf:
        raise ValueError(f"lam_tol must be positive and finite, got {lam_tol!r}")
    d = K1.d
    for K in (K1, K2):
        if not _close_to_normalized(K.marginals()):
            raise ValueError("m-distance is defined for dependency sets")
    grid_n = _grid_size(d, grid_n)
    L = _distance_grid(d, grid_n)
    U = np.vstack([L, _corner_directions(d)])
    h1 = _support_finite(K1, U)
    h2 = _support_finite(K2, U)
    # K1 in lam*K2 holds at u when h(K2, lam*u) reaches t1(u); K2 in lam*K1 likewise
    tests = ((K2, h1 * (1.0 - 1e-12) - 1e-12), (K1, h2 * (1.0 - 1e-12) - 1e-12))
    # the rows that fail at lam = 1, where the supports are h2 and h1
    fail_at_one = (h2 < tests[0][1], h1 < tests[1][1])
    if not (fail_at_one[0].any() or fail_at_one[1].any()):
        return Estimate(0.0, 0.0, "grid-lower-bound", len(U))
    uniform = d * math.log(max((h1 / h2).max(), (h2 / h1).max()))
    # a norm is judged on no grid coarser than the default, its values read again there
    judge_n = max(grid_n, _grid_size(d, None))
    h = (h1[: len(L)], h2[: len(L)]) if judge_n == grid_n else (None, None)
    if all(_exchangeable(K, judge_n, v) for K, v in zip((K1, K2), h)):
        return Estimate(uniform, 0.0, "grid-lower-bound", len(U))

    def failing(lam, active):
        """The rows of each active set that fail their containment at lam,
        K1 in lam*K2 first and the second left untested after a failure;
        lam is feasible when both are empty.  At lam >= 1 the rows that
        pass at lam = 1 pass, and are dropped untested."""
        if lam.min() >= 1.0:
            active = [rows[fail[rows]] for rows, fail in zip(active, fail_at_one)]
        out = list(active)
        for j, ((K, t), rows) in enumerate(zip(tests, active)):
            if rows.size:
                out[j] = rows[_support_finite(K, U[rows] * lam) < t[rows]]
                if out[j].size:
                    break
        return out

    every = np.arange(len(U))
    lam = np.full(d, float(d))
    bad = (every, every)
    for _ in range(60):
        bad = failing(lam, bad)
        if not (bad[0].size or bad[1].size):
            break
        lam *= 2.0
    else:
        raise ValueError("could not find a feasible starting scale")
    for i in range(d):
        active = (every[U[:, i] > 0],) * 2
        lo, hi = 1e-9, lam[i]
        while hi - lo > lam_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            trial = lam.copy()
            trial[i] = mid
            bad = failing(trial, active)
            if bad[0].size or bad[1].size:
                lo, active = mid, bad
            else:
                hi = mid
        lam[i] = hi
    return Estimate(min(np.log(np.prod(lam)), uniform), 0.0, "grid-infimum-upper-bound", len(U))
