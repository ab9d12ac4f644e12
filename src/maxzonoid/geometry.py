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

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .spectral import (
    ATOM_TOL,
    DiscreteSpectralMeasure,
    _ByKey,
    _close_to_normalized,
    _nondegenerate,
    _normalized,
    make_measure,
    rebase_reference,
    spectral_from_points,
    spectral_from_polygon_2d,
)

EPS = 1e-9


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True, eq=False)
class Polygon2D(_ByKey):
    """Anticlockwise vertex chain of a planar body, from a point on the
    positive x-axis to a point on the positive y-axis.  The body is the
    convex hull of the chain and the origin.  A view of a planar atom
    list (polygon_from_spectral / spectral_from_polygon_2d), not a body
    representation of its own."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
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
        object.__setattr__(self, "vertices", v)

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
        e = e[np.abs(e).max(axis=1) > EPS]
        a, b = e[:-1], e[1:]
        turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(axis=1))
        if np.any(turn < -10 * EPS):
            raise ValueError("chain violates convexity beyond tolerance")
        if np.any(e[:, 0] > EPS) or np.any(e[:, 1] < -EPS):
            raise ValueError("chain is not monotone: an edge runs right or down")
        return _ne_chain(v)

    def _key(self):  # finite, so bytes agree as np.array_equal does
        return self.vertices.shape, (self.vertices + 0.0).tobytes()

    def support(self, points):
        vals = points @ self.vertices.T
        return np.maximum(vals.max(axis=1), 0.0)

    def area_with_origin(self):
        """Area of the body conv({0} | chain) by the shoelace fan."""
        a, b = self.vertices[:-1], self.vertices[1:]
        return 0.5 * float((a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]).sum())


@dataclass(frozen=True)
class AnalyticNorm:
    """Closed-form support function handle.

    fn maps (n, d) arrays of nonnegative points to (n,) values; grad,
    when given, maps (n, d) to the (n, d) support points (gradient of
    the norm where it is smooth)."""

    name: str
    d: int
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    grad: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    params: tuple = ()


@dataclass(frozen=True)
class MaxZonoid:
    """A max-zonoid in [0, inf)^d given by exactly one of two
    representations (atoms, analytic norm); planar chains are a view."""

    d: int
    spectral: DiscreteSpectralMeasure | None = None
    norm: AnalyticNorm | None = None

    def __post_init__(self):
        if (self.spectral is None) == (self.norm is None):
            raise ValueError("exactly one representation must be given")
        if self.spectral is not None and self.spectral.d != self.d:
            raise ValueError("dimension mismatch between measure and body")
        if self.norm is not None and self.norm.d != self.d:
            raise ValueError("dimension mismatch between norm and body")

    def marginals(self):
        """Support values at the basis vectors."""
        return support_function(self, np.eye(self.d))

    @property
    def discrete(self):
        """The atom list that samples the law: the body's own atoms."""
        return self.spectral


@dataclass(frozen=True)
class DependencySet(MaxZonoid):
    """A max-zonoid normalized so the support of every basis vector is 1
    (unit Frechet marginals)."""

    def __post_init__(self):
        super().__post_init__()
        if not _normalized(self.marginals()):
            raise ValueError(
                f"not normalized: support at basis vectors is {self.marginals()}, expected all 1"
            )


def _fields(K):
    return dict(d=K.d, spectral=K.spectral, norm=K.norm)


def as_dependency(K):
    """Assert the normalization h(e_i) = 1 and rewrap."""
    if isinstance(K, DependencySet):
        return K
    return DependencySet(**_fields(K))


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


def _fold(f, cols):
    """f(...f(c_0, c_1)..., c_k) left to right into a new array; for np.add the
    order in which numpy sums a row of fewer than 8 terms, so the same bits."""
    out = np.array(cols[0])
    for c in cols[1:]:
        f(out, c, out=out)
    return out


def _as_points(x, d, what="points"):
    """x as an (n, d) float array, and whether it was one point (d,)."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"{what} of dimension {d} have shape (n, {d}) or ({d},), not {X.shape}")
    return X, single


def _support_finite(K, X):
    if K.spectral is not None:
        return _kernels.support_sum(K.spectral.chain if K.d == 2 else K.spectral.scaled_atoms, X)
    return np.asarray(K.norm.fn(X), dtype=float)


def support_function(K, x):
    """h(K, x) = sup over the body of the scalar product with x.

    x is one direction (d,) or a batch (n, d) of nonnegative coordinates,
    +inf allowed; a batch is one kernel call on whole columns.  A row with
    +inf on a coordinate where the body has extent gives +inf: every
    coordinate of an analytic norm, those of an atom list where some scaled
    atom exceeds ATOM_TOL.  Any other +inf counts as 0 (0 * inf = 0 in atom
    products, matching marginalization).
    """
    X, single = _as_points(x, K.d, "directions")
    if np.isnan(X).any():
        raise ValueError("directions must not be NaN")
    if np.any(X < 0):
        raise ValueError("directions must be nonnegative")
    inf = np.isinf(X)
    if not inf.any():
        out = _support_finite(K, X)
    else:
        out = _support_finite(K, np.where(inf, 0.0, X))
        hit = np.zeros(len(X), dtype=bool)
        for i in range(K.d) if K.spectral is None else np.flatnonzero(K.spectral.extent):
            hit |= inf[:, i]
        out[hit] = np.inf
    return float(out[0]) if single else out


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
    """Body of the sub-vector on the given coordinates: the support
    function of the result equals h(K, x lifted with zeros)."""
    coords = np.asarray(sorted(set(int(c) for c in np.atleast_1d(coords))))
    if coords.size == 0:
        raise ValueError("projection needs a nonempty coordinate subset")
    if coords.min() < 0 or coords.max() >= K.d:
        raise ValueError("coordinate subset out of range")
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
    chain, and a reversal, whose sine is about 0, turns by about pi."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise ValueError("planar chain points must be finite")
    pts = np.where(pts <= EPS, 0.0, pts)
    xmax, ymax = float(pts[:, 0].max()), float(pts[:, 1].max())
    if xmax <= EPS or ymax <= EPS:
        raise ValueError("degenerate point set for a planar chain")
    pts = pts[np.lexsort((pts[:, 1], -pts[:, 0]))]
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
def _simplex_rule(d, n):
    """Nodes on the unit simplex (rows of t >= 0 summing to 1) and
    weights for dt_1 ... dt_{d-1}, from n-point Gauss-Legendre on [0, 1].
    d = 2: graded by t = 10u^3 - 15u^4 + 6u^5, which flattens the
    endpoint singularities of analytic norms.  d = 3: the Duffy-collapsed
    n x n product t_1 = u, t_2 = (1 - u) v with weight factor 1 - u
    (Duffy 1982), ungraded.  Nodes are symmetric, so 1 - u is u reversed.
    Cached read-only: the Gauss-Legendre eigensolve costs milliseconds."""
    if d not in (2, 3):
        raise ValueError("quadrature needs 2 <= d <= 3")
    x, w = np.polynomial.legendre.leggauss(n)
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
    q64, q = float(w64 @ vals[: len(w64)]), float(w @ vals[len(w64) :])
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
    accepted = 0
    for _, chunk_n, rng in _mc_chunks(n, seed):
        accepted += int((_support_finite(K_box, rng.random((chunk_n, K.d))) <= 1.0).sum())
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


def subset_indicator_lattice(d, include_origin=True):
    """The 0/1 indicator points of all subsets, a max-closed lattice: row
    mask (from 1 without the origin) holds bit i of mask in column i."""
    masks = np.arange(0 if include_origin else 1, 2**d)
    return ((masks[:, None] >> np.arange(d)) & 1).astype(float)


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


def _distance_grid(d, grid_n):
    """Orthant directions for the distances: grid_n + 1 of the quarter
    circle in d = 2, else the simplex lattice of at most grid_n points
    (default sizes 4096 and 20,000).  The grid must hold a direction off
    the axes, as any two dependency sets agree on the axes: grid_n is at
    least 2 in d = 2 and d(d + 1)/2 in d >= 3, else ValueError."""
    if grid_n is None:
        grid_n = 4096 if d == 2 else 20_000
    grid_n = _as_count(grid_n, "grid_n")
    if grid_n < 1:
        raise ValueError("direction grid needs at least one direction")
    least = 2 if d == 2 else d * (d + 1) // 2  # the angle pi/4, the resolution-2 lattice
    if grid_n < least:
        raise ValueError(f"grid_n = {grid_n} holds no off-axis direction in d = {d}; need {least}")
    return _quarter_circle(grid_n) if d == 2 else _simplex_lattice(d, grid_n)


def hausdorff_distance(K1, K2, grid_n=None):
    """Grid-limited Hausdorff distance: max over unit directions u of
    |h(K1, u) - h(K2, u)|.  Both bodies contain the origin and are
    coordinatewise comprehensive, so h(u) = h(u_+) with |u_+| <= 1: the
    sup over the sphere is the sup over unit orthant directions.  Those
    are the quarter circle in d = 2 and the simplex lattice scaled to
    unit length otherwise; the value is a lower bound that can only rise
    under nested refinement (doubling grid_n in d = 2, a lattice whose
    resolution is a multiple of the old one in d >= 3).  Returned as an
    Estimate with method "grid-lower-bound" and the direction count.  The
    bodies need not be normalized, but a NaN support value on the grid
    raises ValueError."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    U = _distance_grid(K1.d, grid_n)
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    gap = np.abs(_support_finite(K1, U) - _support_finite(K2, U)).max()
    if np.isnan(gap):
        raise ValueError("support function is NaN on the direction grid")
    return Estimate(gap, 0.0, "grid-lower-bound", len(U))


def m_distance(K1, K2, grid_n=None, lam_tol=1e-6):
    """Multiplicative (Banach-Mazur style) distance between dependency
    sets, log inf prod(lam_i) over lam with K1 in lam*K2 and K2 in lam*K1,
    searched with containment tested on a direction grid: the quarter
    circle in d = 2, else the simplex lattice, plus the 0/1 corners.
    Each body's h(K, e_i) must be within DEP_TOL = 1e-6 of 1, which NaN
    fails; otherwise ValueError.

    The value, an Estimate with method "grid-infimum-upper-bound" and the
    direction count, is log prod(lam) where one pass of coordinate
    descent stops.  That lam passes every grid test, so the value bounds
    the on-grid infimum from above, but it is not that infimum: descent
    stops where no single lam_i can fall, while the optimum can need one
    factor to rise as another falls.  Logistic p = 1.5 against p = 3 in
    d = 2 gives 0.7377, yet lam = (e^0.2325, e^0.2325) passes every grid
    test, with log volume 0.465.  Nor does the value bound the true
    distance either way: besides stopping above it, a lam can pass the
    grid test and fail between grid directions (cube against cross
    polytope in d = 3 gives 3.2660, below 3 log 3).

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
    Cost: the two supports on the grid, the starting scale on the
    directions that fail at lam = 1, then about one grid per coordinate
    for the first trial and shrinking sets after it; cube vs cross
    polytope in d = 3 passes about 6 grids' worth of directions to the
    kernel, four passes on the whole grid about 280."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    lam_tol = float(lam_tol)
    if not 0.0 < lam_tol < math.inf:
        raise ValueError(f"lam_tol must be positive and finite, got {lam_tol!r}")
    d = K1.d
    for K in (K1, K2):
        if not _close_to_normalized(K.marginals()):
            raise ValueError("m-distance is defined for dependency sets")
    U = np.vstack([_distance_grid(d, grid_n), _corner_directions(d)])
    h1 = _support_finite(K1, U)
    h2 = _support_finite(K2, U)
    # K1 in lam*K2 holds at u when h(K2, lam*u) reaches t1(u); K2 in lam*K1 likewise
    tests = ((K2, h1 * (1.0 - 1e-12) - 1e-12), (K1, h2 * (1.0 - 1e-12) - 1e-12))
    # the rows that fail at lam = 1, where the supports are h2 and h1
    fail_at_one = (h2 < tests[0][1], h1 < tests[1][1])
    if not (fail_at_one[0].any() or fail_at_one[1].any()):
        return Estimate(0.0, 0.0, "grid-infimum-upper-bound", len(U))

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
    return Estimate(np.log(np.prod(lam)), 0.0, "grid-infimum-upper-bound", len(U))
