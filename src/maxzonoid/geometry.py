"""Convex bodies in the nonnegative orthant represented by support functions.

A max-zonoid has two representations (atoms, analytic norm); planar
chains are a view.  The atoms of a discrete spectral measure are the
canonical form, a finite sum of cross-polytopes; an analytic norm is a
closed-form support function.  A planar vertex chain (Polygon2D) is
materialized on demand for hull, clip, polar and area work and stored
back as atoms.  Every operation here is a pure function of immutable
values; Monte Carlo operations take explicit seeds and chunk them
deterministically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _kernels
from .spectral import (
    ATOM_TOL,
    DiscreteSpectralMeasure,
    make_measure,
    polygon_from_spectral,
    rebase_reference,
    spectral_from_points,
    spectral_from_polygon_2d,
)

EPS = 1e-9


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class Polygon2D:
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
        """Clean a raw chain: dedup, drop collinear vertices, repair
        small convexity violations, reject larger ones.  A turn is
        measured by its sine, cross(e1, e2) / (|e1| |e2|), so the
        tolerance does not depend on the edge lengths of a fine chain.  A
        vertex is collinear at sine <= EPS; a reflex vertex is dropped
        while its sine is at least -10 EPS, since a vertex 5e-10 inside a
        unit chord, as typed or rescaled vertices can be, turns by -1e-9."""
        v = np.asarray(vertices, dtype=float)
        v = np.where(np.abs(v) <= EPS, 0.0, v)
        kept = [v[0]]
        for p in v[1:]:
            if np.abs(p - kept[-1]).max() > EPS:
                kept.append(p)
        out = [kept[0]]
        for p in kept[1:]:
            while len(out) >= 2:
                e1 = out[-1] - out[-2]
                e2 = p - out[-1]
                sine = (e1[0] * e2[1] - e1[1] * e2[0]) / (math.hypot(*e1) * math.hypot(*e2))
                if sine < -10 * EPS:
                    raise ValueError("chain violates convexity beyond tolerance")
                if sine <= EPS:
                    out.pop()
                else:
                    break
            out.append(p)
        return cls(np.array(out))

    @property
    def is_dependency(self):
        v = self.vertices
        return (
            np.abs(v[0] - (1.0, 0.0)).max() <= EPS
            and np.abs(v[-1] - (0.0, 1.0)).max() <= EPS
            and v.max() <= 1.0 + EPS
        )

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
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
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

    def support(self, x):
        return support_function(self, x)

    def marginals(self):
        """Support values at the basis vectors."""
        return support_function(self, np.eye(self.d))


@dataclass(frozen=True)
class DependencySet(MaxZonoid):
    """A max-zonoid normalized so the support of every basis vector is 1
    (unit Frechet marginals)."""

    def __post_init__(self):
        super().__post_init__()
        marg = self.marginals()
        if np.abs(marg - 1.0).max() > 1e-9:
            raise ValueError(
                f"not normalized: support at basis vectors is {marg}, expected all 1"
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
    if np.any(marg <= EPS):
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


def zonoid_from_atoms(points, masses, reference="l1"):
    sigma = make_measure(points, masses, reference)
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
    return as_dependency(K) if polygon.is_dependency else K


# ---------------------------------------------------------------------------
# support evaluation


def _coordinate_extent(K):
    """Boolean mask of coordinates where the body has positive extent."""
    if K.spectral is not None:
        return (K.spectral.scaled_atoms > ATOM_TOL).any(axis=0)
    return np.ones(K.d, dtype=bool)


def _support_finite(K, X):
    if K.spectral is not None:
        return _kernels.support_sum(K.spectral.scaled_atoms, X)
    return np.asarray(K.norm.fn(X), dtype=float)


def support_function(K, x):
    """h(K, x) = sup over the body of the scalar product with x.

    x takes nonnegative coordinates, +inf allowed (the convention
    0 * inf = 0 applies in atom products, matching marginalization).
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != K.d:
        raise ValueError(f"direction has dimension {X.shape[1]}, body has {K.d}")
    if np.isnan(X).any():
        raise ValueError("directions must not be NaN")
    if np.any(X < 0):
        raise ValueError("directions must be nonnegative")
    out = np.empty(X.shape[0])
    inf_rows = np.isinf(X).any(axis=1)
    if inf_rows.any():
        extent = _coordinate_extent(K)
        hit = (np.isinf(X) & extent[None, :]).any(axis=1)
        out[hit] = np.inf
        rest = inf_rows & ~hit
        if rest.any():
            out[rest] = _support_finite(K, np.where(np.isinf(X[rest]), 0.0, X[rest]))
    fin = ~inf_rows
    if fin.any():
        out[fin] = _support_finite(K, np.ascontiguousarray(X[fin]))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# the operations algebra


def _quarter_circle(n):
    """n + 1 unit directions at equal angles from e1 to e2, anticlockwise."""
    theta = np.linspace(0.0, np.pi / 2, n + 1)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _simplex_lattice(d, m):
    """Largest resolution-r lattice on the l1 simplex with at most m points
    (at least the d vertices; the single point 1 when d = 1), rows in
    lexicographic order of their bar positions."""
    if d == 1:
        return np.ones((1, 1))
    r = 1
    while math.comb(r + d, d - 1) <= m:
        r += 1
    n = math.comb(r + d - 1, d - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(r + d - 1), d - 1)),
        dtype=np.intp,
        count=n * (d - 1),
    ).reshape(n, d - 1)
    bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, r + d - 1))
    return (np.diff(bars, axis=1) - 1) / r


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

    return MaxZonoid(d=d, norm=AnalyticNorm("image", d, fn, grad))


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
        if np.any(lam_v < 0) or np.any(lam_v > 1):
            raise ValueError("weights must lie in [0, 1]")
        idx = np.arange(d)
        out = _image([(K1, idx, idx, lam_v), (K2, idx, idx, 1.0 - lam_v)], d)
        return _rewrap(out, K1, K2)
    if mode == "difference":
        lam_s = float(lam)
        if lam_s <= 0:
            raise ValueError("difference weight must be positive")
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

    A monotone-chain pass over the points in decreasing x, keeping left
    turns only, between the fixed anchors (xmax, 0) and (0, ymax): both
    anchors are extreme points and are never popped, so the chain always
    runs between them and is anticlockwise monotone."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pts = np.where(pts <= EPS, 0.0, pts)
    xmax, ymax = pts[:, 0].max(), pts[:, 1].max()
    if xmax <= EPS or ymax <= EPS:
        raise ValueError("degenerate point set for a planar chain")
    pts = pts[np.lexsort((pts[:, 1], -pts[:, 0]))]
    chain = [np.array([xmax, 0.0])]
    for p in list(pts) + [np.array([0.0, ymax])]:
        while len(chain) >= 2:
            e1 = chain[-1] - chain[-2]
            e2 = p - chain[-1]
            if e1[0] * e2[1] - e1[1] * e2[0] <= EPS:
                chain.pop()
            else:
                break
        chain.append(p)
    return Polygon2D(np.array(chain))


def _envelope_polygon(U, h):
    """Circumscribed chain of the lines <u_j, x> = h_j, u_j anticlockwise
    from e1 to e2: adjacent lines meet by Cramer's rule (|det| < 1e-14
    skipped, clipped to the orthant), within 1e-12 of np.linalg.solve."""
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


def _clip_chain_region(poly, normal, offset):
    """Sutherland-Hodgman clip of a closed polygon by <normal, x> <= offset."""
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        da = normal @ a - offset
        db = normal @ b - offset
        if da <= EPS:
            out.append(a)
        if (da < -EPS and db > EPS) or (da > EPS and db < -EPS):
            t = da / (da - db)
            out.append(a + t * (b - a))
    return out


def combine_2d(K1, K2, mode, p=2.0, lam=0.5, directions=512):
    """Planar-only closure operations: convex hull, intersection, and the
    power mean h = (lam*h1^p + (1-lam)*h2^p)^(1/p) materialized as a
    supporting-line envelope."""
    if K1.d != 2 or K2.d != 2:
        raise ValueError("planar combination requires d = 2")
    P1, P2 = _polygon_of(K1, directions), _polygon_of(K2, directions)
    if mode == "hull":
        return as_dependency(
            zonoid_from_polygon(_ne_chain(np.vstack([P1.vertices, P2.vertices])))
        )
    if mode == "intersection":
        poly = [np.zeros(2)] + list(P1.vertices)
        verts = P2.vertices
        for i in range(len(verts) - 1):
            a, b = verts[i], verts[i + 1]
            normal = np.array([b[1] - a[1], a[0] - b[0]])  # outward for ACW chain
            poly = _clip_chain_region(poly, normal, float(normal @ a))
            if not poly:
                raise ValueError("empty intersection")
        return as_dependency(zonoid_from_polygon(_ne_chain(np.array(poly))))
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
    """The polar set {x in E : h(K, x) <= 1} as a planar chain; exact for
    atom lists, radially sampled for analytic norms."""
    if K.d != 2:
        raise ValueError("polar materialization requires d = 2")
    if K.norm is not None:
        U = _quarter_circle(directions)
        return _ne_chain(U / _support_finite(K, U)[:, None])
    V = _polygon_of(K).vertices
    return _envelope_polygon(V, np.ones(len(V)))


@dataclass(frozen=True)
class Estimate:
    """A scalar result with its standard error (0 for exact methods), the
    method that produced it and, for Monte Carlo, the draws and seed (for
    quadrature, the node count)."""

    value: float
    stderr: float
    method: str
    n_samples: int | None = None
    seed: int | None = None

    def __float__(self):
        return self.value

    def affine(self, a, b):
        """The estimate a * value + b, by the same method."""
        return replace(self, value=a * self.value + b, stderr=abs(a) * self.stderr)


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

    quadrature (2 <= d <= 3; "exact_2d" is its planar-only spelling): the
    exact shoelace area of the polar chain for a planar atom list, whose
    kinks the graded rule's error estimate can miss; otherwise
    _simplex_quadrature, whose error |Q_64 - Q_128| is pessimistic for
    analytic norms, and O(N^-2) in the N x N rule on the kinks of a d = 3
    atom list.  mc: rejection sampling on the bounding box
    prod [0, 1/h(e_i)] with a binomial standard error taken at
    p = (accepted + 1)/(n + 2): of order box_vol/n even if p^ is 0 or 1.
    auto: quadrature for d <= 3, else mc.
    """
    if method == "auto":
        method = "quadrature" if K.d in (2, 3) else "mc"
    if method == "exact_2d":
        if K.d != 2:
            raise ValueError("exact polar area requires d = 2")
        method = "quadrature"
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    extents = K.marginals()
    if np.any(extents <= EPS):
        raise ValueError("degenerate body: polar set is unbounded")
    if method == "quadrature":
        if K.d == 2 and K.spectral is not None:
            return Estimate(polar_2d(K).area_with_origin(), 0.0, "exact_2d")
        return _simplex_quadrature(lambda T: _support_finite(K, T) ** -K.d / K.d, K.d)
    if n < 1:
        raise ValueError("Monte Carlo needs at least one sample")
    box = 1.0 / extents
    box_vol = float(np.prod(box))
    accepted = 0
    for chunk_lo, chunk_n, rng in _mc_chunks(n, seed):
        X = rng.random((chunk_n, K.d)) * box
        accepted += int((_support_finite(K, X) <= 1.0).sum())
    p_tilde = (accepted + 1) / (n + 2)
    se = box_vol * math.sqrt(p_tilde * (1.0 - p_tilde) / n)
    return Estimate(box_vol * accepted / n, se, "mc", n, seed)


def _mc_chunks(n, seed, chunk=65536):
    """Deterministic chunked RNG streams: one spawned child per chunk index."""
    n_chunks = (n + chunk - 1) // chunk
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for idx in range(n_chunks):
        lo = idx * chunk
        yield lo, min(chunk, n - lo), np.random.default_rng(children[idx])


def exp_support_integral_mc(K, n=200_000, seed=0, beta=0.5):
    """Importance-sampled integral of exp(-h(K, x)) over the orthant,
    with proposal Exp(beta)^d; finite variance for any beta in (0, 1)
    because h dominates the maximum coordinate, infinite for beta >= 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("the proposal rate beta must lie in (0, 1)")
    if n < 1:
        raise ValueError("Monte Carlo needs at least one sample")
    d = K.d
    total = 0.0
    total_sq = 0.0
    for _, chunk_n, rng in _mc_chunks(n, seed):
        X = rng.exponential(1.0 / beta, size=(chunk_n, d))
        w = beta**-d * np.exp(beta * X.sum(axis=1) - _support_finite(K, X))
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _corner_directions(d):
    """All 0/1 indicator directions (2^d - 1 of them) for small d."""
    if d > 12:
        return np.eye(d)
    corners = ((np.arange(1, 2**d)[:, None] >> np.arange(d)) & 1).astype(float)
    return corners


def _distance_grid(d, grid_n):
    """Orthant directions for the distances: grid_n + 1 of the quarter
    circle in d = 2, else the simplex lattice of at most grid_n points
    (default sizes 4096 and 20,000)."""
    if grid_n is None:
        grid_n = 4096 if d == 2 else 20_000
    if grid_n < 1:
        raise ValueError("direction grid needs at least one direction")
    return _quarter_circle(grid_n) if d == 2 else _simplex_lattice(d, grid_n)


def hausdorff_distance(K1, K2, grid_n=None):
    """Grid-limited Hausdorff distance: max over unit directions u of
    |h(K1, u) - h(K2, u)|.  Both bodies contain the origin and are
    coordinatewise comprehensive, so h(u) = h(u_+) with |u_+| <= 1: the
    sup over the sphere is the sup over unit orthant directions.  Those
    are the quarter circle in d = 2 and the simplex lattice scaled to
    unit length otherwise; the value is a lower bound that can only rise
    under nested refinement (doubling grid_n in d = 2, a lattice whose
    resolution is a multiple of the old one in d >= 3)."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    U = _distance_grid(K1.d, grid_n)
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    return float(np.abs(_support_finite(K1, U) - _support_finite(K2, U)).max())


def m_distance(K1, K2, grid_n=None, lam_tol=1e-6, passes=4):
    """Multiplicative (Banach-Mazur style) distance between dependency
    sets: log inf prod(lam_i) over lam with K1 in lam*K2 and K2 in
    lam*K1.  Containment is tested by support dominance on a direction
    grid only.  That is a relaxation: a lam that passes on the grid can
    fail between grid directions, so the value can fall *below* the true
    distance, by up to about the grid spacing times the Lipschitz
    constant of the supports (cube vs cross polytope: 1.385911 against
    log 4 in d = 2, 3.2660 against 3 log 3 in d = 3).  The grid is the
    quarter circle in d = 2, else the simplex lattice, plus the 0/1
    corner directions.  The product is minimized by coordinate descent
    with binary search, which can stop slightly above the grid optimum."""
    if K1.d != K2.d:
        raise ValueError("bodies must share a dimension")
    d = K1.d
    for K in (K1, K2):
        if np.abs(K.marginals() - 1.0).max() > 1e-6:
            raise ValueError("m-distance is defined for dependency sets")
    U = np.vstack([_distance_grid(d, grid_n), _corner_directions(d)])
    h1 = _support_finite(K1, U)
    h2 = _support_finite(K2, U)

    def feasible(lam):
        Ul = np.ascontiguousarray(U * lam)
        if np.any(_support_finite(K2, Ul) < h1 * (1.0 - 1e-12) - 1e-12):
            return False
        return not np.any(_support_finite(K1, Ul) < h2 * (1.0 - 1e-12) - 1e-12)

    ones = np.ones(d)
    if feasible(ones):
        return 0.0
    lam = np.full(d, float(d))
    for _ in range(60):
        if feasible(lam):
            break
        lam *= 2.0
    else:
        raise ValueError("could not find a feasible starting scale")
    for _ in range(passes):
        for i in range(d):
            lo, hi = 1e-9, lam[i]
            while hi - lo > lam_tol:
                mid = 0.5 * (lo + hi)
                trial = lam.copy()
                trial[i] = mid
                if feasible(trial):
                    hi = mid
                else:
                    lo = mid
            lam[i] = hi
    return float(np.log(np.prod(lam)))
