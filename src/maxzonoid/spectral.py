"""Discrete spectral measures on the l1 simplex.

A measure is a finite list of weighted atoms on the l1 simplex in the
nonnegative orthant; h reads only mass * atom, so one sphere gives each
body one atom list.  Measures are the canonical representation of
max-zonoids: every finite atom list induces a valid body, and every
implemented body operation maps atom lists to atom lists.
"""

import numbers
from collections import namedtuple
from functools import cached_property

import numpy as np

from ._kernels import _fold, planar_chain

ATOM_TOL = 1e-9
DEP_TOL = 1e-6

REFERENCE_NORMS = ("l1", "l2", "linf")


def _normalized(marginals):
    """Every h(K, e_i) is 1 within 1e-9, as in a dependency set; NaN fails."""
    return bool((np.abs(marginals - 1.0) <= 1e-9).all())


def _close_to_normalized(marginals):
    """Every h(K, e_i) is 1 within DEP_TOL, close enough to use as one; NaN fails."""
    return bool((np.abs(marginals - 1.0) <= DEP_TOL).all())


def _nondegenerate(marginals):
    """Every h(K, e_i) exceeds 1e-9, so the body has extent; NaN fails."""
    return bool((marginals > 1e-9).all())


def _point_keys(P):
    """Points' identities: coordinates rounded to 9 decimals, -0.0 as the
    0.0 it equals.  Rounding is monotone, so it commutes with max."""
    return np.round(P, 9) + 0.0


def _row_sum(P):
    """P.sum(axis=1) bit for bit, by columns below 8 terms a row, which numpy
    adds in order from +0.0 (longer rows pairwise)."""
    return _fold(np.add, [0.0, *P.T]) if P.shape[1] < 8 else P.sum(axis=1)


def reference_norm_of(pts, reference):
    """Row-wise reference norm of (m, d) nonnegative float points, shape (m,),
    in whole columns; ValueError where it overflows on finite points."""
    if reference not in REFERENCE_NORMS:
        raise ValueError(f"unknown reference norm {reference!r}")
    with np.errstate(over="ignore"):  # named below
        if reference == "linf":
            norms = _fold(np.maximum, pts.T)
        else:
            norms = _row_sum(pts) if reference == "l1" else np.sqrt(_row_sum(pts * pts))
    if not (norms < np.inf).all() and np.isfinite(pts).all():  # its row would read as an atom 0
        raise ValueError(f"the {reference} norm of some point overflows")
    return norms


def _from_reference(points, masses, reference):
    """make_measure of atoms on a reference norm's sphere, each mass times
    |atom|_1 / |atom|_reference.  A point whose coordinate sum is not
    positive and finite keeps its mass, for make_measure to judge."""
    pts = _point_rows(points, "atom points")
    w = _mass_list(masses, len(pts), "atom masses")
    if reference != "l1":
        l1 = _row_sum(pts)
        np.divide(w * l1, reference_norm_of(pts, reference), out=w, where=(l1 > 0) & (l1 < np.inf))
    return make_measure(pts, w)


def _is_real(v):
    """Whether v is a real number, the rule of every real argument: a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _real_array(values, what, copy=True):
    """values as a float array, else ValueError naming what: a new C-ordered
    one, or with copy False values itself when it is one.  An integer or
    float array is read as it is; anything else entry by entry, each a real
    number (_is_real), as np.asarray would read [True, 0.5] and ["1", 0] as
    numbers.  An integer beyond the float range is refused."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for v in np.array(values, dtype=object).flat:
            if not _is_real(v):
                raise ValueError(f"{what} must hold real numbers, got {v!r}")
    try:
        return np.array(values, dtype=float, order="C") if copy else np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} must hold real numbers within the float range, not an integer beyond it") from None


def _point_rows(points, what="points"):
    """points as a new C-ordered (n, d) float array (_real_array), n and d at least 1, else ValueError."""
    pts = np.atleast_2d(_real_array(points, what))
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError(f"{what} must form an (n, d) array with n, d >= 1, not one of shape {pts.shape}")
    return pts


def _mass_list(masses, n, what="masses"):
    """masses as a new (n,) float array (_real_array), one per point, else ValueError."""
    w = np.atleast_1d(_real_array(masses, what))
    if w.shape != (n,):
        raise ValueError(f"need one mass per point: {n} points, masses of shape {w.shape}")
    return w


class _ByKey:
    """An immutable value, the one base of the checked values and bodies.

    __init__ checks its arguments and sets each field once, in the order
    of _fields, through _set; the repr lists those fields.  Equality and
    hash go by self._key(), the fields unless a class keys its arrays by
    their bytes, and hold only within one type.  Fields live in the
    instance __dict__, so cached_property, vars, copy and pickle work;
    setting or deleting an attribute raises AttributeError.  copy and
    pickle restore through __setstate__, which keeps the fields only, so
    a cached array is built again, and marks every array read-only."""

    _fields = ()

    def _set(self, *values):
        vars(self).update(zip(self._fields, values, strict=True))

    def __setstate__(self, state):
        values = [state[name] for name in self._fields]
        for value in values:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self._set(*values)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class DiscreteSpectralMeasure(_ByKey):
    """Weighted atoms on the l1 simplex in the nonnegative orthant.

    atoms : (m, d) array, each row summing to 1
    masses : (m,) positive array
    """

    _fields = ("atoms", "masses")

    def __init__(self, atoms, masses):
        atoms = _point_rows(atoms)
        masses = _mass_list(masses, len(atoms))
        if not (np.isfinite(atoms).all() and np.isfinite(masses).all()):
            raise ValueError("atoms and masses must be finite")
        if np.any(atoms < -ATOM_TOL):
            raise ValueError("atoms must lie in the nonnegative orthant")
        if np.any(masses <= 0):
            raise ValueError("masses must be positive")
        norms = _row_sum(atoms)
        if np.any(np.abs(norms - 1.0) > 1e-7):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(f"atoms must lie on the l1 sphere (max |norm-1| = {worst:.3g})")
        atoms = np.clip(atoms, 0.0, None) / norms[:, None]
        atoms.setflags(write=False)
        masses.setflags(write=False)
        self._set(atoms, masses)

    def _key(self):  # bytes agree as np.array_equal does: finite, and -0.0 + 0.0 is 0.0
        return self.atoms.shape, (self.atoms + 0.0).tobytes(), self.masses.tobytes()

    @property
    def d(self):
        return self.atoms.shape[1]

    @property
    def n_atoms(self):
        return self.atoms.shape[0]

    @property
    def total_mass(self):
        return float(self.masses.sum())

    @cached_property
    def scaled_atoms(self):
        """atoms * masses, the only array the support kernels need."""
        arr = self.atoms * self.masses[:, None]
        arr.setflags(write=False)
        return arr

    @cached_property
    def chain(self):  # of a planar measure, built once; read by h, the polygon and tau
        return planar_chain(self.scaled_atoms)

    @cached_property
    def extent(self):
        """Coordinates where the body has positive extent: some scaled atom exceeds ATOM_TOL."""
        arr = (self.scaled_atoms > ATOM_TOL).any(axis=0)
        arr.setflags(write=False)
        return arr

    def marginal_sums(self):
        """sum_k mass_k * atom_{k,i} for each coordinate i."""
        return self.scaled_atoms.sum(axis=0)


DependencyReport = namedtuple("DependencyReport", "is_dependency marginal_sums total_mass")


def make_measure(points, masses):
    """Build a measure, points scaled onto the l1 simplex, merging atoms closer than ATOM_TOL.

    The atoms are sorted lexicographically by their 9-decimal keys
    (_point_keys), so moving atoms by ulps reorders them only across a
    rounding boundary; atoms of one key, by their coordinates, so such a
    group starts at its least member whatever the input order; equal
    atoms stay in input order.  A row joins the group of the row before
    it when no coordinate differs from that row by more than ATOM_TOL; a
    group's mass is the sum of its masses in sorted order.  Grouping
    chains through neighbours, so a group of k rows spans at most
    (k - 1) * ATOM_TOL.  Near-duplicates that the sort puts apart stay
    separate atoms, which can happen in d >= 3.  Atoms of zero mass are
    dropped; a negative mass or a bad shape (_point_rows) raises ValueError."""
    pts = _point_rows(points)
    w = _mass_list(masses, len(pts))
    if not (np.isfinite(pts).all() and np.isfinite(w).all()):
        raise ValueError("atoms and masses must be finite")
    if np.any(w < 0):
        raise ValueError(f"masses must be nonnegative, got {w.min():.6g}")
    keep = w > 0
    pts, w = pts[keep], w[keep]
    if pts.shape[0] == 0:
        raise ValueError("measure needs at least one atom with positive mass")
    norms = _row_sum(pts)
    if not (norms > 0).all():  # a zero point has no atom; its NaN row would join a group
        raise ValueError("a point of positive mass needs a positive coordinate sum")
    return DiscreteSpectralMeasure(*_merged(pts / norms[:, None], w))


def _merged(pts, w):
    """Rows pts of weights w merged as make_measure merges atoms: a group is its first row, of summed weight."""
    if pts.shape[0] > 1:
        order = np.lexsort(np.vstack([_point_keys(pts).T, pts.T])[::-1])
        pts, w = pts[order], w[order]
        start = np.ones(pts.shape[0], dtype=bool)
        start[1:] = _fold(np.maximum, np.abs(np.diff(pts, axis=0)).T) > ATOM_TOL
        # bincount adds the weights of a group one after another, as a
        # loop would; np.add.reduceat pairs them and rounds differently
        pts, w = pts[start], np.bincount(np.cumsum(start) - 1, weights=w)
    return pts, w


def spectral_from_points(points, weights=None):
    """Measure induced by weighted points anywhere in the orthant.

    Each point z of weight w becomes the atom z/|z|_1 with mass w*|z|_1;
    zero points are dropped.
    """
    pts = _point_rows(points)
    w = np.ones(len(pts)) if weights is None else _mass_list(weights, len(pts), "weights")
    if np.any(pts < -ATOM_TOL):
        raise ValueError("points must be nonnegative")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    norms = _row_sum(pts)
    keep = norms > ATOM_TOL
    if not keep.any():
        raise ValueError("all points are zero")
    return make_measure(pts[keep], w[keep] * norms[keep])


def validate_dependency(sigma):
    """Check the marginal normalization sum_k mass_k*atom_{k,i} = 1."""
    marg = sigma.marginal_sums()
    return DependencyReport(_close_to_normalized(marg), marg, sigma.total_mass)


def spectral_from_polygon_2d(polygon):
    """Edge measure of a planar chain polygon.

    Consecutive chain vertices a, b contribute the atom u/|u|_1 with mass
    |u|_1 where u = (a_1 - b_1, b_2 - a_2).  Stated on the l2 circle, as
    u/|u|_2 with mass |u|_2, this is the length measure of the reflected
    body restricted to the positive quadrant.
    """
    verts = polygon.vertices
    a, b = verts[:-1], verts[1:]
    u = np.column_stack([a[:, 0] - b[:, 0], b[:, 1] - a[:, 1]])
    if np.any(u < -ATOM_TOL):
        raise ValueError("polygon chain is not anticlockwise monotone")
    return spectral_from_points(np.clip(u, 0.0, None))
