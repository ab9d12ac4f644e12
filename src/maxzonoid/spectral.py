"""Discrete spectral measures on a reference sphere.

A measure is a finite list of weighted atoms on the unit sphere of a
reference norm (l1 simplex by default) restricted to the nonnegative
orthant.  Measures are the canonical representation of max-zonoids:
every finite atom list induces a valid body, and every implemented
body operation maps atom lists to atom lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import planar_chain

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


def reference_norm_of(points, reference):
    """Row-wise reference norm of nonnegative points, shape (m,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if reference == "l1":
        return pts.sum(axis=1)
    if reference == "l2":
        return np.sqrt((pts * pts).sum(axis=1))
    if reference == "linf":
        return pts.max(axis=1)
    raise ValueError(f"unknown reference norm {reference!r}")


class _ByKey:
    """Equality and hash by self._key(), for frozen dataclasses declared
    with eq=False that hold arrays."""

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class DiscreteSpectralMeasure(_ByKey):
    """Weighted atoms on the reference sphere in the nonnegative orthant.

    atoms : (m, d) array, each row with unit reference norm
    masses : (m,) positive array
    reference : one of "l1", "l2", "linf"
    """

    atoms: np.ndarray
    masses: np.ndarray
    reference: str = "l1"

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if atoms.ndim != 2 or atoms.shape[0] != masses.shape[0]:
            raise ValueError("atoms must be (m, d) with one mass per atom")
        if atoms.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if not (np.isfinite(atoms).all() and np.isfinite(masses).all()):
            raise ValueError("atoms and masses must be finite")
        if self.reference not in REFERENCE_NORMS:
            raise ValueError(f"unknown reference norm {self.reference!r}")
        if np.any(atoms < -ATOM_TOL):
            raise ValueError("atoms must lie in the nonnegative orthant")
        if np.any(masses <= 0):
            raise ValueError("masses must be positive")
        norms = reference_norm_of(atoms, self.reference)
        if np.any(np.abs(norms - 1.0) > 1e-7):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(
                f"atoms must lie on the {self.reference} sphere (max |norm-1| = {worst:.3g})"
            )
        atoms = np.clip(atoms, 0.0, None) / norms[:, None]
        atoms.setflags(write=False)
        masses = masses.copy()
        masses.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    def _key(self):  # bytes agree as np.array_equal does: finite, and -0.0 + 0.0 is 0.0
        return self.reference, self.atoms.shape, (self.atoms + 0.0).tobytes(), self.masses.tobytes()

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


@dataclass(frozen=True)
class DependencyReport:
    is_dependency: bool
    marginal_sums: np.ndarray
    total_mass: float


def make_measure(points, masses, reference="l1"):
    """Build a measure, merging atoms closer than ATOM_TOL on the sphere.

    The atoms are sorted lexicographically by their 9-decimal keys
    (_point_keys), so moving atoms by ulps reorders them only across a
    rounding boundary; atoms of one key, by their coordinates, so such a
    group starts at its least member whatever the input order; equal
    atoms stay in input order.  A row joins the group of the row before
    it when no coordinate differs from that row by more than ATOM_TOL; a
    group's mass is the sum of its masses in sorted order.  Grouping
    chains through neighbours, so a group of k rows spans at most
    (k - 1) * ATOM_TOL.  Near-duplicates that the sort puts apart stay
    separate atoms, which can happen in d >= 3 and at the corner (1, 1)
    of the l-infinity circle.  Atoms of zero mass are dropped; a negative
    mass raises ValueError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    w = np.atleast_1d(np.asarray(masses, dtype=float)).copy()
    if not (np.isfinite(pts).all() and np.isfinite(w).all()):
        raise ValueError("atoms and masses must be finite")
    if np.any(w < 0):
        raise ValueError(f"masses must be nonnegative, got {w.min():.6g}")
    keep = w > 0
    pts, w = pts[keep], w[keep]
    if pts.shape[0] == 0:
        raise ValueError("measure needs at least one atom with positive mass")
    norms = reference_norm_of(pts, reference)
    pts = pts / norms[:, None]
    if pts.shape[0] > 1:
        order = np.lexsort(np.vstack([_point_keys(pts).T, pts.T])[::-1])
        pts, w = pts[order], w[order]
        start = np.ones(pts.shape[0], dtype=bool)
        start[1:] = np.abs(np.diff(pts, axis=0)).max(axis=1) > ATOM_TOL
        # bincount adds the weights of a group one after another, as a
        # loop would; np.add.reduceat pairs them and rounds differently
        pts, w = pts[start], np.bincount(np.cumsum(start) - 1, weights=w)
    return DiscreteSpectralMeasure(pts, w, reference)


def spectral_from_points(points, weights=None, reference="l1"):
    """Measure induced by weighted points anywhere in the orthant.

    Each point z of weight w becomes the atom z/|z| with mass w*|z|;
    zero points are dropped.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        weights = np.ones(pts.shape[0])
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(pts < -ATOM_TOL):
        raise ValueError("points must be nonnegative")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    norms = reference_norm_of(pts, reference)
    keep = norms > ATOM_TOL
    if not keep.any():
        raise ValueError("all points are zero")
    return make_measure(pts[keep], w[keep] * norms[keep], reference)


def rebase_reference(sigma, new_reference):
    """Re-express atoms on another reference sphere; the induced body
    (and its support function) is unchanged."""
    if new_reference == sigma.reference:
        return sigma
    norms = reference_norm_of(sigma.atoms, new_reference)
    return DiscreteSpectralMeasure(
        sigma.atoms / norms[:, None], sigma.masses * norms, new_reference
    )


def validate_dependency(sigma):
    """Check the marginal normalization sum_k mass_k*atom_{k,i} = 1."""
    marg = sigma.marginal_sums()
    return DependencyReport(_close_to_normalized(marg), marg, sigma.total_mass)


def spectral_from_polygon_2d(polygon, reference="l1"):
    """Edge measure of a planar chain polygon.

    Consecutive chain vertices a, b contribute the atom u/|u| with mass
    |u| where u = (a_1 - b_1, b_2 - a_2).  With the l2 reference this is
    the length measure of the reflected body restricted to the positive
    quadrant.
    """
    verts = polygon.vertices
    a, b = verts[:-1], verts[1:]
    u = np.column_stack([a[:, 0] - b[:, 0], b[:, 1] - a[:, 1]])
    if np.any(u < -ATOM_TOL):
        raise ValueError("polygon chain is not anticlockwise monotone")
    return spectral_from_points(np.clip(u, 0.0, None), reference=reference)
