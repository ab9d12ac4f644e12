import numpy as np
import pytest

from maxzonoid import (
    MaxStableModel,
    check_alternation,
    normalize_dependency,
    spectral_from_points,
    zonoid_from_spectral,
)
from maxzonoid.alternation import _theta_array, subset_indicator_lattice
from maxzonoid.geometry import _ne_chain


def random_dependency(rng, d=2, m=5):
    """Random discrete dependency set: positive atoms, normalized."""
    pts = rng.random((m, d)) * 0.9 + 0.1
    w = rng.random(m) + 0.2
    return normalize_dependency(zonoid_from_spectral(spectral_from_points(pts, w)))


def random_model(rng, d=2, m=5):
    return MaxStableModel(random_dependency(rng, d, m))


def theta_alternation_check(table, max_order=None):
    """Direct successive-difference check of A -> theta_A on the subset
    lattice, the reference check_extremal_consistency agrees with."""
    theta = _theta_array(table)
    pts = subset_indicator_lattice(table.d, include_origin=True)
    # row m of the lattice indicates the subset of mask m, so f is theta on every row
    return check_alternation(lambda X: theta, pts, max_order=max_order or table.d)


def random_dependency_polygon(rng, k=6):
    """Random planar dependency polygon containing e1 and e2."""
    pts = np.vstack([rng.random((k, 2)), [1.0, 0.0], [0.0, 1.0]])
    return _ne_chain(pts)


def polygon_support(poly, X):
    """h of conv({0} | chain) at the rows of X, by its definition: the
    largest product with a vertex, at least 0."""
    return np.maximum((X[:, None, :] * poly.vertices[None]).sum(axis=2).max(axis=1), 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
