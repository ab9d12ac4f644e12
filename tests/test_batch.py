"""A batch of points is evaluated in whole columns: one kernel call, no row
masks.  These tests hold the batch to the row-by-row values bit for bit, and
the column form of the l_p norm to its row-masked definition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxzonoid import (
    MaxStableModel,
    cdf,
    copula,
    make_family,
    pickands,
    support_function,
    zonoid_from_spectral,
)
from maxzonoid import geometry
from maxzonoid.distribution import max_stability_check
from maxzonoid.families import _lp_norm_rows, _logistic_norm
from maxzonoid.geometry import MaxZonoid
from maxzonoid.spectral import ATOM_TOL, DiscreteSpectralMeasure

# zeros, +inf, subnormals, the smallest normal and ordinary values
_ENTRY = st.sampled_from(
    [0.0, np.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-3, 0.7, 1.0, 3.0, 1e300]
)
# atom coordinates before normalization: at, below and above ATOM_TOL
_ATOM = st.sampled_from([0.0, 1e-12, 5e-10, ATOM_TOL, 2e-9, 0.3, 1.0, 2.5])


def _rows(d):
    return st.lists(st.lists(_ENTRY, min_size=d, max_size=d), min_size=1, max_size=40).map(
        lambda r: np.array(r, dtype=float)
    )


@st.composite
def _atom_lists(draw, d):
    """Atom lists of at most 12 atoms (so the dense path, whatever the batch),
    some coordinates at or below ATOM_TOL, and perhaps one with no extent."""
    m = draw(st.integers(1, 12))
    raw = np.array(draw(st.lists(st.lists(_ATOM, min_size=d, max_size=d), min_size=m, max_size=m)))
    dead = draw(st.sampled_from([None, *range(d)]))
    if dead is not None:
        raw[:, dead] = np.minimum(raw[:, dead], 1e-12)
    raw[raw.sum(axis=1) < 0.1, 0 if dead == d - 1 else d - 1] = 1.0  # every atom off the origin
    masses = draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 4.0]), min_size=m, max_size=m))
    sigma = DiscreteSpectralMeasure(raw / raw.sum(axis=1, keepdims=True), np.array(masses))
    return zonoid_from_spectral(sigma)


def _norm_bodies():
    bodies = [
        MaxZonoid(d=d, norm=_logistic_norm(d, p)) for d in (2, 3, 4) for p in (1.5, 3.0, np.inf)
    ]
    bodies += [
        make_family("neg_logistic", 2, lam=0.6, p=-1.5),
        make_family("neg_logistic", 2, lam=1.0, p=-np.inf),
        make_family("husler_reiss", 2, lam=0.4),
        make_family("husler_reiss", 2, lam=2.0),
    ]
    return bodies


def _bits_by_row(K, X):
    return np.array([support_function(K, x) for x in X]).tobytes()


class TestRowIndependence:
    """A batch's values equal the single-point values of its rows, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("d", [2, 3])
    def test_atom_lists(self, d, data):
        K = data.draw(_atom_lists(d))
        X = data.draw(_rows(d))
        assert support_function(K, X).tobytes() == _bits_by_row(K, X)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize(
        "K", _norm_bodies(), ids=lambda K: f"{K.norm.name}{K.d}{K.norm.params}"
    )
    def test_analytic_norms(self, K, data):
        X = data.draw(_rows(K.d))
        assert support_function(K, X).tobytes() == _bits_by_row(K, X)


def _lp_norm_rows_masked(X, p):
    """The row-masked definition that the column form replaces."""
    M = X.max(axis=1)
    out = np.zeros(X.shape[0])
    pos = M > 0
    if np.isinf(p):
        return M if p > 0 else X.min(axis=1)
    R = X[pos] / M[pos, None]
    if p < 0:
        zero = (X[pos] <= 0).any(axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            vals = M[pos] * (np.where(R > 0, R, 1.0) ** p).sum(axis=1) ** (1.0 / p)
        vals[zero] = 0.0
        out[pos] = vals
    else:
        out[pos] = M[pos] * (R**p).sum(axis=1) ** (1.0 / p)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("p", [1.5, 3.0, 40.0, -1.5, -40.0, np.inf, -np.inf])
def test_lp_norm_rows_matches_masked_definition(d, p):
    rng = np.random.default_rng(d)
    X = np.exp(rng.uniform(-40.0, 40.0, (2000, d)))
    pick = rng.random((2000, d))
    X[pick < 0.15] = 0.0
    X[(pick >= 0.15) & (pick < 0.2)] = -0.0
    X[(pick >= 0.2) & (pick < 0.25)] = 1e-310
    X[:50] = 0.0  # all-zero rows
    assert _lp_norm_rows(X, p).tobytes() == _lp_norm_rows_masked(X, p).tobytes()


@pytest.mark.parametrize(
    "K",
    [make_family("logistic", 2, p=2.0), make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.6)],
)
def test_a_batch_is_one_kernel_call(K, monkeypatch):
    sizes = []
    kernel = geometry._support_finite
    monkeypatch.setattr(
        geometry, "_support_finite", lambda body, X: sizes.append(len(X)) or kernel(body, X)
    )
    h = support_function(K, [[1.0, np.inf], [0.0, 1.0], [2.0, 3.0], [np.inf, 0.0]])
    assert sizes == [4]
    assert h[0] == h[3] == np.inf and h[1] == 1.0


def test_extent_is_a_read_only_cached_property():
    atoms = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    sigma = DiscreteSpectralMeasure(atoms, np.array([1.0, 1e-9]))
    assert sigma.extent is sigma.extent
    np.testing.assert_array_equal(sigma.extent, [True, False, False])  # 5e-10 is below ATOM_TOL
    with pytest.raises(ValueError):
        sigma.extent[1] = True
    # an +inf where the body has no extent counts as 0
    K = zonoid_from_spectral(sigma)
    assert support_function(K, [2.0, np.inf, np.inf]) == support_function(K, [2.0, 0.0, 0.0]) > 2.0


@pytest.mark.parametrize("call, d", [(cdf, 2), (copula, 2), (support_function, 2), (pickands, 3)])
def test_arrays_above_two_dimensions_are_rejected(call, d):
    model = MaxStableModel(make_family("logistic", d, p=2.0))
    with pytest.raises(ValueError, match=rf"shape \(n, {d if call is not pickands else d - 1}\)"):
        call(model, np.full((2, 2, 2), 0.25))


def test_a_subnormal_coordinate_raises_no_overflow_warning():
    """1 / 1e-310 overflows to +inf, the right reciprocal: F is 0 there."""
    model = MaxStableModel(make_family("logistic", 2, p=2.0))
    assert cdf(model, [1e-310, 1.0]) == 0.0
    assert max_stability_check(model, grid=[[1e-310, 1.0], [1.0, 2.0]]) <= 1e-15
    # x1 / x2 overflows inside the Husler-Reiss norm; the limit is x1
    assert support_function(make_family("husler_reiss", 2, lam=1.0), [100.0, 5e-320]) == 100.0
