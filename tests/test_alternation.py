import ast
import os
import subprocess
import sys

import numpy as np
import pytest

from maxzonoid import (
    ExtremalTable,
    FiniteMaxLattice,
    MaxStableModel,
    chi,
    check_alternation,
    check_extremal_consistency,
    construct_from_extremal,
    extremal_coefficient,
    extremal_table,
    make_family,
    make_measure,
    max_closure,
    simulate,
    support_function,
    unit_cross_polytope,
    unit_cube,
)
from maxzonoid.alternation import _max_table, subset_indicator_lattice
from maxzonoid.geometry import _corner_directions
from maxzonoid.spectral import _point_keys

from conftest import random_model, theta_alternation_check


def counterexample_support(X):
    """Support of conv{0, e1, e2, e3, (2/3, 2/3, 2/3)}: a planar-looking
    body that is not a max-zonoid."""
    return np.maximum(X.max(axis=1), (2.0 / 3.0) * X.sum(axis=1))


def _max_table_by_dict(pts):
    """The index table as a dict of rounded keys builds it, the last point
    with a key winning."""
    n = len(pts)
    keys = {tuple(np.round(p, 9)): i for i, p in enumerate(pts)}
    table = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            table[i, j] = table[j, i] = keys[tuple(np.round(np.maximum(pts[i], pts[j]), 9))]
    return table


def _max_closure_by_loop(points):
    """The closure as a loop over pairs builds it, a set of key tuples
    deciding what is new; a reference for rows and their order."""
    pts = [np.asarray(p, dtype=float) for p in np.atleast_2d(points)]
    seen = {tuple(_point_keys(p)) for p in pts}
    frontier = list(pts)
    while frontier:
        new = []
        for q in frontier:
            for p in pts:
                m = np.maximum(p, q)
                key = tuple(_point_keys(m))
                if key not in seen:
                    seen.add(key)
                    new.append(m)
        pts.extend(new)
        frontier = new
    return np.array(pts)


def _construct_by_loop(table):
    """construct_from_extremal's atoms and masses as a loop over the
    weights builds them; a reference."""
    d, points, masses = table.d, [], []
    for B, cB in check_extremal_consistency(table).weights.items():
        if cB > 1e-12:
            e = np.zeros(d)
            e[list(B)] = 1.0 / len(B)
            points.append(e)
            masses.append(cB * len(B))
    return make_measure(points, masses)


class TestLattice:
    def test_closure(self):
        pts = max_closure([[1.0, 0.0], [0.0, 1.0]])
        assert len(pts) == 3

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="closed"):
            FiniteMaxLattice(np.array([[1.0, 0.0], [0.0, 1.0]]))
        FiniteMaxLattice(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_max_table_is_the_dict_construction(self):
        gen = np.random.default_rng(21)
        for _ in range(5):
            pts = np.round(gen.random((6, 3)) * 4.0) / 4.0  # ties in every coordinate
            pts = np.vstack([pts, pts[:2], pts[2] + 1e-11])  # repeats, one within the rounding
            closed = max_closure(pts)
            np.testing.assert_array_equal(_max_table(closed), _max_table_by_dict(closed))
            lat = FiniteMaxLattice(closed)
            assert set(vars(lat)) == {"points", "values"}  # no table kept

    def test_max_table_on_a_large_planar_lattice(self):
        # 359 points, the max-closure of 40 random points on a 0.01 grid
        closed = max_closure(np.round(np.random.default_rng(0).random((40, 2)), 2))
        assert len(closed) == 359
        np.testing.assert_array_equal(_max_table(closed), _max_table_by_dict(closed))

    def test_max_table_keys_signed_zero_and_nan(self):
        pts = np.array([[0.0, 1.0], [-0.0, 0.5], [1.0, 0.5], [1.0, 1.0], [0.0, 0.5]])
        np.testing.assert_array_equal(_max_table(pts), _max_table_by_dict(pts))
        with pytest.raises(ValueError, match="not closed"):
            _max_table(np.array([[0.0, 1.0], [np.nan, 1.0]]))

    def test_closure_is_the_loop(self):
        # rows and their order: the input as given, then each level's new
        # maxima in (frontier point, point) order, signed zeros as max(p, q) gives them
        gen = np.random.default_rng(8)
        cases = [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.5], [0.5, 1.0]],
            [[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)],
            [[0.0, 1.0], [-0.0, 0.5], [1.0, 0.5], [1.0, 1.0], [0.0, 0.5], [-0.0, -0.0]],
            np.round(np.random.default_rng(0).random((40, 2)), 2),
            [2.0, 1.0],
        ]
        for k in range(40):
            n, d = int(gen.integers(1, 9)), int(gen.integers(1, 5))
            pts = np.round(gen.random((n, d)) * 3.0) / 3.0 * (1.0 - 2.0 * (gen.random((n, d)) < 0.2))
            if k % 4 == 0:
                pts = np.vstack([pts, pts[:2], pts[:1] + 1e-11])  # repeats, one within the rounding
            cases.append(pts)
        for pts in cases:
            got, want = max_closure(pts), _max_closure_by_loop(pts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_closure_size_guard_is_exact(self):
        pts = np.round(np.random.default_rng(0).random((40, 2)), 2)
        assert len(max_closure(pts, max_size=359)) == 359
        with pytest.raises(ValueError, match="size guard"):
            max_closure(pts, max_size=358)
        with pytest.raises(ValueError, match="size guard"):
            max_closure(pts, max_size=39)  # the input alone

    def test_nan_closure_raises_at_once(self):
        # a NaN key equals no key: an unguarded closure grows without bound,
        # so it runs in a child under an address-space limit and a timeout
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "import numpy as np, maxzonoid as mz\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    mz.max_closure([[0.0, np.nan], [1.0, 0.0]])\n"
            "except ValueError as e:\n"
            "    print(f'{time.perf_counter() - t0:.3f}', e)\n"
        )
        src = os.path.dirname(os.path.dirname(max_closure.__code__.co_filename))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        seconds, message = out.stdout.split(" ", 1)
        assert float(seconds) < 1.0
        assert message.strip() == "point set is not closed under maxima: a NaN point equals no point"

    def test_value_carrying_lattice(self):
        pts = max_closure([[1.0, 0.0], [0.0, 1.0]])
        vals = pts.sum(axis=1)
        lat = FiniteMaxLattice(pts, vals)
        assert check_alternation(None, lat, max_order=2).ok
        with pytest.raises(ValueError, match="one value per"):
            FiniteMaxLattice(pts, vals[:-1])


class TestCheckAlternation:
    def test_sum_norm_passes(self):
        grid = max_closure(
            [[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
        )
        K = unit_cube(2)
        res = check_alternation(lambda X: support_function(K, X), grid, max_order=3)
        assert res.ok

    def test_max_norm_passes(self):
        grid = max_closure(
            [[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
        )
        K = unit_cross_polytope(2)
        res = check_alternation(lambda X: support_function(K, X), grid, max_order=3)
        assert res.ok

    def test_counterexample_witness(self):
        pts = subset_indicator_lattice(3, include_origin=True)
        res = check_alternation(counterexample_support, pts, max_order=3)
        assert not res.ok
        assert res.witness.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.order_checked == 2

    def test_budget_guard(self):
        pts = subset_indicator_lattice(3)
        with pytest.raises(ValueError, match="budget"):
            check_alternation(counterexample_support, pts, max_order=3, budget=10)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # a NaN tol would accept every difference and hide every witness
        pts = subset_indicator_lattice(3)
        with pytest.raises(ValueError, match="tol"):
            check_alternation(counterexample_support, pts, tol=tol)
        table = ExtremalTable(2, {(0,): 1.0, (1,): 1.0, (0, 1): 2.5})
        with pytest.raises(ValueError, match="tol"):
            check_extremal_consistency(table, tol=tol)

    def test_construct_is_the_loop(self):
        # compare's two logistic tables and the 100 random tables of
        # test_criterion_07, atoms and masses bit for bit
        models = [MaxStableModel(make_family("logistic", d, p=p)) for p, d in ((1.5, 3), (2.5, 4))]
        rng = np.random.default_rng(99)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            models.append(random_model(rng, d=d, m=int(rng.integers(2, 6))))
        for model in models:
            table = extremal_table(model)
            got, want = construct_from_extremal(table).spectral, _construct_by_loop(table)
            assert got.atoms.tobytes() == want.atoms.tobytes()
            assert got.masses.tobytes() == want.masses.tobytes()

    def test_subset_indicators_are_mask_ordered(self):
        # reference: row mask, column i is bit i of mask
        for d in range(1, 10):
            ref = np.array([[float((mask >> i) & 1) for i in range(d)] for mask in range(2**d)])
            assert np.array_equal(subset_indicator_lattice(d), ref)
            assert np.array_equal(subset_indicator_lattice(d, include_origin=False), ref[1:])
            assert np.array_equal(_corner_directions(d), ref[1:])

    def test_not_closed_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            check_alternation(
                lambda X: X.sum(axis=1), np.array([[1.0, 0.0], [0.0, 1.0]]), 2
            )


class TestExtremalConsistency:
    def test_independence_weights(self):
        table = extremal_table(MaxStableModel(unit_cube(3)))
        res = check_extremal_consistency(table)
        assert res.ok
        for B, c in res.weights.items():
            expected = 1.0 if len(B) == 1 else 0.0
            assert c == pytest.approx(expected, abs=1e-12)

    def test_dependence_weights(self):
        table = extremal_table(MaxStableModel(unit_cross_polytope(3)))
        res = check_extremal_consistency(table)
        assert res.ok
        assert res.weights[frozenset([0, 1, 2])] == pytest.approx(1.0)
        assert sum(abs(v) for B, v in res.weights.items() if len(B) < 3) < 1e-12

    def test_too_large_theta_rejected(self):
        table = ExtremalTable(
            2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): 2.5}
        )
        res = check_extremal_consistency(table)
        assert not res.ok
        assert res.violation_subset == frozenset([0, 1])
        assert res.violation_value == pytest.approx(-0.5)

    def test_too_small_theta_rejected(self):
        table = ExtremalTable(
            2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): 0.8}
        )
        res = check_extremal_consistency(table)
        assert not res.ok
        assert len(res.violation_subset) == 1
        assert res.violation_value == pytest.approx(-0.2)

    def test_marginal_validation(self):
        table = ExtremalTable(
            2, {frozenset([0]): 1.1, frozenset([1]): 1.0, frozenset([0, 1]): 1.5}
        )
        with pytest.raises(ValueError, match="must be 1"):
            check_extremal_consistency(table)

    def test_weights_reproduce_theta(self, rng):
        for _ in range(10):
            model = random_model(rng, d=4, m=5)
            table = extremal_table(model)
            res = check_extremal_consistency(table)
            assert res.ok
            for A, v in table.values.items():
                reproduced = sum(c for B, c in res.weights.items() if B & A)
                assert reproduced == pytest.approx(v, abs=1e-9)


class TestConstruct:
    def test_independence_round_trip(self):
        table = extremal_table(MaxStableModel(unit_cube(3)))
        model = construct_from_extremal(table)
        for A, v in table.values.items():
            assert extremal_coefficient(model, A) == pytest.approx(v, abs=1e-12)

    def test_the_checker_layer_imports_no_law(self):
        # construct_from_extremal builds a DependencySet itself, so the
        # module reads geometry and spectral only, never the probability layer
        import maxzonoid.alternation as alternation

        with open(alternation.__file__) as f:
            tree = ast.parse(f.read())
        local = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
        assert local == {"geometry", "spectral"}
        assert type(construct_from_extremal(extremal_table(unit_cube(2)))).__name__ == "DependencySet"

    def test_half_dependent_pair(self):
        table = ExtremalTable(
            2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): 1.5}
        )
        model = construct_from_extremal(table)
        assert extremal_coefficient(model, [0, 1]) == pytest.approx(1.5, abs=1e-12)
        assert chi(model) == pytest.approx(0.5, abs=1e-12)
        # weights (0.5, 0.5, 0.5): simulated chi near 0.5
        s = simulate(model, 50_000, seed=13)
        lvl = 1.0
        joint = np.mean(s.values.max(axis=1) <= lvl)
        assert -np.log(joint) == pytest.approx(1.5, abs=0.05)

    def test_inconsistent_rejected(self):
        table = ExtremalTable(
            2, {frozenset([0]): 1.0, frozenset([1]): 1.0, frozenset([0, 1]): 2.5}
        )
        with pytest.raises(ValueError, match="inconsistent"):
            construct_from_extremal(table)

    def test_sampled_theta_matches(self, rng):
        model = construct_from_extremal(extremal_table(random_model(rng, 3, 4)))
        s = simulate(model, 100_000, seed=7)
        for A in ([0, 1], [0, 1, 2]):
            emp = -np.log(np.mean(s.values[:, A].max(axis=1) <= 1.0))
            assert emp == pytest.approx(
                extremal_coefficient(model, A), abs=0.05
            )


class TestCheckerAgreement:
    def test_consistency_equals_alternation(self, rng):
        for i in range(20):
            model = random_model(rng, d=3, m=4)
            table = extremal_table(model)
            if i % 3 == 2:  # corrupt some tables
                vals = dict(table.values)
                vals[frozenset([0, 1])] = 2.2
                table = ExtremalTable(3, vals)
            a = check_extremal_consistency(table)
            b = theta_alternation_check(table)
            assert a.ok == b.ok
