"""One sweep over the public callables of maxzonoid: each numeric, count,
seed, subset and point argument is fed NaN, +-inf, 2.5, -1, 0, True, "3",
None and a value of the wrong shape (a point batch also an empty one).
Every case raises ValueError, or is listed in ALLOWED with the documented
rule that lets the call take it.  A public callable that this file does not
name fails the sweep, so a new function is swept from its first commit."""

import math

import numpy as np
import pytest

import maxzonoid as mz

# bodies, laws, tables and data the calls are made on, all small
NORM = mz.MaxStableModel(mz.make_family("logistic", 2, p=2.0))
ATOMS = mz.MaxStableModel(mz.make_family("marshall_olkin", 2, alpha1=0.3, alpha2=0.7))
CUBE2, CROSS2, CUBE3 = mz.unit_cube(2), mz.unit_cross_polytope(2), mz.unit_cube(3)
LATTICE = mz.max_closure(np.eye(2))
TABLE = mz.ExtremalTable(2, {(0,): 1.0, (1,): 1.0, (0, 1): 1.5})
DATA = mz.simulate(ATOMS, 300, 1)


def _sum(X):
    return X.sum(axis=1)


# name -> (call, {argument: kind}); the call takes the swept argument by
# keyword.  A kind is "real", "count", "seed", "subset", ("points", d), a
# batch of rows of d coordinates, or ("vector", d), one row; d None is any.
# The polar volume calls run at the default method, quadrature here, which
# reads n and seed as Monte Carlo does
SWEEP = {
    "AnalyticNorm": (lambda d=2: mz.AnalyticNorm("sum", d, _sum), {"d": "count"}),
    "MaxZonoid": (lambda d=2: mz.MaxZonoid(d, norm=NORM.norm), {"d": "count"}),
    "DependencySet": (lambda d=2: mz.DependencySet(d, norm=NORM.norm), {"d": "count"}),
    "DiscreteSpectralMeasure": (
        lambda atoms=((1.0, 0.0), (0.0, 1.0)), masses=(1.0, 1.0): mz.DiscreteSpectralMeasure(atoms, masses),
        {"atoms": ("points", 2), "masses": ("vector", 2)},
    ),
    "ExtremalTable": (
        lambda d=2, subset=(0, 1), theta=1.5: mz.ExtremalTable(d, {(0,): 1.0, (1,): 1.0, subset: theta}),
        {"d": "count", "subset": "subset", "theta": "real"},
    ),
    "FiniteMaxLattice": (
        lambda points=LATTICE, values=(0.0, 1.0, 1.0): mz.FiniteMaxLattice(points, values),
        {"points": ("points", None), "values": ("vector", 3)},
    ),
    "Polygon2D": (lambda vertices=((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)): mz.Polygon2D(vertices),
                  {"vertices": ("points", 2)}),
    "SampleMatrix": (lambda values=((1.0, 2.0),): mz.SampleMatrix(values), {"values": ("points", None)}),
    "cdf": (lambda x=((1.0, 2.0),): mz.cdf(NORM, x), {"x": ("points", 2)}),
    "check_alternation": (
        lambda points=LATTICE, max_order=2, tol=1e-9, budget=10**6: mz.check_alternation(
            _sum, points, max_order=max_order, tol=tol, budget=budget
        ),
        {"points": ("points", None), "max_order": "count", "tol": "real", "budget": "count"},
    ),
    "check_extremal_consistency": (lambda tol=1e-9: mz.check_extremal_consistency(TABLE, tol), {"tol": "real"}),
    "combine_2d": (
        lambda p=2.0, lam=0.5, directions=16: mz.combine_2d(NORM, CUBE2, "power_mean", p, lam, directions),
        {"p": "real", "lam": "real", "directions": "count"},
    ),
    "convergence_diagnostic": (
        lambda samples=DATA, s_grid=(2.0, 4.0), grid_n=64: mz.convergence_diagnostic(samples, s_grid, ATOMS,
                                                                                     grid_n=grid_n),
        {"samples": ("points", 2), "s_grid": ("vector", None), "grid_n": "count"},
    ),
    "copula": (lambda u=((0.5, 0.5),): mz.copula(NORM, u), {"u": ("points", 2)}),
    "cross_polytope": (lambda apex=(1.0, 2.0): mz.cross_polytope(apex), {"apex": ("vector", None)}),
    "direction_estimate": (
        lambda direction=(1.0, 1.0), value=1.5: mz.direction_estimate(direction, value),
        {"direction": ("vector", None), "value": "real"},
    ),
    "discretize": (lambda m=32, n_eval=64: mz.discretize(NORM, m, n_eval), {"m": "count", "n_eval": "count"}),
    "empirical_spectral": (
        lambda samples=DATA, s=2.0: mz.empirical_spectral(samples, s),
        {"samples": ("points", None), "s": "real"},
    ),
    "exp_support_integral_mc": (
        lambda n=100, seed=0, beta=0.5: mz.exp_support_integral_mc(CUBE2, n, seed, beta),
        {"n": "count", "seed": "seed", "beta": "real"},
    ),
    "exponent_density": (lambda z=(1.0, 2.0): mz.exponent_density(NORM, z), {"z": ("vector", 2)}),
    "extremal_coefficient": (lambda A=(0, 1): mz.extremal_coefficient(NORM, A), {"A": "subset"}),
    "extremal_table": (lambda max_size=2: mz.extremal_table(NORM, max_size), {"max_size": "count"}),
    "hausdorff_distance": (lambda grid_n=64: mz.hausdorff_distance(NORM, CUBE2, grid_n), {"grid_n": "count"}),
    "inverted_pearson_2d": (
        lambda n=100, seed=0: mz.inverted_pearson_2d(NORM, n=n, seed=seed), {"n": "count", "seed": "seed"}
    ),
    "m_distance": (
        lambda grid_n=64, lam_tol=1e-6: mz.m_distance(NORM, CUBE2, grid_n, lam_tol),
        {"grid_n": "count", "lam_tol": "real"},
    ),
    "make_family": (
        lambda d=2, p=2.0, lam=0.5, alpha1=0.5, matrix=((0.5, 0.5), (0.5, 0.5)): (
            mz.make_family("logistic", d, p=p),
            mz.make_family("husler_reiss", 2, lam=lam),
            mz.make_family("marshall_olkin", 2, alpha1=alpha1, alpha2=0.5),
            mz.make_family("matrix_weights", 2, matrix=matrix),
        ),
        {"d": "count", "p": "real", "lam": "real", "alpha1": "real", "matrix": ("points", 2)},
    ),
    "make_measure": (
        lambda points=((1.0, 0.0), (0.0, 1.0)), masses=(1.0, 1.0): mz.make_measure(points, masses),
        {"points": ("points", None), "masses": ("vector", 2)},
    ),
    "max_closure": (
        lambda points=np.eye(2), max_size=100: mz.max_closure(points, max_size),
        {"points": ("points", None), "max_size": "count"},
    ),
    "max_stability_check": (
        lambda n_fold=2, grid=((1.0, 2.0),): mz.max_stability_check(NORM, n_fold, grid),
        {"n_fold": "real", "grid": ("points", 2)},
    ),
    "minkowski_combine": (
        lambda lam=0.5, difference=1.0: (
            mz.minkowski_combine(CUBE2, CROSS2, lam),
            mz.minkowski_combine(mz.scale(CUBE2, 4.0), CUBE2, difference, mode="difference"),
        ),
        {"lam": "real", "difference": "real"},
    ),
    "multivariate_rho": (
        lambda n=100, seed=0: mz.multivariate_rho(NORM, n, seed), {"n": "count", "seed": "seed"}
    ),
    "pickands": (lambda t=((0.5,),): mz.pickands(NORM, t), {"t": ("points", 1)}),
    "polar_2d": (lambda directions=16: mz.polar_2d(NORM, directions), {"directions": "count"}),
    "polar_volume": (
        lambda n=100, seed=0: mz.polar_volume(CUBE3, n=n, seed=seed), {"n": "count", "seed": "seed"}
    ),
    "project": (lambda coords=(0, 2): mz.project(CUBE3, coords), {"coords": "subset"}),
    "quantile_curve": (
        lambda alpha=0.5, points_n=8: mz.quantile_curve(NORM, alpha, points_n),
        {"alpha": "real", "points_n": "count"},
    ),
    "scale": (lambda lam=(1.0, 2.0): mz.scale(NORM, lam), {"lam": ("vector", 2)}),
    "simulate": (lambda n=10, seed=0: mz.simulate(ATOMS, n, seed), {"n": "count", "seed": "seed"}),
    "spearman_rho": (
        lambda n=100, seed=0: mz.spearman_rho(NORM, n=n, seed=seed), {"n": "count", "seed": "seed"}
    ),
    "spectral_from_points": (
        lambda points=((1.0, 0.5),), weights=(2.0,): mz.spectral_from_points(points, weights),
        {"points": ("points", None), "weights": ("vector", 1)},
    ),
    "support_function": (lambda x=((1.0, 2.0),): mz.support_function(NORM, x), {"x": ("points", 2)}),
    "unit_cross_polytope": (lambda d=2: mz.unit_cross_polytope(d), {"d": "count"}),
    "unit_cube": (lambda d=2: mz.unit_cube(d), {"d": "count"}),
}

# public callables with no numeric argument of their own: they take bodies,
# laws, measures, tables or estimates, each checked where it was built, or
# they are records, which hold what the function that returns them computed
NO_NUMERIC_ARGUMENT = {
    "AlternationResult", "ConsistencyResult", "ConvergencePoint", "DirectionEstimate", "DiscretizeResult",
    "Estimate", "MaxStableModel", "as_dependency", "backend_name", "cartesian_product", "chi",
    "construct_from_extremal", "estimate_zonoid_2d", "kendall_tau_2d", "normalize_dependency",
    "polygon_from_spectral", "spectral_from_polygon_2d", "validate_dependency", "zonoid_from_polygon",
    "zonoid_from_spectral",
}

_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "2.5": 2.5, "-1": -1, "0": 0, "True": True,
           "'3'": "3", "None": None}
_SHAPES = {"real": [0.5, 0.5], "count": [3], "seed": [1, 2], "subset": ((0, 1),)}


def _cases(kind):
    """(value id, value) for each bad-value class of a kind of argument."""
    if isinstance(kind, str):
        return [*_VALUES.items(), ("shape", _SHAPES[kind])]
    form, d = kind
    if form == "vector":
        return [*((k, [v] * (d or 2)) for k, v in _VALUES.items()),
                ("shape", np.ones((2, 3)) if d is None else [1.0] * (d + 1))]
    cols = d or 2
    return [*((k, [[v] * cols]) for k, v in _VALUES.items()),
            ("shape", np.ones((2, 2, 2)) if d is None else np.ones((2, d + 1))), ("empty", np.empty((0, cols)))]


# the documented rules that let a call take a value of the sweep
SEED = {"0": "a seed is an integer of at least 0", "None": "seed None draws fresh entropy"}
EMPTY = "an empty batch has an empty answer"
ALLOWED = {
    ("DiscreteSpectralMeasure", "masses"): {"2.5": "masses are positive"},
    ("ExtremalTable", "theta"): {v: "theta is any finite number; check_extremal_consistency judges the table"
                                 for v in ("2.5", "-1", "0")},
    ("FiniteMaxLattice", "values"): {v: "lattice values are finite and nonnegative" for v in ("2.5", "0")},
    ("SampleMatrix", "values"): {"2.5": "observations are finite and positive"},
    ("cdf", "x"): {"inf": "+inf marginalizes a coordinate", "2.5": "a point of the orthant",
                   "0": "F is 0 at a zero coordinate", "empty": EMPTY},
    ("check_alternation", "points"): {v: "a point set closed under maxima, anywhere in R^d" for v in ("2.5", "-1", "0")},
    ("check_alternation", "tol"): {v: "tol is finite and at least 0" for v in ("2.5", "0")},
    ("check_extremal_consistency", "tol"): {v: "tol is finite and at least 0" for v in ("2.5", "0")},
    ("combine_2d", "p"): {"2.5": "the power-mean exponent is finite and at least 1"},
    ("combine_2d", "lam"): {"0": "the power-mean weight lies in [0, 1]"},
    ("convergence_diagnostic", "samples"): {"2.5": "observations are finite and positive"},
    ("convergence_diagnostic", "grid_n"): {"None": "None is the default direction grid"},
    ("copula", "u"): {"0": "C is 0 at a zero coordinate", "empty": EMPTY},
    ("cross_polytope", "apex"): {"2.5": "an apex of the orthant"},
    ("direction_estimate", "direction"): {v: "a direction of the closed orthant" for v in ("2.5", "0")},
    ("direction_estimate", "value"): {v: "a value outside the coherent band is clipped and flagged"
                                      for v in ("2.5", "-1", "0")},
    ("empirical_spectral", "samples"): {"2.5": "observations are finite and positive"},
    ("empirical_spectral", "s"): {"2.5": "the threshold is positive"},
    ("exp_support_integral_mc", "seed"): SEED,
    ("exponent_density", "z"): {"2.5": "an evaluation point is finite and positive"},
    ("extremal_coefficient", "A"): {"0": "an index alone is the subset of that index"},
    ("extremal_table", "max_size"): {"None": "None reads every subset"},
    ("hausdorff_distance", "grid_n"): {"None": "None is the default direction grid"},
    ("inverted_pearson_2d", "seed"): SEED,
    ("m_distance", "grid_n"): {"None": "None is the default direction grid"},
    ("m_distance", "lam_tol"): {"2.5": "lam_tol is positive and finite"},
    ("make_family", "p"): {"inf": "logistic p = inf is complete dependence", "2.5": "logistic p is at least 1"},
    ("make_family", "lam"): {"inf": "Husler-Reiss lam = inf is independence", "2.5": "Husler-Reiss lam is at least 0",
                             "0": "Husler-Reiss lam = 0 is complete dependence"},
    ("make_family", "alpha1"): {"0": "Marshall-Olkin parameters lie in [0, 1]"},
    ("make_measure", "masses"): {"2.5": "masses are nonnegative"},
    ("max_closure", "points"): {v: "one point is closed under maxima, anywhere in [-inf, inf]^d"
                                for v in ("inf", "-inf", "2.5", "-1", "0")},
    ("max_stability_check", "n_fold"): {"2.5": "n_fold is finite and at least 2"},
    ("max_stability_check", "grid"): {"inf": "+inf marginalizes a coordinate", "2.5": "a point of the orthant",
                                      "0": "F is 0 at a zero coordinate"},
    ("minkowski_combine", "lam"): {"0": "the sum weight lies in [0, 1]",
                                   "shape": "the sum weight may be one per coordinate"},
    ("minkowski_combine", "difference"): {"2.5": "the difference weight is positive and leaves no negative mass"},
    ("multivariate_rho", "seed"): SEED,
    ("pickands", "t"): {"0": "t lies in the unit simplex", "empty": EMPTY},
    ("polar_volume", "seed"): SEED,
    ("project", "coords"): {"0": "an index alone is the subset of that index"},
    ("scale", "lam"): {"2.5": "scale factors are positive and finite"},
    ("simulate", "seed"): SEED,
    ("spearman_rho", "seed"): SEED,
    ("spectral_from_points", "points"): {"2.5": "points of the orthant"},
    ("spectral_from_points", "weights"): {"2.5": "weights are positive"},
    ("support_function", "x"): {"inf": "+inf directions are documented", "2.5": "a direction of the orthant",
                                "0": "h is 0 at the origin", "empty": EMPTY},
}


def _params():
    for name, (_, kinds) in sorted(SWEEP.items()):
        for arg, kind in kinds.items():
            for vid, value in _cases(kind):
                yield pytest.param(name, arg, vid, value, id=f"{name}-{arg}-{vid}")


def test_the_sweep_names_every_public_callable():
    public = {n for n in dir(mz) if not n.startswith("_") and callable(getattr(mz, n))}
    assert public - set(SWEEP) - NO_NUMERIC_ARGUMENT == set()
    assert set(SWEEP) | NO_NUMERIC_ARGUMENT <= public


def test_each_call_runs_on_its_own_arguments():
    for name, (call, _) in SWEEP.items():
        call()


@pytest.mark.parametrize("name, arg, vid, value", list(_params()))
def test_a_bad_argument_is_a_value_error(name, arg, vid, value):
    call = SWEEP[name][0]
    rule = ALLOWED.get((name, arg), {}).get(vid)
    if rule is not None:
        call(**{arg: value})  # runs, by the rule
    else:
        with pytest.raises(ValueError):
            call(**{arg: value})


def test_every_allowance_is_a_case_of_the_sweep():
    cases = {(name, arg, vid) for name, (_, kinds) in SWEEP.items() for arg, kind in kinds.items()
             for vid, _ in _cases(kind)}
    assert {(name, arg, vid) for (name, arg), rules in ALLOWED.items() for vid in rules} <= cases
