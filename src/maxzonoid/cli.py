"""Command-line frontend.

Model files are JSON documents with exactly one of four forms::

    {"family":   {"name": "logistic", "d": 2, "params": {"p": 2.0}}}
    {"spectral": {"reference_norm": "l1",
                  "atoms": [{"point": [1, 0], "mass": 1.0}, ...]}}
    {"polygon":  {"vertices": [[1, 0], [1, 1], [0, 1]]}}
    {"extremal": {"d": 2, "theta": {"1": 1.0, "2": 1.0, "1,2": 1.5}}}

Subset keys are sorted 1-based index lists like "1,3".  CSV outputs use
'#'-prefixed metadata lines (seed, version) before the header row.
Exit codes: 0 success, 1 usage error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

import numpy as np

from . import __version__
from ._kernels import backend_name
from .alternation import check_extremal_consistency, construct_from_extremal
from .dependence import (
    ExtremalTable,
    chi,
    extremal_table,
    kendall_tau_2d,
    multivariate_rho,
    spearman_rho,
)
from .distribution import (
    MaxStableModel,
    cdf,
    copula,
    pickands,
    quantile_curve,
    simulate,
)
from .estimate import convergence_diagnostic, empirical_spectral
from .families import FamilySpec, discretize
from .geometry import Polygon2D, normalize_dependency, support_function
from .spectral import (
    make_measure,
    polygon_from_spectral,
    spectral_from_polygon_2d,
    validate_dependency,
    zonoid_from_spectral,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# model files


def _subset_key(A):
    return ",".join(str(i + 1) for i in sorted(A))


def _parse_subset(key, d):
    idx = [int(tok) - 1 for tok in str(key).split(",")]
    if any(i < 0 or i >= d for i in idx):
        raise ValueError(f"subset {key!r} out of range for d={d}")
    return frozenset(idx)


def load_spec(path):
    with open(path) as fh:
        spec = json.load(fh)
    forms = [k for k in ("family", "spectral", "polygon", "extremal") if k in spec]
    if len(forms) != 1:
        raise ValueError(
            f"model file must contain exactly one of family/spectral/polygon/"
            f"extremal, found {forms or 'none'}"
        )
    return spec, forms[0]


def parse_extremal(body):
    d = int(body["d"])
    values = {}
    for key, v in body["theta"].items():
        values[_parse_subset(key, d)] = float(v)
    for i in range(d):
        values.setdefault(frozenset([i]), 1.0)
    missing = [
        _subset_key(A)
        for k in range(2, d + 1)
        for A in combinations(range(d), k)
        if frozenset(A) not in values
    ]
    if missing:
        raise ValueError(f"extremal table is missing subsets {missing}")
    return ExtremalTable(d, values)


def build_model(spec, form):
    if form == "family":
        body = spec["family"]
        fam = FamilySpec(body["name"], int(body.get("d", 2)), body.get("params", {}))
        return MaxStableModel(fam.build())
    if form in ("spectral", "polygon"):
        if form == "spectral":
            body = spec["spectral"]
            pts = [a["point"] for a in body["atoms"]]
            masses = [a["mass"] for a in body["atoms"]]
            sigma = make_measure(pts, masses, body.get("reference_norm", "l1"))
        else:
            vertices = np.asarray(spec["polygon"]["vertices"], float)
            sigma = spectral_from_polygon_2d(Polygon2D.from_chain(vertices))
        K = zonoid_from_spectral(sigma)
        if np.abs(K.marginals() - 1.0).max() > 1e-6:
            raise ValueError(
                f"{form} model is not a dependency set: marginal sums "
                f"{K.marginals().tolist()}"
            )
        return MaxStableModel(normalize_dependency(K))
    if form == "extremal":
        return construct_from_extremal(parse_extremal(spec["extremal"]))
    raise ValueError(f"unknown model form {form!r}")


def load_model(path):
    spec, form = load_spec(path)
    return build_model(spec, form), spec


# ---------------------------------------------------------------------------
# i/o helpers


def read_csv(path):
    """'#' lines and blank lines are skipped; a first row that is not
    numeric is the header."""
    with open(path) as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    header = None
    if lines:
        try:
            [float(p) for p in lines[0].split(",")]
        except ValueError:
            header = [p.strip() for p in lines.pop(0).split(",")]
    if not lines:
        raise ValueError(f"no data rows in {path}")
    return header, np.loadtxt(lines, delimiter=",", ndmin=2)


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def write_csv(path, header, rows, meta):
    fh = _open_out(path)
    try:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=",")
    finally:
        if fh is not sys.stdout:
            fh.close()


def result_document(operation, spec, results, **extra):
    doc = {
        "tool": "maxzonoid",
        "version": __version__,
        "backend": backend_name(),
        "operation": operation,
        "spec": spec,
        "results": results,
    }
    doc.update(extra)
    return doc


def write_json(path, doc):
    fh = _open_out(path)
    try:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


def _measure_to_spec(sigma):
    return {
        "reference_norm": sigma.reference,
        "atoms": [
            {"point": p.tolist(), "mass": float(m)}
            for p, m in zip(sigma.atoms, sigma.masses)
        ],
    }


def _model_with_atoms(model, m_atoms, notes):
    if model.discrete is None:
        res = discretize(model.K, m_atoms)
        notes["discretize_method"] = res.method
        notes["discretize_atoms"] = res.measure.n_atoms
        notes["discretize_directions"] = res.n_eval_directions
        notes["discretize_error"] = f"{res.max_support_error:.3g}"
        return MaxStableModel(model.K, res.measure)
    return model


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args):
    model, spec = load_model(args.model)
    _, pts = read_csv(args.points)
    d = model.d
    if args.op == "cdf":
        vals = np.atleast_1d(cdf(model, pts))
    elif args.op == "copula":
        vals = np.atleast_1d(copula(model, pts))
    elif args.op == "norm":
        vals = np.atleast_1d(support_function(model.K, pts))
    elif args.op == "pickands":
        if pts.shape[1] != d - 1:
            raise ValueError(f"pickands needs {d - 1} simplex coordinates per row")
        vals = np.atleast_1d(pickands(model, pts if d > 2 else pts[:, 0]))
    else:
        raise ValueError(f"unknown op {args.op!r}")
    header = [f"x{i + 1}" for i in range(pts.shape[1])] + [args.op]
    rows = np.column_stack([pts, vals])
    write_csv(args.out, header, rows, {"tool": f"maxzonoid {__version__}", "op": args.op})
    return 0


def cmd_measures(args):
    model, spec = load_model(args.model)
    d = model.d
    cap = min(d, 4) if args.max_subset_size is None else args.max_subset_size
    if cap < 1:
        raise ValueError("--max-subset-size must be at least 1")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    table = extremal_table(model, max_size=cap)
    results = {
        "theta": {_subset_key(A): v for A, v in sorted(table.values.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
    }
    if d == 2:
        results["chi"] = chi(model)
        results["kendall_tau"] = kendall_tau_2d(model)
    for key, fn in (("spearman_rho", spearman_rho), ("multivariate_rho", multivariate_rho)):
        est = fn(model, n=args.samples, seed=args.seed)
        results[key] = {"value": est.value, "stderr": est.stderr, "method": est.method}
    write_json(args.out, result_document("measures", spec, results, seed=args.seed))
    return 0


def cmd_simulate(args):
    model, spec = load_model(args.model)
    notes = {}
    model = _model_with_atoms(model, args.atoms, notes)
    sample = simulate(model, args.samples, args.seed)
    meta = {
        "tool": f"maxzonoid {__version__}",
        "seed": args.seed,
        "samples": args.samples,
        "method": sample.method,
        "n_points": sample.n_points,
        **notes,
    }
    header = [f"x{i + 1}" for i in range(model.d)]
    write_csv(args.out, header, sample.values, meta)
    return 0


def cmd_spectral(args):
    model, spec = load_model(args.model)
    notes = {}
    if args.to_atoms:
        model = _model_with_atoms(model, args.atoms, notes)
        sigma = model.discrete
        report = validate_dependency(sigma)
        doc = result_document(
            "spectral", spec,
            {
                "spectral": _measure_to_spec(sigma),
                "report": {
                    "is_dependency": report.is_dependency,
                    "marginal_sums": report.marginal_sums.tolist(),
                    "total_mass": report.total_mass,
                },
                **notes,
            },
        )
        write_json(args.out, doc)
        return 0
    # --to-polygon
    if model.d != 2:
        raise ValueError("polygon conversion is planar")
    model = _model_with_atoms(model, args.atoms, notes)
    chain = polygon_from_spectral(model.discrete)
    doc = result_document(
        "spectral", spec,
        {"polygon": {"vertices": chain.vertices.tolist()}, **notes},
    )
    write_json(args.out, doc)
    return 0


def cmd_check_theta(args):
    spec, form = load_spec(args.model)
    if form != "extremal":
        raise ValueError("check-theta needs an extremal model file")
    table = parse_extremal(spec["extremal"])
    res = check_extremal_consistency(table, tol=args.tol)
    if res.ok:
        doc = result_document(
            "check-theta", spec,
            {
                "consistent": True,
                "weights": {_subset_key(B): c for B, c in sorted(
                    res.weights.c.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
                ) if c > 1e-12},
            },
        )
        write_json(args.out, doc)
        return 0
    doc = result_document(
        "check-theta", spec,
        {
            "consistent": False,
            "witness_subset": _subset_key(res.violation_subset),
            "weight": res.violation_value,
        },
    )
    write_json(args.out, doc)
    return 2


def cmd_construct_theta(args):
    spec, form = load_spec(args.model)
    if form != "extremal":
        raise ValueError("construct-theta needs an extremal model file")
    model = construct_from_extremal(parse_extremal(spec["extremal"]))
    doc = result_document(
        "construct-theta", spec, {"spectral": _measure_to_spec(model.discrete)}
    )
    write_json(args.out, doc)
    return 0


def cmd_estimate(args):
    _, X = read_csv(args.data)
    sigma = empirical_spectral(X, args.threshold, args.reference)
    report = validate_dependency(sigma)
    results = {
        "spectral": _measure_to_spec(sigma),
        "report": {
            "is_dependency": report.is_dependency,
            "marginal_sums": report.marginal_sums.tolist(),
            "total_mass": report.total_mass,
        },
        "n_exceedances": sigma.n_atoms,
    }
    if X.shape[1] == 2:
        K = normalize_dependency(zonoid_from_spectral(sigma))
        results["normalized_polygon"] = polygon_from_spectral(K.spectral).vertices.tolist()
    doc = result_document(
        "estimate", {"data": args.data, "threshold": args.threshold}, results
    )
    write_json(args.out, doc)
    return 0


def cmd_quantile(args):
    model, spec = load_model(args.model)
    curve = quantile_curve(model, args.alpha, args.points)
    write_csv(
        args.out,
        ["x1", "x2"],
        curve,
        {"tool": f"maxzonoid {__version__}", "alpha": args.alpha},
    )
    return 0


def cmd_converge(args):
    model, spec = load_model(args.model)
    _, X = read_csv(args.data)
    s_grid = [float(tok) for tok in args.s_grid.split(",")]
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("threshold grid must be increasing")
    points = convergence_diagnostic(
        X, s_grid, model.K, reference=args.reference, grid_n=args.grid
    )
    rows = [
        [p.s, p.n_exceedances, p.distance if p.ok else float("nan"), float(p.ok)]
        for p in points
    ]
    write_csv(
        args.out,
        ["s", "n_exceedances", "hausdorff_distance", "ok"],
        rows,
        {"tool": f"maxzonoid {__version__}"},
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = _Parser(prog="maxzonoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model spec JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("eval", help="evaluate cdf/copula/pickands/norm at points")
    common(p)
    p.add_argument("--points", required=True, help="CSV of evaluation points")
    p.add_argument("--op", required=True, choices=["cdf", "copula", "pickands", "norm"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("measures", help="dependence functionals of a model")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--max-subset-size", type=int, default=None)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("simulate", help="draw exact samples")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--atoms", type=int, default=1000, help="atoms for analytic models")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectral", help="polygon/atom conversion and validation")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-atoms", action="store_true")
    group.add_argument("--to-polygon", action="store_true")
    p.add_argument("--atoms", type=int, default=1000)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("check-theta", help="extremal-coefficient consistency verdict")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_check_theta)

    p = sub.add_parser("construct-theta", help="build a model from a consistent table")
    common(p)
    p.set_defaults(func=cmd_construct_theta)

    p = sub.add_parser("estimate", help="empirical spectral measure from data")
    common(p, model=False)
    p.add_argument("--data", required=True, help="CSV of positive observations")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--reference", default="l1", choices=["l1", "l2", "linf"])
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("quantile", help="planar quantile curve of the cdf")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("converge", help="Hausdorff convergence diagnostic")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--s-grid", required=True, help="increasing thresholds, comma-separated")
    p.add_argument("--grid", type=int, default=None, help="direction grid size")
    p.add_argument("--reference", default="l1", choices=["l1", "l2", "linf"])
    p.set_defaults(func=cmd_converge)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv=None):
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
