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

import argparse
import contextlib
import functools
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
from .families import discretize, make_family
from .geometry import (
    Polygon2D,
    normalize_dependency,
    polygon_from_spectral,
    support_function,
    zonoid_from_spectral,
)
from .spectral import (
    _close_to_normalized,
    make_measure,
    spectral_from_polygon_2d,
    validate_dependency,
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


def _by_subset(values):
    """{subset key: value}, smaller subsets first, lexicographic within a size."""
    return {_subset_key(A): values[A] for A in sorted(values, key=lambda A: (len(A), sorted(A)))}


def _parse_subset(key, d):
    idx = [int(tok) - 1 for tok in str(key).split(",")]
    if any(i < 0 or i >= d for i in idx):
        raise ValueError(f"subset {key!r} out of range for d={d}")
    if len(set(idx)) < len(idx):
        raise ValueError(f"subset {key!r} names an index twice")
    return frozenset(idx)


def _json_object(value, what):
    """value, which must be a JSON object, else ValueError naming what."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {json.dumps(value)}")
    return value


def _number(value, what):
    """value, which must be a JSON number (true and false are not) that a
    float can hold, else ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {json.dumps(value)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} is an integer beyond the float range")
    return value


def _numbers(value, what):
    """value, which must be a JSON number or a nested list of them."""
    if isinstance(value, list):
        for v in value:
            _numbers(v, what)
        return value
    return _number(value, what)


def _dimension(value):
    """A model file's "d", a JSON number of integral value, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f'"d" must be an integer, not {json.dumps(value)}')
    return value


def _unique_keys(pairs):
    """A JSON object's pairs as a dict, ValueError at a key given twice."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"a model file names {json.dumps(k)} twice in one object")
        obj[k] = v
    return obj


def load_spec(path):
    with open(path) as fh:
        spec = _json_object(json.load(fh, object_pairs_hook=_unique_keys), "a model file")
    forms = [k for k in ("family", "spectral", "polygon", "extremal") if k in spec]
    if len(forms) != 1:
        raise ValueError(
            f"model file must contain exactly one of family/spectral/polygon/"
            f"extremal, found {forms or 'none'}"
        )
    _json_object(spec[forms[0]], f'"{forms[0]}"')
    return spec, forms[0]


def parse_extremal(body):
    d = _dimension(body["d"])
    theta = _json_object(body["theta"], '"theta"')
    values = {}
    for k, v in theta.items():
        A = _parse_subset(k, d)
        if A in values:
            raise ValueError(f'theta names subset {_subset_key(A)} twice, the second time as "{k}"')
        values[A] = float(_number(v, f'theta "{k}"'))
    for i in range(d):
        values.setdefault(frozenset([i]), 1.0)
    subsets = (frozenset(A) for k in range(2, d + 1) for A in combinations(range(d), k))
    missing = [_subset_key(A) for A in subsets if A not in values]
    if missing:
        raise ValueError(f"extremal table is missing subsets {missing}")
    return ExtremalTable(d, values)


def build_model(spec, form):
    if form == "family":
        body = spec["family"]
        params = _json_object(body.get("params", {}), '"params"')
        for key, v in params.items():
            _numbers(v, f'param "{key}"')
        return MaxStableModel(make_family(body["name"], _dimension(body.get("d", 2)), **params))
    if form in ("spectral", "polygon"):
        if form == "spectral":
            body = spec["spectral"]
            atoms = body["atoms"]
            if not isinstance(atoms, list):
                raise ValueError(f'"atoms" must be a JSON list, not {json.dumps(atoms)}')
            atoms = [_json_object(a, "an atom") for a in atoms]
            pts = [_numbers(a["point"], 'an atom\'s "point"') for a in atoms]
            masses = [_number(a["mass"], 'an atom\'s "mass"') for a in atoms]
            sigma = make_measure(pts, masses, body.get("reference_norm", "l1"))
        else:
            vertices = np.asarray(spec["polygon"]["vertices"], float)
            sigma = spectral_from_polygon_2d(Polygon2D.from_chain(vertices))
        K = zonoid_from_spectral(sigma)
        if not _close_to_normalized(K.marginals()):
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


def _load_extremal(args):
    """The spec and ExtremalTable of args.model, which must be an extremal file."""
    spec, form = load_spec(args.model)
    if form != "extremal":
        raise ValueError(f"{args.command} needs an extremal model file")
    return spec, parse_extremal(spec["extremal"])


# ---------------------------------------------------------------------------
# i/o helpers


def read_csv(path):
    """'#' lines and blank lines are skipped; a first row that is not
    numeric is the header.  Python reads lines only up to the first data
    row; np.loadtxt parses the file itself from there, skipping empty
    lines, '#' lines and trailing '#' comments.  It fails on a line of
    spaces or an indented '#', and the rest is then filtered in Python:
    stripped lines parse as the raw ones do, so either way the rows agree."""
    header, first = None, None
    with open(path) as fh:
        for k, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                try:
                    [float(p) for p in line.split(",")]
                except ValueError:
                    header = [p.strip() for p in line.split(",")]
                    continue
            first = k
            break
    if first is None:
        raise ValueError(f"no data rows in {path}")
    try:
        return header, np.loadtxt(path, delimiter=",", comments="#", skiprows=first, ndmin=2)
    except ValueError:
        with open(path) as fh:
            lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
        return header, np.loadtxt(lines[1:] if header else lines, delimiter=",", ndmin=2)


def _open_out(path):
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# Rows per formatted block of write_csv: under 1 MB of text at two columns.
_CSV_BLOCK = 2**14


def write_csv(path, header, rows, meta):
    """'#' meta lines, the header, then the (n, k) rows in "%.17g" with ','
    between columns.  One row template repeated over a block of rows is
    formatted by a single %, which writes the bytes of formatting row by
    row without its per-row Python cost."""
    X = np.asarray(rows, dtype=float)
    with _open_out(path) as fh:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * X.shape[1]) + "\n"
        for lo in range(0, X.shape[0], _CSV_BLOCK):
            block = X[lo : lo + _CSV_BLOCK]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


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


class _JSONText:
    """A value that write_json writes as this JSON text, as it is."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


_SPLICE = "\u0000JSON text\u0000"


def _json_rows(template, *columns):
    """The JSON list of template % row for each row of the float columns:
    the bytes json.dumps writes for that list of sorted objects or lists,
    as a finite float's %r is its repr, which json writes too.  One %
    over the whole list, not a dict per row (about 2/3 of the time)."""
    values = np.column_stack(columns).ravel().tolist()
    return _JSONText("[" + ", ".join([template] * len(columns[0])) % tuple(values) + "]")


def write_json(path, doc):
    """One line with sorted keys: json.dumps without indent runs the C
    encoder, where json.dump and any indent take the pure-Python one.
    Each _JSONText goes in as a placeholder string, replaced by its text;
    if the document already holds that string, the texts are parsed."""
    texts = []

    def splice(obj):
        if not isinstance(obj, _JSONText):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        texts.append(obj.text)
        return _SPLICE

    parts = json.dumps(doc, sort_keys=True, default=splice).split(json.dumps(_SPLICE))
    if len(parts) == len(texts) + 1:
        out = parts[0] + "".join(t + rest for t, rest in zip(texts, parts[1:]))
    else:
        out = json.dumps(doc, sort_keys=True, default=lambda obj: json.loads(obj.text))
    with _open_out(path) as fh:
        fh.write(out + "\n")


def _measure_to_spec(sigma):
    point = ", ".join(["%r"] * sigma.d)
    return {
        "reference_norm": sigma.reference,
        "atoms": _json_rows('{"mass": %r, "point": [' + point + "]}", sigma.masses, sigma.atoms),
    }


def _dependency_report(sigma):
    """validate_dependency's verdict on an atom list, as a JSON object."""
    report = validate_dependency(sigma)
    return {
        "is_dependency": report.is_dependency,
        "marginal_sums": report.marginal_sums.tolist(),
        "total_mass": report.total_mass,
    }


def _model_with_atoms(model, m_atoms, notes):
    """model, or the law of its m_atoms fit (with_discrete) and the fit's notes."""
    if model.spectral is not None:
        return model
    res = discretize(model, m_atoms)
    err = res.max_support_error
    notes["discretize_method"] = err.method
    notes["discretize_atoms"] = res.measure.n_atoms
    notes["discretize_directions"] = err.n_samples
    notes["discretize_error"] = f"{err:.3g}"
    return MaxStableModel(zonoid_from_spectral(res.measure))


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args):
    model, spec = load_model(args.model)
    _, pts = read_csv(args.points)
    d = model.d
    if args.op == "pickands":
        if pts.shape[1] != d - 1:
            raise ValueError(f"pickands needs {d - 1} simplex coordinates per row")
        vals = pickands(model, pts if d > 2 else pts[:, 0])
    else:  # the law and its norm take the same model; read_csv rows are 2-D
        vals = {"cdf": cdf, "copula": copula, "norm": support_function}[args.op](model, pts)
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
    results = {"theta": _by_subset(table.values)}
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
    if args.to_polygon and model.d != 2:
        raise ValueError("polygon conversion is planar")
    notes = {}
    sigma = _model_with_atoms(model, args.atoms, notes).spectral
    if args.to_atoms:
        results = {"spectral": _measure_to_spec(sigma), "report": _dependency_report(sigma)}
    else:
        results = {"polygon": {"vertices": polygon_from_spectral(sigma).vertices.tolist()}}
    write_json(args.out, result_document("spectral", spec, {**results, **notes}))
    return 0


def cmd_check_theta(args):
    spec, table = _load_extremal(args)
    res = check_extremal_consistency(table, tol=args.tol)
    if res.ok:
        weights = {B: c for B, c in res.weights.items() if c > 1e-12}
        results = {"consistent": True, "weights": _by_subset(weights)}
    else:
        results = {
            "consistent": False,
            "witness_subset": _subset_key(res.violation_subset),
            "weight": res.violation_value,
        }
    write_json(args.out, result_document("check-theta", spec, results))
    return 0 if res.ok else 2


def cmd_construct_theta(args):
    spec, table = _load_extremal(args)
    results = {"spectral": _measure_to_spec(construct_from_extremal(table).spectral)}
    write_json(args.out, result_document("construct-theta", spec, results))
    return 0


def cmd_estimate(args):
    _, X = read_csv(args.data)
    sigma = empirical_spectral(X, args.threshold, args.reference)
    results = {
        "spectral": _measure_to_spec(sigma),
        "report": _dependency_report(sigma),
        "n_exceedances": sigma.n_atoms,
    }
    if X.shape[1] == 2:
        K = normalize_dependency(zonoid_from_spectral(sigma))
        vertices = polygon_from_spectral(K.spectral).vertices
        results["normalized_polygon"] = _json_rows("[%r, %r]", vertices)
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
        X, s_grid, model, reference=args.reference, grid_n=args.grid
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


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged and gives each call a fresh namespace."""
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

    p = sub.add_parser("measures", help="dependence functionals of a model")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--max-subset-size", type=int, default=None)

    p = sub.add_parser("simulate", help="draw exact samples")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--atoms", type=int, default=1000, help="atoms for analytic models")

    p = sub.add_parser("spectral", help="polygon/atom conversion and validation")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-atoms", action="store_true")
    group.add_argument("--to-polygon", action="store_true")
    p.add_argument("--atoms", type=int, default=1000)

    p = sub.add_parser("check-theta", help="extremal-coefficient consistency verdict")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("construct-theta", help="build a model from a consistent table")
    common(p)

    p = sub.add_parser("estimate", help="empirical spectral measure from data")
    common(p, model=False)
    p.add_argument("--data", required=True, help="CSV of positive observations")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--reference", default="l1", choices=["l1", "l2", "linf"])

    p = sub.add_parser("quantile", help="planar quantile curve of the cdf")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("converge", help="Hausdorff convergence diagnostic")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--s-grid", required=True, help="increasing thresholds, comma-separated")
    p.add_argument("--grid", type=int, default=None, help="direction grid size")
    p.add_argument("--reference", default="l1", choices=["l1", "l2", "linf"])

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    # the handler is looked up when it runs, not when the parser was built,
    # so a wrapped cmd_* (a tracer's, a test's) is the one that is called
    return globals()["cmd_" + args.command.replace("-", "_")](args)


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
