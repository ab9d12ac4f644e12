"""Command-line frontend.

Model files are JSON documents with exactly one of four forms::

    {"family":   {"name": "logistic", "d": 2, "params": {"p": 2.0}}}
    {"spectral": {"reference_norm": "l1",
                  "atoms": [{"point": [1, 0], "mass": 1.0}, ...]}}
    {"polygon":  {"vertices": [[1, 0], [1, 1], [0, 1]]}}
    {"extremal": {"d": 2, "theta": {"1": 1.0, "2": 1.0, "1,2": 1.5}}}

Subset keys are 1-based index lists like "1,3", written sorted.  This
module checks only a file's JSON shape (one form, objects where objects
belong, each key once, 1-based keys, singleton theta 1 by default, no
subset missing); every value and numeric option is read by the library's
reader of its kind, a count, a real, a point batch or mass list, or a
subset, whose ValueError is the error line.  CSV outputs use '#'-prefixed
metadata lines (seed, version) before the header row.
Exit codes: 0 success, 1 usage error, 2 validation failure, an input too
large for memory among them.
"""

import argparse
import contextlib
import functools
import json
import sys
from itertools import count

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
    REFERENCE_NORMS,
    _close_to_normalized,
    _from_reference,
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


class _SubsetKey(tuple):
    """A 1-based subset key "1,3" as the 0-based index tuple (0, 2), in its
    order, whose repr is the key as written: ExtremalTable judges the
    subset, and "1,2" beside "2,1", and its errors quote the file and,
    by base, state the range as 1..d."""

    base = 1

    def __new__(cls, key):
        try:
            self = super().__new__(cls, (int(tok) - 1 for tok in key.split(",")))
        except ValueError:
            raise ValueError(f"theta key {json.dumps(key)} is not a comma-separated list of integers") from None
        self.key = key
        return self

    def __repr__(self):
        return json.dumps(self.key)


def _json_object(value, what):
    """value, which must be a JSON object, else ValueError naming what."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {json.dumps(value)}")
    return value


def _json_int(value):
    """A JSON float of integral value, as "d": 3.0 may be written, as an int; else value as given."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


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
    """The ExtremalTable of an extremal model file's theta, each singleton 1
    unless given; ValueError at a subset of two or more coordinates missing,
    found by counting the keys given before any subset is walked."""
    theta = _json_object(body["theta"], '"theta"')
    table = ExtremalTable(_json_int(body["d"]), {_SubsetKey(k): v for k, v in theta.items()})
    d, values = table.d, dict(table.values)
    given = sum(len(A) > 1 for A in values)
    if d > 63 or given < 2**d - d - 1:  # 2^d is formed only where it fits 64 bits
        total = f"2^{d} - {d} - 1" if d > 63 else 2**d - d - 1
        raise ValueError(
            f"extremal table is missing subsets {_missing_subsets(values, d)}: it names {given} of the "
            f"{total} subsets of two or more coordinates"
        )
    for i in range(d):
        values.setdefault(frozenset([i]), 1.0)
    return ExtremalTable(d, values)


def _missing_subsets(values, d, shown=5):
    """The keys of the first subsets of two or more of d coordinates that
    values lacks, in the order of their bit masks, up to shown of them and
    then "...".  The walk stops there, so it passes at most about
    len(values) + shown masks, whatever d is."""
    missing = []
    for mask in count(3):
        if mask.bit_length() > d:
            return missing
        A = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
        if len(A) > 1 and A not in values:
            if len(missing) == shown:
                return [*missing, "..."]
            missing.append(_subset_key(A))


def build_model(spec, form):
    if form == "family":
        body = spec["family"]
        params = _json_object(body.get("params", {}), '"params"')
        return MaxStableModel(make_family(body["name"], _json_int(body.get("d", 2)), **params))
    if form in ("spectral", "polygon"):
        if form == "spectral":
            body = spec["spectral"]
            atoms = body["atoms"]
            if not isinstance(atoms, list):
                raise ValueError(f'"atoms" must be a JSON list, not {json.dumps(atoms)}')
            atoms = [_json_object(a, "an atom") for a in atoms]
            pts, masses = [a["point"] for a in atoms], [a["mass"] for a in atoms]
            sigma = _from_reference(pts, masses, body.get("reference_norm", "l1"))
        else:
            sigma = spectral_from_polygon_2d(Polygon2D.from_chain(spec["polygon"]["vertices"]))
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

# "%.17g" of a value x in (1e-11, 1e15) is its 17 significant digits D and
# decimal exponent k in -11..14 (row k + 11 of the tables below), laid out by
# k.  D is read off x = m * 2**e (m of 53 bits) as m * 5**q / 2**t rounded half
# to even, q = 16 - k and t = k - 16 - e in 1..62 there: the product in 32-bit
# limbs of uint64.  The digits come four at a time from a 10**4-entry table.
_K = np.arange(-11, 15)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
# the four ASCII digits of 0..9999 as one uint32 each, and the same with the
# trailing zeros as NUL bytes, which the writer drops
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUAD_DIGITS = np.stack(
    np.broadcast_arrays(_DIGITS[:, None, None, None], _DIGITS[:, None, None], _DIGITS[:, None], _DIGITS), axis=-1
).reshape(10_000, 4)
_QUADS = _QUAD_DIGITS.view(np.uint32).ravel()
_TRAILING = _QUAD_DIGITS == ord("0")
_TRAILING[:, 2] &= _TRAILING[:, 3]
_TRAILING[:, 1] &= _TRAILING[:, 2]
_TRAILING[:, 0] &= _TRAILING[:, 1]
_QUADS_CUT = np.where(_TRAILING, 0, _QUAD_DIGITS).view(np.uint32).ravel()


def _quad(text):
    return np.frombuffer(text, np.uint32)[0]


# A value's 44 source bytes, 11 uint32 quads: 0-2 "000", 3 the first digit,
# 4-19 the other 16, 20-35 those with trailing zeros NUL, 36 "." or NUL,
# 37 the separator, 38-39 NUL, 40-43 "e-" and the exponent's two digits.
# _LAYOUTS[k + 11] lists the source byte of each of the 24 field bytes and the
# separator: "ddd.ddd" for k >= 0, "0.000ddd" for -4 <= k < 0 and "d.ddde-XX"
# below, NUL-padded.  The "." is NUL unless a digit after it is nonzero, that
# is D % _POINT_MOD[k + 11] != 0 (any D for "0.000ddd", as D < 10**17).
_FIELD = 24  # the longest "%.17g", -1.7976931348623157e+308


def _layouts():
    k, j = _K[:, None], np.arange(_FIELD + 1)
    head = np.maximum(k, 0)  # the last digit before the point
    small = (k < 0) & (k >= -4)
    return np.select(
        [
            j == _FIELD,  # the separator
            small & ((j == 0) | (j > 1) & (j < 1 - k)),  # the zeros of "0.000"
            small & (j == 1),  # its point
            small & (j == 1 - k),  # the first digit
            small & (j <= 17 - k),  # the other 16, trailing zeros cut
            ~small & (j <= head),  # the digits before the point
            ~small & (j == head + 1),  # the point
            ~small & (j <= 17),  # the digits after it, trailing zeros cut
            (k < -4) & (j <= 21),  # "e-XX"
        ],
        [37, 0, 36, 3, 18 + j + k, 3 + j, 36, 18 + j, 22 + j],
        38,
    )


_LAYOUTS = _layouts()
_POINT_MOD = np.where(_K < -4, 10**16, 10 ** (16 - np.maximum(_K, -1))).astype(np.uint64)
_POINT, _EXP_DIGITS, _EXP_SIGN = _quad(b".\0\0\0"), _quad(b"\0\0\xff\xff"), _quad(b"e-\0\0")
_COMMA, _NEWLINE = _quad(b"\0,\0\0"), _quad(b"\0\n\0\0")


def _scaled(m, e, k):
    """floor(m * 5**q / 2**t), its remainder and t, q = 16 - k and t = k - 16 - e."""
    p, t = _POW5[16 - k], (k - 16 - e).astype(np.uint64)
    m_lo, m_hi, p_lo, p_hi = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    mid_lo = (low >> 32) + (mid & 0xFFFFFFFF)
    hi = (mid_lo >> 32) + (mid >> 32) + m_hi * p_hi
    lo = (mid_lo << 32) | (low & 0xFFFFFFFF)
    return (hi << (64 - t)) | (lo >> t), lo & ((np.uint64(1) << t) - 1), t


def _decimal17(x):
    """D in [1e16, 1e17) and k with x = D * 10**(k - 16) rounded half to even,
    for x in (1e-11, 1e15).  k is first floor(log10 x), then corrected so
    that the truncated quotient has 17 digits: the double nearest 1e-7 has
    k = -8, though it rounds up to 1e16 at k = -7."""
    frac, e = np.frexp(x)
    m, e = (frac * 2.0**53).astype(np.uint64), e - 53
    k = np.floor(np.log10(x)).clip(-11, 14).astype(np.int64)
    q, r, t = _scaled(m, e, k)
    off = (q >= 10**17).astype(np.int64) - (q < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        q[fix], r[fix], t[fix] = _scaled(m[fix], e[fix], k[fix])
    # no carry reaches 1e17: below each power of ten in range the nearest
    # double is more than 4.5e-17 of it away, relatively, and a carry needs 5e-18
    return q + ((r + (np.uint64(1) << (t - 1)) - 1 + (q & 1)) >> t), k


def _csv_text(X):
    """The CSV rows of the float block X, each value as "%.17g" formats it.
    Values in (1e-11, 1e15) are laid out from their digits by _LAYOUTS, a
    gather of 25 bytes a value from its source bytes; every other value
    (0, -0, negatives, nan, +-inf, subnormals) is formatted by "%.17g" into
    its field.  One pass drops the NUL bytes."""
    rows, cols = X.shape
    x = X.ravel()
    n = x.size
    fast = (x > 1e-11) & (x < 1e15)
    D, k = _decimal17(np.where(fast, x, 1.0))
    rest, groups = D, []
    for p in (10**16, 10**12, 10**8, 10**4):
        groups.append(rest // p)
        rest = rest - groups[-1] * p
    groups.append(rest)
    src = np.empty((11, n), np.uint32)  # row c holds quad c of every value
    for c, g in enumerate(groups):
        src[c] = _QUADS[g]
    tail_zero = np.ones(n, bool)
    for c in (4, 3, 2, 1):
        src[4 + c] = np.where(tail_zero, _QUADS_CUT[groups[c]], src[c])
        tail_zero &= groups[c] == 0
    separators = np.array([_COMMA] * (cols - 1) + [_NEWLINE], np.uint32)
    src[9] = (np.where(D % _POINT_MOD[k + 11] != 0, _POINT, 0).reshape(rows, cols) | separators).ravel()
    src[10] = _QUADS[np.abs(k)] & _EXP_DIGITS | _EXP_SIGN
    # source byte b of value i lies at (b // 4) * 4n + 4i + b % 4
    idx = np.take((_LAYOUTS >> 2) * (4 * n) + (_LAYOUTS & 3), k + 11, axis=0)
    idx += np.arange(0, 4 * n, 4)[:, None]
    out = np.take(src.view(np.uint8).ravel(), idx)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([("%.17g" % v).ljust(_FIELD, "\0") for v in x[slow].tolist()])
        out[slow, :_FIELD] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _FIELD)
    out = out.ravel()
    return out[out != 0].tobytes().decode()


def write_csv(path, header, rows, meta):
    """'#' meta lines, the header, then the (n, k) rows in "%.17g" with ','
    between columns, the bytes np.savetxt(fmt="%.17g", delimiter=",")
    writes.  Blocks of _CSV_BLOCK rows are formatted as whole columns by
    _csv_text: the digits by integer arithmetic in place of the exact
    bignum path of "%.17g", which only the values outside its range take."""
    X = np.asarray(rows, dtype=float)
    with _open_out(path) as fh:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, X.shape[0], _CSV_BLOCK):
            fh.write(_csv_text(X[lo : lo + _CSV_BLOCK]))


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
        "reference_norm": "l1",
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
    # read_csv rows are 2-D: points, or pickands's first d - 1 simplex coordinates
    vals = {"cdf": cdf, "copula": copula, "pickands": pickands, "norm": support_function}[args.op](model, pts)
    header = [f"x{i + 1}" for i in range(pts.shape[1])] + [args.op]
    rows = np.column_stack([pts, vals])
    write_csv(args.out, header, rows, {"tool": f"maxzonoid {__version__}", "op": args.op})
    return 0


def cmd_measures(args):
    model, spec = load_model(args.model)
    d = model.d
    cap = min(d, 4) if args.max_subset_size is None else args.max_subset_size
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
    p.add_argument("--reference", default="l1", choices=REFERENCE_NORMS)

    p = sub.add_parser("quantile", help="planar quantile curve of the cdf")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("converge", help="Hausdorff convergence diagnostic")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--s-grid", required=True, help="increasing thresholds, comma-separated")
    p.add_argument("--grid", type=int, default=None, help="direction grid size")
    p.add_argument("--reference", default="l1", choices=REFERENCE_NORMS)

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
    except (ValueError, OSError, json.JSONDecodeError, KeyError, MemoryError) as exc:
        # an input too large for memory is bad input too: numpy's message names the array
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
