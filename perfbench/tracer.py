"""Per-layer tracing from outside the program.

The tracer replaces each named public function of the package, in every
``maxzonoid`` module that holds it, with a wrapper that records a span:
name, start, end and the span that called it.  A layer's self time is
its spans' duration minus the part their child spans cover.  Spans stay
in memory until the run writes them out.  A function that no longer
exists is reported as unmeasured instead of failing the run.
"""

import importlib
import sys
import time

import numpy as np

# target -> hook(stats, args, result) adding work counts, or None
TARGETS = {
    "maxzonoid.cli:cmd_simulate": None,
    "maxzonoid.cli:cmd_estimate": None,
    "maxzonoid.cli:cmd_converge": None,
    "maxzonoid.cli:cmd_measures": None,
    "maxzonoid.cli:cmd_spectral": None,
    "maxzonoid.cli:cmd_quantile": None,
    "maxzonoid.cli:read_csv": None,
    "maxzonoid.cli:write_csv": None,
    "maxzonoid.cli:write_json": None,
    "maxzonoid.cli:load_spec": None,
    "maxzonoid.families:discretize": lambda st, a, r: st.update(
        max_error=max(st.get("max_error", 0.0), r.max_support_error)),
    "maxzonoid.distribution:simulate": lambda st, a, r: _add(st, "samples", a[1]),
    "maxzonoid.distribution:cdf": lambda st, a, r: _add(st, "points", np.size(r)),
    "maxzonoid.distribution:copula": lambda st, a, r: _add(st, "points", np.size(r)),
    "maxzonoid.distribution:pickands": lambda st, a, r: _add(st, "points", np.size(r)),
    "maxzonoid._kernels:support_sum": lambda st, a, r: _add(st, "terms", a[0].shape[0] * a[1].shape[0]),
    "maxzonoid.estimate:empirical_spectral": lambda st, a, r: _add(st, "exceedances", r.n_atoms),
    "maxzonoid.estimate:convergence_diagnostic": None,
    "maxzonoid.geometry:hausdorff_distance": None,
    "maxzonoid.geometry:m_distance": None,
    "maxzonoid.geometry:polar_volume": None,
    "maxzonoid.dependence:spearman_rho": None,
    "maxzonoid.dependence:multivariate_rho": None,
    "maxzonoid.dependence:extremal_table": None,
    "maxzonoid.dependence:kendall_tau_2d": None,
    "maxzonoid.alternation:check_extremal_consistency": None,
    "maxzonoid.alternation:construct_from_extremal": None,
}


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + int(value)


def _variant(target, args):
    """Split a target's spans by a property of its input."""
    if target.endswith(":simulate"):
        discrete = getattr(args[0], "discrete", None)
        return "many" if discrete is not None and discrete.n_atoms >= 100 else "few"
    if target.endswith(":hausdorff_distance"):
        return f"{args[0].d}d"
    return ""


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.stats = {}      # name -> {"calls", "incl_s", "self_s", counters...}
        self.missing = []
        self._stack = []     # [span index, child seconds]
        self._patches = []   # (module, attribute, original)

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n == "maxzonoid" or n.startswith("maxzonoid.")]
        for target, hook in TARGETS.items():
            modname, fname = target.split(":")
            try:
                orig = getattr(importlib.import_module(modname), fname)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, orig, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    def _wrap(self, target, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            name = target
            variant = _variant(target, args)
            if variant:
                name = f"{target}[{variant}]"
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append([idx, 0.0])
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _, child = tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[idx] = (name, start, end, parent)
                st = tracer.stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                st["calls"] += 1
                st["incl_s"] += dur
                st["self_s"] += dur - child
                if hook is not None and result is not None:
                    hook(st, args, result)

        return wrapper

    def get(self, target, key, variant=None):
        """Sum of a stat over a target's spans (all variants unless one is named)."""
        total = 0
        for name, st in self.stats.items():
            base, _, rest = name.partition("[")
            if base == target and (variant is None or rest == f"{variant}]"):
                total += st.get(key, 0)
        return total


C, D, G = "maxzonoid.cli:", "maxzonoid.distribution:", "maxzonoid.geometry:"
E, P, A = "maxzonoid.estimate:", "maxzonoid.dependence:", "maxzonoid.alternation:"
DISC, KERNEL = "maxzonoid.families:discretize", "maxzonoid._kernels:support_sum"

# name, unit, how, targets.  how: "self" and "incl" are seconds per traced
# round (self time, or with children for a CLI subcommand's wall time),
# "rate:k" is counter k per second spent in the targets, "count:k" is
# counter k per round and "max:k" the largest value of k.
LAYERS = [
    *[(f"cli.{sub}_s", "s", "incl", [C + f"cmd_{sub}"])
      for sub in ("simulate", "estimate", "converge", "measures", "spectral", "quantile")],
    ("cli.io_s", "s", "self", [C + f for f in ("read_csv", "write_csv", "write_json", "load_spec")]),
    ("families.discretize_s", "s", "self", [DISC]),
    ("families.discretize_max_error", "1", "max:max_error", [DISC]),
    ("distribution.simulate_many_atoms_s", "s", "self", [D + "simulate[many]"]),
    ("distribution.simulate_few_atoms_s", "s", "self", [D + "simulate[few]"]),
    ("distribution.samples_per_s", "1/s", "rate:samples", [D + "simulate"]),
    ("distribution.cdf_s", "s", "self", [D + "cdf"]),
    ("distribution.copula_s", "s", "self", [D + "copula"]),
    ("distribution.pickands_s", "s", "self", [D + "pickands"]),
    ("distribution.points_per_s", "1/s", "rate:points", [D + "cdf", D + "copula", D + "pickands"]),
    ("kernels.support_s", "s", "self", [KERNEL]),
    ("kernels.support_terms_per_s", "1/s", "rate:terms", [KERNEL]),
    ("estimate.empirical_spectral_s", "s", "self", [E + "empirical_spectral"]),
    ("estimate.convergence_s", "s", "self", [E + "convergence_diagnostic"]),
    ("estimate.exceedances", "count", "count:exceedances", [E + "empirical_spectral"]),
    ("geometry.hausdorff_2d_s", "s", "self", [G + "hausdorff_distance[2d]"]),
    ("geometry.hausdorff_3d_s", "s", "self", [G + "hausdorff_distance[3d]"]),
    ("geometry.m_distance_s", "s", "self", [G + "m_distance"]),
    ("geometry.polar_volume_s", "s", "self", [G + "polar_volume"]),
    ("dependence.spearman_s", "s", "self", [P + "spearman_rho"]),
    ("dependence.multivariate_rho_s", "s", "self", [P + "multivariate_rho"]),
    ("dependence.extremal_table_s", "s", "self", [P + "extremal_table"]),
    ("dependence.kendall_s", "s", "self", [P + "kendall_tau_2d"]),
    ("alternation.consistency_s", "s", "self", [A + "check_extremal_consistency"]),
    ("alternation.construct_s", "s", "self", [A + "construct_from_extremal"]),
]


def layer_metrics(tracer, rounds):
    """{name: (value, unit)} of a traced run; value None when a wrapped
    function is missing (unmeasured).  Layers a workload does not run read 0."""
    out = {}
    for name, unit, how, targets in LAYERS:
        split = [(t.split("[")[0], t[len(t.split("[")[0]) + 1:-1] or None) for t in targets]
        if any(base in tracer.missing for base, _ in split):
            out[name] = (None, unit)
            continue
        kind, _, key = how.partition(":")

        def total(k):
            return sum(tracer.get(base, k, variant) for base, variant in split)

        if kind in ("self", "incl"):
            value = total(f"{kind}_s") / rounds
        elif kind == "rate":
            busy = total("incl_s")
            value = total(key) / busy if busy > 0 else 0.0
        elif kind == "count":
            value = total(key) / rounds
        else:
            value = max((st.get(key, 0.0) for n, st in tracer.stats.items()
                         if any(n.split("[")[0] == base for base, _ in split)), default=0.0)
        out[name] = (float(value), unit)
    return out
