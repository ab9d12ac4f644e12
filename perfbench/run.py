"""Benchmark of the maxzonoid package: one workload, one seed, one process.

    python3 perfbench/run.py --workload simstudy|evaluate|compare \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  The
run sets up its inputs, then runs whole rounds of the workload's job mix,
each under a round seed derived from --seed, and checks every output.
The number of rounds is --seconds over the workload's nominal round
time, so a run is the same amount of work whatever the program's speed.
Times are scaled to a reference machine speed by a calibration loop timed
around every round (README, "Calibration").  With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 every other
round is traced and the line reports per-layer metrics.  The full record
(machine, round times, calibration, problems) goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 2  # extra fresh interpreters timed for setup_s
# Median time of calibrate() on the reference machine; times are reported
# in seconds at that machine's speed (see README, "Calibration").
CALIBRATION_REF_S = 0.1
CALIBRATION_SAMPLES = 2  # per calibration point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["simstudy", "evaluate", "compare"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter, print it and exit")
    return p.parse_args(argv)


def setup(args, workdir):
    """Import the package and build the workload's inputs; returns the
    workload, the import time and the whole set-up time."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import maxzonoid  # noqa: F401  (the timed import)
    import_s = time.perf_counter() - t0
    import workloads  # the benchmark's own modules, not timed

    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, workdir)
    return wl, import_s, import_s + time.perf_counter() - t1


def child_setups(args, cal_inputs):
    """Set-up times of fresh interpreters, run one after the other, and
    the calibration points taken around them."""
    times, points = [], [calibration_point(cal_inputs)]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        points.append(calibration_point(cal_inputs))
    return times, points


def calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.random((400, 2)), rng.random((4096, 2))


def calibrate(inputs):
    """Seconds for a fixed piece of the work the program spends most of
    its time on: a broadcast product over a 26 MB temporary, reduced by
    max and sum.  It runs none of the program's code."""
    A, X = inputs
    t0 = time.perf_counter()
    (X[:, None, :] * A[None]).max(axis=2).sum(axis=1)
    return time.perf_counter() - t0


def calibration_point(inputs):
    return statistics.mean(calibrate(inputs) for _ in range(CALIBRATION_SAMPLES))


def machine():
    import numpy
    import scipy
    import maxzonoid

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": maxzonoid.backend_name(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "maxzonoid")):
        raise SystemExit(f"error: no package source at {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    wl, import_s, setup_s = setup(args, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0
    import numpy as np
    import tracer as tr

    cal_inputs = calibration_inputs()
    child_times, setup_points = child_setups(args, cal_inputs)
    setups = [setup_s] + child_times
    n_rounds = max(3, math.ceil(args.seconds / wl.nominal_round_s - 1e-9))
    if args.trace:
        n_rounds = max(n_rounds, 4)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(args.seed).spawn(n_rounds)]
    tracer = tr.Tracer() if args.trace else None
    times, points, problems = [], [], []
    attempted = failed = 0
    for i, seed in enumerate(seeds):
        points.append(calibration_point(cal_inputs))
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            elapsed, att, fail, probs = wl.run_round(seed)
        finally:
            if traced:
                tracer.uninstall()
        times.append(elapsed)
        attempted += att
        failed += fail
        problems += [f"round {i}: {p}" for p in probs]
        print(f"round {i} seed {seed}: {elapsed:.3f} s{' traced' if traced else ''}, "
              f"{att} ops, {fail} failed, {len(probs)} problems", file=sys.stderr)
    points.append(calibration_point(cal_inputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each round in reference seconds, by the calibration points on either side of it
    ref_times = [t * 2 * CALIBRATION_REF_S / (points[i] + points[i + 1]) for i, t in enumerate(times)]
    setup_ref = statistics.median(setups) * CALIBRATION_REF_S / statistics.median(setup_points)

    if args.trace:
        layers = tr.layer_metrics(tracer, len(ref_times[1::2]))
        layers["setup.import_s"] = (import_s, "s")
        layers["trace.overhead_ratio"] = (statistics.median(ref_times[1::2]) / statistics.median(ref_times[::2]), "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_ref, "unit": "s"},
            "wall_s": {"value": sum(ref_times), "unit": "s"},
            "round_p50_s": {"value": statistics.median(ref_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  round_seeds=seeds, traced_rounds=list(range(1, n_rounds, 2)) if tracer else [],
                  round_s=times, round_ref_s=ref_times, calibration_points_s=points,
                  setup_samples_s=setups, setup_calibration_points_s=setup_points,
                  peak_rss_mb=peak_rss_mb, problems=problems, machine=machine(),
                  unmeasured=tracer.missing if tracer else [])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
