"""The benchmark's three workloads.

Each workload builds its inputs once in ``setup`` and then runs rounds:
one round is the workload's full job mix under one round seed.  A round
times only the calls into the program; its outputs are checked after
the timer stops.  ``run_round`` returns (seconds, attempted, failed,
problems).
"""

import json
import math
import os
import time

import numpy as np

import maxzonoid as mz
from maxzonoid import cli

import checks as ck


def derived_seed(*key):
    """A 32-bit seed drawn from a SeedSequence keyed by the given integers."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def read_csv(path):
    """Rows of a CLI CSV output: '#' lines and the header row skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _atoms_of(spec):
    points = np.array([a["point"] for a in spec["atoms"]], float)
    masses = np.array([a["mass"] for a in spec["atoms"]], float)
    return points, masses


# ---------------------------------------------------------------------------
# simstudy: a bivariate simulation study through the command line


MO = (0.4, 0.7)
MW = [[0.3, 0.8], [0.7, 0.2]]

# name, model file, closed-form support, known Kendall tau
SIM_MODELS = [
    ("logistic", {"family": {"name": "logistic", "d": 2, "params": {"p": 2.0}}},
     lambda X: ck.h_logistic(X, 2.0), 0.5),
    ("neg_logistic", {"family": {"name": "neg_logistic", "d": 2, "params": {"lam": 1.0, "p": -1.0}}},
     lambda X: ck.h_neg_logistic(X, 1.0, -1.0), None),
    ("husler_reiss", {"family": {"name": "husler_reiss", "d": 2, "params": {"lam": 1.0}}},
     lambda X: ck.h_husler_reiss(X, 1.0), None),
    ("marshall_olkin", {"family": {"name": "marshall_olkin", "d": 2,
                                   "params": {"alpha1": MO[0], "alpha2": MO[1]}}},
     lambda X: ck.h_vertices(X, ck.marshall_olkin_vertices(*MO)), None),
    ("matrix_weights", {"family": {"name": "matrix_weights", "d": 2, "params": {"matrix": MW}}},
     lambda X: ck.h_atoms(X, MW), None),
]
# discretize fails on this model at the default --atoms; both calls exit 2
HR_SMALL = ("husler_reiss_0.5", {"family": {"name": "husler_reiss", "d": 2, "params": {"lam": 0.5}}},
            lambda X: ck.h_husler_reiss(X, 0.5), None)

SIM_N = 10_000
SIM_SMALL_N = 1_000
EST_THRESHOLD = 10.0
S_GRID = (20.0, 40.0, 80.0)
BAND_POINTS = [[1.0, 1.0], [0.5, 2.0], [2.0, 0.5], [3.0, 3.0]]


class SimStudy:
    nominal_round_s = 5.0

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.paths = {}
        for name, spec, _, _ in SIM_MODELS + [HR_SMALL]:
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            self.paths[name] = path

    def _out(self, name, what):
        return os.path.join(self.workdir, f"{name}.{what}")

    def _jobs(self, seed, alpha):
        """(model name, output kind, argv) of one round, in order."""
        jobs = []
        for k, (name, _, _, _) in enumerate(SIM_MODELS):
            m, s = self.paths[name], str(derived_seed(seed, k))
            sim = self._out(name, "sim.csv")
            jobs += [
                (name, "simulate", ["simulate", "--model", m, "--samples", str(SIM_N),
                                    "--seed", s, "--out", sim]),
                (name, "estimate", ["estimate", "--data", sim, "--threshold", str(EST_THRESHOLD),
                                    "--out", self._out(name, "est.json")]),
                (name, "converge", ["converge", "--model", m, "--data", sim,
                                    "--s-grid", ",".join(f"{v:g}" for v in S_GRID),
                                    "--out", self._out(name, "conv.csv")]),
                (name, "measures", ["measures", "--model", m, "--seed", s,
                                    "--out", self._out(name, "meas.json")]),
                (name, "quantile", ["quantile", "--model", m, "--alpha", str(alpha),
                                    "--out", self._out(name, "q.csv")]),
                (name, "spectral", ["spectral", "--model", m, "--to-atoms",
                                    "--out", self._out(name, "atoms.json")]),
            ]
        name, m = HR_SMALL[0], self.paths[HR_SMALL[0]]
        jobs += [
            (name, "spectral", ["spectral", "--model", m, "--to-atoms",
                                "--out", self._out(name, "atoms.json")]),
            (name, "simulate", ["simulate", "--model", m, "--samples", str(SIM_SMALL_N),
                                "--seed", str(derived_seed(seed, 99)),
                                "--out", self._out(name, "sim.csv")]),
        ]
        return jobs

    def run_round(self, seed):
        alpha = round(float(np.random.default_rng(derived_seed(seed, 7)).uniform(0.5, 0.95)), 4)
        jobs = self._jobs(seed, alpha)
        for _, _, argv in jobs:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        codes = [cli.main(argv) for _, _, argv in jobs]
        elapsed = time.perf_counter() - t0
        problems = []
        failed = 0
        hs = {name: (h, tau) for name, _, h, tau in SIM_MODELS + [HR_SMALL]}
        for (name, kind, argv), code in zip(jobs, codes):
            if code != 0:
                failed += 1
                continue
            h, tau = hs[name]
            label = f"{name} {kind}"
            out = argv[argv.index("--out") + 1]
            if kind == "simulate":
                X = read_csv(out)
                n = int(argv[argv.index("--samples") + 1])
                if X.shape != (n, 2):
                    problems.append(f"{label}: sample shape {X.shape}")
                    continue
                problems += ck.check_marginals_ks(X, label)
                problems += ck.check_cdf_bands(X, h, BAND_POINTS, label)
            elif kind == "estimate":
                doc = read_json(out)
                pts, ms = _atoms_of(doc["results"]["spectral"])
                problems += ck.check_estimate(pts, ms, doc["results"]["report"]["marginal_sums"],
                                              EST_THRESHOLD, SIM_N, label)
            elif kind == "converge":
                problems += ck.check_convergence(read_csv(out), S_GRID, label)
            elif kind == "measures":
                problems += ck.check_measures(read_json(out), h, label, kendall=tau)
            elif kind == "quantile":
                problems += ck.check_quantile(read_csv(out), h, alpha, label)
            elif kind == "spectral":
                doc = read_json(out)
                pts, ms = _atoms_of(doc["results"]["spectral"])
                problems += ck.check_atoms(pts, ms, h, label)
        return elapsed, len(jobs), failed, problems


# ---------------------------------------------------------------------------
# evaluate: bulk cdf, copula and Pickands values on fixed planar bodies


EVAL_N = 4_000
EVAL_CHECK_N = 200


def _atom_body(K):
    A = K.spectral.masses[:, None] * K.spectral.atoms
    return mz.MaxStableModel(K), (lambda X, _A=A: ck.h_atoms(X, _A))


class Evaluate:
    nominal_round_s = 3.0

    def setup(self, seed, workdir):
        self.bodies = []
        for name, params in (("logistic", {"p": 2.0}), ("neg_logistic", {"lam": 1.0, "p": -1.0}),
                             ("husler_reiss", {"lam": 1.0})):
            sigma = mz.discretize(mz.make_family(name, 2, **params), 1000).measure
            K = mz.normalize_dependency(mz.zonoid_from_spectral(sigma))
            self.bodies.append((f"{name} atoms", *_atom_body(K)))
        source = mz.MaxStableModel(mz.make_family("logistic", 2, p=3.0)).with_discrete(200)
        X = mz.simulate(source, 20_000, derived_seed(seed, 1))
        sigma = mz.empirical_spectral(X, 20.0)
        K = mz.normalize_dependency(mz.zonoid_from_spectral(sigma))
        self.bodies.append(("empirical", *_atom_body(K)))
        self.bodies.append(("marshall_olkin polygon",
                            mz.MaxStableModel(mz.make_family("marshall_olkin", 2, alpha1=MO[0], alpha2=MO[1])),
                            lambda X: ck.h_vertices(X, ck.marshall_olkin_vertices(*MO))))
        self.bodies.append(("logistic p=3 norm", mz.MaxStableModel(mz.make_family("logistic", 2, p=3.0)),
                            lambda X: ck.h_logistic(X, 3.0)))

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        n = EVAL_N
        X = np.exp(rng.uniform(math.log(0.2), math.log(20.0), (n, 2)))
        k = n // 50
        X[:k, 0] = 0.0
        X[k:2 * k, 1] = np.inf
        X[2 * k:3 * k, 0] = np.inf
        X[3 * k, :] = (0.0, np.inf)
        U = rng.random((n, 2))
        U[:k, 1] = 1.0
        U[k:2 * k, 0] = 1.0
        U[2 * k:2 * k + 5, 0] = 0.0
        T = rng.random(n)
        T[:2] = (0.0, 1.0)
        t = float(rng.uniform(0.5, 4.0))
        idx = rng.choice(n, EVAL_CHECK_N, replace=False)
        return X, t, U, T, idx

    def run_round(self, seed):
        X, t, U, T, idx = self.inputs(seed)
        tX = t * X
        outs = []
        elapsed = 0.0
        for _, model, _ in self.bodies:
            t0 = time.perf_counter()
            F = mz.cdf(model, X)
            Ft = mz.cdf(model, tX)
            C = mz.copula(model, U)
            A = mz.pickands(model, T)
            elapsed += time.perf_counter() - t0
            outs.append((F, Ft, C, A))
        problems = []
        for (label, _, h), (F, Ft, C, A) in zip(self.bodies, outs):
            problems += ck.check_values(F[idx], ck.law_cdf(h, X[idx]), f"{label} cdf")
            problems += ck.check_values(C[idx], ck.law_copula(h, U[idx]), f"{label} copula")
            TT = np.column_stack([T[idx], 1.0 - T[idx]])
            problems += ck.check_values(A[idx], h(TT), f"{label} pickands")
            problems += ck.check_frechet_bounds(X, F, label)
            problems += ck.check_max_stability(F, Ft, t, label)
            problems += ck.check_copula_margins(U, C, label)
            problems += ck.check_pickands(T, A, label)
        return elapsed, 4 * len(self.bodies), 0, problems


# ---------------------------------------------------------------------------
# compare: trivariate model comparison


NNLS_ATOMS = 500
MC_N = 400_000
HAUSDORFF_GRID_3D = 20_000  # the library's default grid sizes
M_DISTANCE_GRID = {2: 4096, 3: 20_000}
INCONSISTENT = {(0,): 1.0, (1,): 1.0, (2,): 1.0, (0, 1): 1.2, (0, 2): 1.5, (1, 2): 1.9, (0, 1, 2): 2.0}


class Compare:
    nominal_round_s = 3.6

    def setup(self, seed, workdir):
        self.logistic = {p: mz.make_family("logistic", 3, p=p) for p in (1.5, 2.5)}
        self.cube = {d: mz.unit_cube(d) for d in (2, 3)}
        self.cross = {d: mz.unit_cross_polytope(d) for d in (2, 3)}
        self.inconsistent = mz.ExtremalTable(3, INCONSISTENT)

    def run_round(self, seed):
        s = [derived_seed(seed, k) for k in range(6)]
        c3, x3 = self.cube[3], self.cross[3]
        r = {}
        t0 = time.perf_counter()
        for p, K in self.logistic.items():
            res = mz.discretize(K, NNLS_ATOMS)
            r["disc", p] = res
            r["haus", p] = mz.hausdorff_distance(mz.zonoid_from_spectral(res.measure), K)
        r["haus_cc"] = mz.hausdorff_distance(c3, x3)
        r["md3"] = mz.m_distance(c3, x3)
        r["md2"] = mz.m_distance(self.cube[2], self.cross[2])
        r["md_self"] = mz.m_distance(self.logistic[1.5], self.logistic[1.5])
        r["vol_cube"] = mz.polar_volume(c3, method="mc", n=MC_N, seed=s[0])
        r["vol_cross"] = mz.polar_volume(x3, method="mc", n=MC_N, seed=s[1])
        r["rho_cube"] = mz.multivariate_rho(mz.MaxStableModel(c3), n=MC_N, seed=s[2])
        r["rho_log"] = mz.multivariate_rho(mz.MaxStableModel(self.logistic[2.5]), n=MC_N, seed=s[3])
        r["sp_cube"] = mz.spearman_rho(mz.MaxStableModel(c3), n=MC_N, seed=s[4])
        r["sp_cross"] = mz.spearman_rho(mz.MaxStableModel(x3), n=MC_N, seed=s[5])
        tables = {}
        for p, d in ((1.5, 3), (2.5, 4)):
            table = mz.extremal_table(mz.MaxStableModel(mz.make_family("logistic", d, p=p)))
            verdict = mz.check_extremal_consistency(table)
            built = mz.construct_from_extremal(table)
            tables[p, d] = (table, verdict, built)
        r["reject"] = mz.check_extremal_consistency(self.inconsistent)
        elapsed = time.perf_counter() - t0
        attempted = len(r) + 3 * len(tables)

        problems = []
        for p, K in self.logistic.items():
            sigma = r["disc", p].measure
            problems += ck.check_discretized(sigma.atoms, sigma.masses, lambda X, _p=p: ck.h_logistic(X, _p),
                                             r["haus", p], 3, seed, f"logistic p={p} nnls")
        problems += ck.check_hausdorff_grid(r["haus_cc"], 2 / math.sqrt(3), HAUSDORFF_GRID_3D, 3,
                                            math.sqrt(3) + 1, "hausdorff(cube, cross) d=3")
        problems += ck.check_close(r["md3"], 3 * math.log(3), ck.m_distance_tolerance(M_DISTANCE_GRID[3], 3),
                                   "m_distance(cube, cross) d=3")
        problems += ck.check_close(r["md2"], math.log(4), ck.m_distance_tolerance(M_DISTANCE_GRID[2], 2),
                                   "m_distance(cube, cross) d=2")
        problems += ck.check_close(r["md_self"], 0.0, 0.0, "m_distance(K, K)")
        problems += ck.check_mc_volume(float(r["vol_cube"]), 1 / 6, 1.0, MC_N, "polar volume of the cube")
        problems += ck.check_mc_volume(float(r["vol_cross"]), 1.0, 1.0, MC_N, "polar volume of the cross")
        # rho = (6 V - 1) / 5 in d = 3; V of the logistic polar set is Gamma(1 + 1/p)^3 / Gamma(1 + 3/p)
        v_log = math.gamma(1 + 1 / 2.5) ** 3 / math.gamma(1 + 3 / 2.5)
        problems += ck.check_mc_volume((5 * float(r["rho_cube"]) + 1) / 6, 1 / 6, 1.0, MC_N, "multivariate rho, cube")
        problems += ck.check_mc_volume((5 * float(r["rho_log"]) + 1) / 6, v_log, 1.0, MC_N,
                                       "multivariate rho, logistic p=2.5")
        # spearman rho = 6 V(L polar) - 1 in d = 3 with L = (K + cube) / 2
        problems += ck.check_mc_volume((float(r["sp_cube"]) + 1) / 6, 1 / 6, 1.0, MC_N, "spearman rho, cube")
        problems += ck.check_mc_volume((float(r["sp_cross"]) + 1) / 6, 1 / 3, 1.0, MC_N, "spearman rho, cross")
        for (p, d), (table, verdict, built) in tables.items():
            label = f"logistic p={p} d={d}"
            problems += ck.check_logistic_theta(table.values, p, label)
            if not verdict.ok:
                problems.append(f"{label}: consistent table rejected")
            problems += ck.check_reproduces_theta(table.values, built.discrete.atoms,
                                                  built.discrete.masses, d, label)
        problems += ck.check_rejection(r["reject"], self.inconsistent.values, 3, "inconsistent table")
        return elapsed, attempted, 0, problems


WORKLOADS = {"simstudy": SimStudy, "evaluate": Evaluate, "compare": Compare}
