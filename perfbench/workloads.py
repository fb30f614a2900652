"""The benchmark's workloads and the checks on their outputs.

Each workload generates its inputs from the seed (untimed), then repeats a
timed set-up and a timed step:

* cora-dsg: set-up is load_single_graph -> build_laplacian -> decompose ->
  design_kernelset on a Cora-shaped graph; a step is one DSG160-DSG7 ``train``
  call (one epoch) with dual dropout 0.75.
* enzymes-cv: set-up is load_tu_dataset plus Laplacian, decompose and
  design_kernelset for each of 600 ENZYMES-shaped graphs; a step is one
  two-fold, one-epoch ``crossvalidate`` call of G200x4-meanmax-D6
  (Chebyshev k=1..3).
* analyze-gat: set-up is one ``specgconv analyze --kernel gat:<seed>`` call
  with an empty eigendecomposition cache; a step is the same call with the
  cache filled.

Every call into the program goes through its module attributes
(``nn.train``, not a name bound at import), so the tracer's replacements are
seen. Check functions return None for a correct output, else one line saying
what is wrong; each failed check counts one failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import counts
import gen

from specgconv import cli, data, filters, graphs, kernels, nn, spectral

SYM = graphs.LaplacianKind.SYM_NORMALIZED
RTOL = 1e-10   # ROADMAP tolerance for numerical rewrites, relative to the largest value
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class Ledger:
    """Operations attempted and failed. An operation fails if it raises or
    its output check reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def timed(self, what, fn, ops=1):
        """Run fn as ``ops`` operations; returns (result or None if it raised, seconds)."""
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a broken program is a failed operation, not a crash
            self.fail(f"{what}: {type(exc).__name__}: {exc}", ops)
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, what, problems):
        for p in problems:
            if p:
                self.fail(f"{what}: {p}")

    def fail(self, message, ops=1):
        self.failed += ops
        self.errors.append(message)


def close(got, want, rtol=RTOL):
    """None if the arrays agree within rtol of the reference's largest magnitude."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"shape {got.shape} != reference {want.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite values"
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    return None if err <= rtol * max(scale, 1e-300) else f"max deviation {err:.3e} (scale {scale:.3e})"


def check_reference(name, got: dict):
    """Compare a canary's outputs with those recorded in reference.json."""
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        want = json.load(fh)[name]
    for key, ref in want.items():
        problem = close(got.get(key, []), ref)
        if problem:
            return f"{key}: {problem}"
    return None


def check_basis(basis, n, first=None):
    """Invariants of a sym-normalized eigenbasis, and bitwise repeatability."""
    lam, U = basis.eigenvalues, basis.eigenvectors
    if lam.shape != (n,) or U.shape != (n, n):
        return f"basis shapes {lam.shape}, {U.shape} for n={n}"
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(U))):
        return "non-finite basis"
    if np.any(np.diff(lam) < 0) or abs(lam[0]) > 1e-8 or lam[-1] > 2 + 1e-8:
        return "eigenvalues unsorted or outside [0, 2]"
    if first is not None and not np.array_equal(lam, first):
        return "eigenvalues differ from the first set-up"
    return None


def _trajectory(result, keys):
    return {k: [row[k] for row in result.metrics] for k in keys}


def check_trajectory(traj: dict, epochs: int, first=None):
    for key, values in traj.items():
        if len(values) != epochs:
            return f"{key}: {len(values)} epochs, expected {epochs}"
        if not np.all(np.isfinite(values)):
            return f"{key}: non-finite loss"
    if first is not None and traj != first:
        return "loss trajectory differs from the first step"
    return None


class Workload:
    """Untimed hooks before each set-up and step, and computed counts; a
    workload overrides what it needs."""

    cache_dir = None

    def before_setup(self):
        pass

    def before_step(self):
        pass

    def counts(self, state):
        return {}


# ---------------------------------------------------------------------------
# cora-dsg
# ---------------------------------------------------------------------------

CORA_DESIGNS = ("lowpass(eta=5)", "bandpass(c=0.25,gamma=0.25)",
                "bandpass(c=0.5,gamma=0.25)", "bandpass(c=0.75,gamma=0.25)")
CORA_ARCH = "DSG160-DSG7"
LOSS_KEYS = ("train_loss", "val_loss", "test_loss")


def cora_config(seed, epochs):
    return nn.TrainConfig(learning_rate=0.01, epochs=epochs, weight_decay=3e-4,
                          depthwise_decay=3e-3, input_dropout=0.75, kernel_dropout=0.75,
                          seed=seed)


def cora_pipeline(directory):
    dataset = data.load_single_graph(directory)
    basis = spectral.decompose(graphs.build_laplacian(dataset.graph, SYM), SYM)
    ks = kernels.design_kernelset(basis, [filters.parse_design(t) for t in CORA_DESIGNS])
    return dataset, basis, ks


class CoraDSG(Workload):
    name = "cora-dsg"
    epochs = 1
    setup_reps = 2
    shape = gen.CORA
    canary_shape = gen.scaled_cora(240, 300)
    canary_epochs = 3

    def __init__(self, work, seed):
        self.dir = os.path.join(work, "cora")
        self.seed = seed
        self.spec = nn.parse_architecture(CORA_ARCH)
        self.setup_ops = 1       # one decompose call
        self.units = self.epochs
        self._lam = self._traj = None

    def prepare(self):
        gen.write_single_graph(self.dir, gen.make_single_graph(self.shape, self.seed))

    def canary(self, work):
        directory = os.path.join(work, "cora-canary")
        gen.write_single_graph(directory, gen.make_single_graph(self.canary_shape, 0))
        dataset, _, ks = cora_pipeline(directory)
        result = nn.train(self.spec, ks, dataset, cora_config(0, self.canary_epochs),
                          track_test=True)
        return _trajectory(result, LOSS_KEYS)

    def setup(self):
        return cora_pipeline(self.dir)

    def check_setup(self, state):
        dataset, basis, ks = state
        problem = check_basis(basis, self.shape.n, self._lam)
        if problem is None and (ks.n_kernels != len(CORA_DESIGNS)
                                or not all(np.all(np.isfinite(C)) for C in ks.supports)):
            problem = "kernel set malformed or non-finite"
        if self._lam is None:
            self._lam = basis.eigenvalues.copy()
        return [problem]

    def step(self, state):
        dataset, _, ks = state
        return nn.train(self.spec, ks, dataset, cora_config(self.seed, self.epochs),
                        track_test=True)

    def check_step(self, result):
        traj = _trajectory(result, LOSS_KEYS)
        problem = check_trajectory(traj, self.epochs, self._traj)
        if self._traj is None:
            self._traj = traj
        return [problem]

    def counts(self, state):
        c = counts.transductive_epoch(CORA_ARCH, self.shape.f0, len(CORA_DESIGNS), self.shape.n)
        return {"nn.epoch_gflop": c["flops"] / 1e9, "nn.mask_draws": c["draws"]}


# ---------------------------------------------------------------------------
# enzymes-cv
# ---------------------------------------------------------------------------

ENZ_DESIGNS = ("cheb(k=1)", "cheb(k=2)", "cheb(k=3)")
ENZ_ARCH = "G200-G200-G200-G200-meanmax-D6"


def enzymes_config(seed, epochs):
    return nn.TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=180,
                          weight_decay=1e-4, input_dropout=0.1, kernel_dropout=0.1, seed=seed)


def enzymes_pipeline(directory):
    dataset = data.load_tu_dataset(directory)
    designs = [filters.parse_design(t) for t in ENZ_DESIGNS]
    bases, kernelsets = [], []
    for g in dataset.graphs:
        basis = spectral.decompose(graphs.build_laplacian(g, SYM), SYM)
        bases.append(basis)
        kernelsets.append(kernels.design_kernelset(basis, designs))
    return dataset, bases, kernelsets


def _cv_summary(cv):
    return {"cv_mean": [cv.mean], "best_epochs": list(cv.best_epochs)}


class EnzymesCV(Workload):
    name = "enzymes-cv"
    epochs = 1
    folds = 2
    setup_reps = 5
    shape = gen.ENZYMES
    canary_shape = gen.TUShape(n_graphs=24, min_nodes=10, max_nodes=16, edges_per_node=1.9,
                               n_node_labels=3, n_classes=6)
    canary_epochs = 2

    def __init__(self, work, seed):
        self.dir = os.path.join(work, "ENZYMES")
        self.seed = seed
        self.spec = nn.parse_architecture(ENZ_ARCH)
        self.setup_ops = self.shape.n_graphs     # one decompose call per graph
        self.units = self.folds * self.epochs
        self._lams = self._cv = None

    def prepare(self):
        gen.write_tu(self.dir, gen.make_tu(self.shape, self.seed))

    def canary(self, work):
        directory = os.path.join(work, "enzymes-canary", "ENZYMES")
        gen.write_tu(directory, gen.make_tu(self.canary_shape, 0))
        dataset, _, kss = enzymes_pipeline(directory)
        cfg = enzymes_config(0, self.canary_epochs)
        cv = nn.crossvalidate(dataset, kss, self.spec, cfg, folds=self.folds)
        fold_ids = data.make_folds(dataset, self.folds, seed=0)
        result = nn.train(self.spec, kss, dataset, cfg, train_idx=np.flatnonzero(fold_ids != 0),
                          val_idx=np.flatnonzero(fold_ids == 0))
        return {**_cv_summary(cv), **_trajectory(result, ("train_loss", "val_loss"))}

    def setup(self):
        return enzymes_pipeline(self.dir)

    def check_setup(self, state):
        dataset, bases, kss = state
        if len(dataset) != self.shape.n_graphs or len(kss) != len(dataset):
            return [f"{len(dataset)} graphs loaded, {len(kss)} kernel sets"]
        first = self._lams or [None] * len(bases)
        problems = [check_basis(b, g.n, f) for b, g, f in zip(bases, dataset.graphs, first)]
        if self._lams is None:
            self._lams = [b.eigenvalues.copy() for b in bases]
        return problems

    def step(self, state):
        dataset, _, kss = state
        return nn.crossvalidate(dataset, kss, self.spec, enzymes_config(self.seed, self.epochs),
                                folds=self.folds)

    def check_step(self, cv):
        summary = _cv_summary(cv)
        problem = None
        if not (0.0 <= cv.mean <= 1.0) or not all(0 <= e < self.epochs for e in cv.best_epochs):
            problem = f"CV result out of range: {summary}"
        elif self._cv is not None and summary != self._cv:
            problem = "CV result differs from the first step"
        if self._cv is None:
            self._cv = summary
        return [problem]

    def counts(self, state):
        ds = state[0]
        sizes = np.array([g.n for g in ds.graphs])
        fold_ids = data.make_folds(ds, self.folds, seed=self.seed)
        flops = draws = 0
        for f in range(self.folds):
            c = counts.inductive_epoch(ENZ_ARCH, ds.graphs[0].features.shape[1],
                                       len(ENZ_DESIGNS), sizes[fold_ids != f], sizes)
            flops, draws = flops + c["flops"], draws + c["draws"]
        return {"nn.epoch_gflop": flops / self.folds / 1e9, "nn.mask_draws": draws / self.folds}


# ---------------------------------------------------------------------------
# analyze-gat
# ---------------------------------------------------------------------------

ANALYZE_OUTPUTS = ("gat_mean_standard.csv", "gat_std_standard.csv", "gat_mean_full.csv",
                   "gat_std_full.csv", "summary.json")


def run_cli(argv, cache_dir):
    """One in-process CLI invocation with SPECGCONV_CACHE set; returns its exit code."""
    old = os.environ.get("SPECGCONV_CACHE")
    os.environ["SPECGCONV_CACHE"] = cache_dir
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        if old is None:
            del os.environ["SPECGCONV_CACHE"]
        else:
            os.environ["SPECGCONV_CACHE"] = old


def analyze_argv(graph_dir, seed, trials, out):
    return ["analyze", "--graph", graph_dir, "--kernel", f"gat:{seed}",
            "--trials", str(trials), "--out", out]


def _read_bytes(directory):
    out = {}
    for name in ANALYZE_OUTPUTS:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _csv(directory, name):
    return np.loadtxt(os.path.join(directory, name), delimiter=",", skiprows=1, ndmin=2)


def check_gat_outputs(directory, graph_dir, trials):
    """The exported mean/std profiles describe row-stochastic attention kernels
    on the graph's closed neighbourhoods, in the program's own eigenbasis."""
    dataset = data.load_single_graph(graph_dir)
    g = dataset.graph
    basis = spectral.decompose(graphs.build_laplacian(g, SYM), SYM)
    lam_own = np.linalg.eigvalsh(graphs.build_laplacian(g, SYM))
    mean_std, std_std = _csv(directory, "gat_mean_standard.csv"), _csv(directory, "gat_std_standard.csv")
    mean_full, std_full = _csv(directory, "gat_mean_full.csv"), _csv(directory, "gat_std_full.csv")
    n = g.n
    if mean_full.shape != (n, n) or std_full.shape != (n, n) or mean_std.shape != (n, 2):
        return f"output shapes {mean_full.shape}, {std_full.shape}, {mean_std.shape}"
    if np.max(np.abs(mean_std[:, 0] - lam_own)) > 1e-8:
        return "lambda column differs from the Laplacian spectrum"
    if not (np.array_equal(mean_std[:, 1], np.diagonal(mean_full))
            and np.array_equal(std_std[:, 1], np.diagonal(std_full))):
        return "standard profiles are not the diagonals of the full profiles"
    if np.min(std_full) < 0:
        return "negative standard deviation"
    U = basis.eigenvectors
    K = U @ mean_full @ U.T
    support = (g.adjacency > 0) | np.eye(n, dtype=bool)
    if np.max(np.abs(K.sum(axis=1) - 1.0)) > 1e-8:
        return "mean kernel rows do not sum to 1"
    if np.max(np.abs(K[~support]), initial=0.0) > 1e-8 or np.min(K[support]) < -1e-8:
        return "mean kernel leaves the closed neighbourhoods or is negative"
    with open(os.path.join(directory, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary.get("trials") != trials or summary.get("n") != n:
        return f"summary.json says trials={summary.get('trials')}, n={summary.get('n')}"
    return None


class AnalyzeGAT(Workload):
    name = "analyze-gat"
    trials = 5
    setup_reps = 2
    shape = gen.scaled_cora(1000, gen.CORA.f0)
    canary_shape = gen.scaled_cora(60, 40)
    canary_trials = 3

    def __init__(self, work, seed):
        self.work = work
        self.dir = os.path.join(work, "cora1000")
        self.seed = seed
        self.cache_dir = os.path.join(work, "cache")
        self.setup_ops = 1       # one analyze invocation
        self.units = 1
        self._runs = 0
        self._out = None
        self._first = None

    def prepare(self):
        gen.write_single_graph(self.dir, gen.make_single_graph(self.shape, self.seed))

    def canary(self, work):
        directory = os.path.join(work, "analyze-canary")
        gen.write_single_graph(directory, gen.make_single_graph(self.canary_shape, 0))
        cache = os.path.join(work, "analyze-canary-cache")
        results = []
        for run in ("cold", "warm"):
            out = os.path.join(work, f"analyze-canary-{run}")
            if run_cli(analyze_argv(directory, 0, self.canary_trials, out), cache) != 0:
                raise RuntimeError(f"canary analyze ({run} cache) exited nonzero")
            results.append(_read_bytes(out))
        if results[0] != results[1]:
            raise RuntimeError("canary analyze: warm-cache outputs differ from cold")
        return {"mean_standard": _csv(out, "gat_mean_standard.csv").tolist(),
                "std_standard": _csv(out, "gat_std_standard.csv").tolist()}

    def _next_out(self):
        if self._out is not None:   # the first output is kept in memory for comparison
            shutil.rmtree(self._out, ignore_errors=True)
        self._runs += 1
        self._out = os.path.join(self.work, f"analyze-{self._runs}")

    def before_setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._next_out()

    def setup(self):
        return run_cli(analyze_argv(self.dir, self.seed, self.trials, self._out), self.cache_dir)

    def _check(self, rc):
        if rc != 0:
            return f"analyze exited {rc}"
        got = _read_bytes(self._out)
        if self._first is None:
            self._first = got
            return check_gat_outputs(self._out, self.dir, self.trials)
        if got != self._first:
            bad = [k for k in ANALYZE_OUTPUTS if got[k] != self._first[k]]
            return f"outputs differ from the first cold run: {', '.join(bad)}"
        return None

    def check_setup(self, rc):
        return [self._check(rc)]

    def before_step(self):
        self._next_out()

    def step(self, state):
        return self.setup()

    def check_step(self, rc):
        return [self._check(rc)]


WORKLOADS = {w.name: w for w in (CoraDSG, EnzymesCV, AnalyzeGAT)}
