"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line on success. The two dataset reproductions (criterion 10)
are release-only: they need the real datasets on disk (SPECGCONV_DATA) and
run for minutes, so they are marked slow and excluded from the default run.
"""
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from specgconv.analysis import gat_profile_stats, profile
from specgconv.data import SingleGraphDataset, load_single_graph, load_tu_dataset
from specgconv.filters import (
    AllPass,
    BandPass,
    CayleyBasis,
    ChebBasis,
    ExpLowPass,
    HighPass,
    LowPass,
    OneMinusRatio,
    Tabulated,
    cayley_bmatrix,
    evaluate,
    gcn_cutoff,
    gcn_theoretical_profile,
    parse_design,
)
from specgconv.gradcheck import gradcheck_suite
from specgconv.graphs import (
    LaplacianKind,
    average_degree,
    build_laplacian,
    make_ring,
)
from specgconv.kernels import cheb_kernels, design_kernel, design_kernelset, gcn_kernel
from specgconv.nn import (
    Dense,
    DepthwiseSeparableConv,
    ModelSpec,
    MultiSupportConv,
    TrainConfig,
    crossvalidate,
    init_parameters,
    param_count,
    parse_architecture,
    train,
)
from specgconv.spectral import decompose
from scaffold import count_parameters, near_regular_graph, random_graph

SYM = LaplacianKind.SYM_NORMALIZED


def sym_basis(g):
    return decompose(build_laplacian(g, SYM), SYM)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text} PASS")


def test_criterion_1_spectral_spatial_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 33))
        S = int(rng.integers(1, 5))
        f_in = int(rng.integers(1, 9))
        f_out = int(rng.integers(1, 9))
        g = random_graph(n, 0.3, seed=5000 + trial)
        basis = sym_basis(g)
        U = basis.eigenvectors
        B = rng.standard_normal((n, S))
        weights = [rng.standard_normal((f_in, f_out)) for _ in range(S)]
        H = rng.standard_normal((n, f_in))

        UtH = U.T @ H
        spectral = np.zeros((n, f_out))
        for j in range(f_out):
            for i in range(f_in):
                w = np.array([W[i, j] for W in weights])
                spectral[:, j] += U @ ((B @ w) * UtH[:, i])

        supports = [design_kernel(basis, Tabulated(values=B[:, s])) for s in range(S)]
        spatial = sum(C @ H @ W for C, W in zip(supports, weights))
        worst = max(worst, float(np.max(np.abs(spectral - spatial))))
        post = np.max(np.abs(np.maximum(spectral, 0) - np.maximum(spatial, 0)))
        worst = max(worst, float(post))
    elapsed = time.monotonic() - start
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    report(1, f"spectral/spatial forward equivalence on 100 instances (max err {worst:.2e}, {elapsed:.1f}s)")


FAMILY_INSTANCES = [
    LowPass(eta=5.0),
    LowPass(eta=1.0),
    HighPass(),
    BandPass(center=0.25, gamma=0.25),
    BandPass(center=0.5, gamma=4.0),
    BandPass(center=0.75, gamma=1.0),
    AllPass(),
    ExpLowPass(tau=10.0),
    OneMinusRatio(),
    ChebBasis(k=2),
    ChebBasis(k=5),
    CayleyBasis(s=4, h=1.0, r=3),
    CayleyBasis(s=5, h=2.0, r=3),
]


def test_criterion_2_profile_roundtrip():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(6, 24))
        g = random_graph(n, 0.35, seed=6000 + trial)
        basis = sym_basis(g)
        designs = FAMILY_INSTANCES + [Tabulated(values=rng.standard_normal(n))]
        for d in designs:
            p = profile(design_kernel(basis, d), basis)
            err = float(np.max(np.abs(p.standard - evaluate(d, basis))))
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    report(2, f"profile roundtrip for every family on 20 graphs (max err {worst:.2e})")


def test_criterion_3_chebyshev_profiles():
    start = time.monotonic()
    for g in (make_ring(24), random_graph(30, 0.25, seed=3)):
        L = build_laplacian(g, SYM)
        basis = decompose(L, SYM)
        ks = cheb_kernels(L, basis.lambda_max, 5)
        for k in range(1, 6):
            p = profile(ks.supports[k - 1], basis)
            closed = evaluate(ChebBasis(k=k), basis)
            assert np.max(np.abs(p.standard - closed)) < 1e-9
            off = p.full - np.diag(p.standard)
            assert np.max(np.abs(off)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    report(3, "Chebyshev S=5 profiles match the recursion and stay diagonal")


def test_criterion_4_gcn_profiles():
    g = make_ring(64)
    basis = sym_basis(g)
    p = profile(gcn_kernel(g), basis)
    assert np.max(np.abs(p.standard - (1 - 2 * basis.eigenvalues / 3))) < 1e-8
    off = p.full - np.diag(p.standard)
    assert np.max(np.abs(off)) < 1e-8
    assert abs(gcn_cutoff(average_degree(g)) - 1.5) < 1e-6

    for seed in range(5):
        gr = near_regular_graph(40, seed=seed)
        degrees = set(gr.degrees.astype(int))
        assert degrees <= {3, 4}
        b = sym_basis(gr)
        pr = profile(gcn_kernel(gr), b)
        approx = gcn_theoretical_profile(average_degree(gr), b.eigenvalues)
        assert np.max(np.abs(pr.standard - approx)) < 0.05
    report(4, "GCN ring profile exact, near-regular approximation within 0.05")


def test_criterion_5_cayley_consistency():
    g = random_graph(18, 0.3, seed=11)
    basis = sym_basis(g)
    lam = basis.eigenvalues
    rng = np.random.default_rng(99)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 3.0))
        c0 = rng.standard_normal()
        a = rng.standard_normal(r)
        b = rng.standard_normal(r)
        ratio = (h * lam - 1j) / (h * lam + 1j)
        oracle = c0 + 2 * np.real(sum(
            ((a[k - 1] + 1j * b[k - 1]) / 2) * ratio**k for k in range(1, r + 1)
        ))
        B = cayley_bmatrix(basis, h=h, r=r)
        coeffs = np.concatenate([[c0], np.column_stack([a, b]).ravel()])
        worst = max(worst, float(np.max(np.abs(B @ coeffs - oracle))))
    elapsed = time.monotonic() - start
    assert worst < 1e-10, worst
    assert elapsed < 1.0, elapsed
    report(5, f"Cayley basis reassembly matches complex form (max err {worst:.2e})")


def test_criterion_6_gradient_suite():
    start = time.monotonic()
    results = gradcheck_suite(seed=0)
    elapsed = time.monotonic() - start
    for name, err in results:
        assert err < 1e-5, f"{name}: {err}"
    assert elapsed < 60.0, elapsed
    report(6, f"{len(results)} gradient cases below 1e-5 in {elapsed:.1f}s")


def test_criterion_7_parameter_count_formulas():
    assert param_count(parse_architecture("DSG160-DSG7"), 1433, 4) == 236772
    assert param_count(parse_architecture("G160-G7"), 1433, 4) == 921600

    rng = np.random.default_rng(21)
    for _ in range(50):
        S = int(rng.integers(1, 6))
        f0 = int(rng.integers(1, 12))
        layers = []
        for _ in range(int(rng.integers(1, 5))):
            cls = (MultiSupportConv, DepthwiseSeparableConv, Dense)[int(rng.integers(3))]
            layers.append(cls(out=int(rng.integers(1, 12)),
                              use_bias=bool(rng.integers(2)), activation="relu"))
        spec = ModelSpec(tuple(layers))
        params = init_parameters(spec, f0, S, np.random.default_rng(0))
        assert param_count(spec, f0, S) == count_parameters(params)
    report(7, "parameter-count formulas equal enumerated storage (Cora model 236772/921600)")


def _bandpass_separation_trial(graph, basis, C_bp, C_gcn, trial):
    rng = np.random.default_rng(1000 + trial)
    x = rng.standard_normal(graph.n)
    scores = C_bp @ x
    labels = (scores > 0).astype(int)
    bayes = float(np.mean((scores > 0).astype(int) == labels))
    perm = rng.permutation(graph.n)
    train_mask = np.zeros(graph.n, dtype=bool)
    train_mask[perm[: graph.n // 2]] = True
    ds = SingleGraphDataset(
        graph=replace(graph, features=x[:, None]), labels=labels,
        masks={"train": train_mask, "val": np.zeros(graph.n, bool), "test": ~train_mask},
    )
    spec = ModelSpec((DepthwiseSeparableConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.05, epochs=300, seed=trial)
    accs = {}
    for name, C in (("bandpass", C_bp), ("gcn", C_gcn)):
        res = train(spec, [C], ds, cfg, track_test=True)
        accs[name] = res.metrics[-1]["test_acc"]
    return bayes, accs


def test_criterion_8_bandpass_separation():
    graph = random_graph(128, 0.25, seed=0)
    basis = sym_basis(graph)
    C_bp = design_kernel(basis, BandPass(center=0.5, gamma=4.0))
    C_gcn = gcn_kernel(graph)
    bayes_accs, bp_accs, gcn_accs = [], [], []
    for trial in range(10):
        bayes, accs = _bandpass_separation_trial(graph, basis, C_bp, C_gcn, trial)
        bayes_accs.append(bayes)
        bp_accs.append(accs["bandpass"])
        gcn_accs.append(accs["gcn"])
    # the generating filter itself is the Bayes oracle: clean labels
    assert np.mean(bayes_accs) == 1.0
    mean_bp = float(np.mean(bp_accs))
    mean_gcn = float(np.mean(gcn_accs))
    assert mean_bp >= 0.90, mean_bp
    assert mean_gcn <= 0.70, mean_gcn
    report(8, f"band-pass task: matching design {mean_bp:.3f} vs GCN {mean_gcn:.3f}")


def test_criterion_9_gat_simulation():
    g = near_regular_graph(30, seed=6, features_dim=8)
    basis = sym_basis(g)
    stats = gat_profile_stats(g, 250, 12345, basis)
    again = gat_profile_stats(g, 250, 12345, basis)
    for key in ("mean_standard", "mean_full", "std_standard", "std_full"):
        assert np.array_equal(stats[key], again[key])

    half = g.n // 2
    diffs = np.diff(stats["mean_standard"][:half])
    assert np.all(diffs < 0), diffs
    asym = np.max(np.abs(stats["mean_full"] - stats["mean_full"].T))
    assert asym > 10 * 1e-10, asym
    report(9, f"GAT 250-seed profile low-pass and asymmetric (asym {asym:.2e})")


DATA_DIR = os.environ.get("SPECGCONV_DATA", "")


@pytest.mark.slow
@pytest.mark.skipif(
    not (DATA_DIR and os.path.isdir(os.path.join(DATA_DIR, "cora"))),
    reason="needs the converted Cora dataset under $SPECGCONV_DATA/cora",
)
def test_criterion_10a_cora_reproduction():
    dataset = load_single_graph(os.path.join(DATA_DIR, "cora"))
    assert dataset.graph.n == 2708
    assert dataset.graph.features.shape[1] == 1433
    assert int(dataset.masks["train"].sum()) == 140

    basis = sym_basis(dataset.graph)
    designs = [parse_design(t) for t in (
        "lowpass(eta=5)", "bandpass(c=0.25,gamma=0.25)",
        "bandpass(c=0.5,gamma=0.25)", "bandpass(c=0.75,gamma=0.25)",
    )]
    kernels = design_kernelset(basis, designs)
    spec = parse_architecture("DSG160-DSG7")
    accs = []
    for seed in range(20):
        cfg = TrainConfig(learning_rate=0.01, epochs=400, seed=seed,
                          weight_decay=3e-4, depthwise_decay=3e-3,
                          input_dropout=0.75, kernel_dropout=0.75)
        res = train(spec, kernels, dataset, cfg, track_test=True)
        accs.append(res.metrics[-1]["test_acc"])
    mean = float(np.mean(accs))
    assert 0.82 <= mean <= 0.86, mean
    report("10a", f"Cora DSG160-DSG7 mean test accuracy {mean:.4f}")


@pytest.mark.slow
@pytest.mark.skipif(
    not (DATA_DIR and os.path.isdir(os.path.join(DATA_DIR, "ENZYMES"))),
    reason="needs the ENZYMES TU dataset under $SPECGCONV_DATA/ENZYMES",
)
def test_criterion_10b_enzymes_reproduction():
    dataset = load_tu_dataset(os.path.join(DATA_DIR, "ENZYMES"))
    assert len(dataset) == 600 and dataset.n_classes == 6

    designs = [ChebBasis(k=1), ChebBasis(k=2), ChebBasis(k=3)]
    kernelsets = [design_kernelset(sym_basis(g), designs) for g in dataset.graphs]
    spec = parse_architecture("G200-G200-G200-G200-meanmax-D6")
    cfg = TrainConfig(learning_rate=0.001, epochs=500, batch_size=180, seed=0,
                      weight_decay=1e-4, input_dropout=0.1, kernel_dropout=0.1)
    cv = crossvalidate(dataset, kernelsets, spec, cfg, folds=10, repeats=5)
    assert abs(cv.mean * 100 - 65.13) <= 4.0, cv.mean
    report("10b", f"ENZYMES-label 10-fold CV accuracy {cv.mean:.4f}")
