from dataclasses import replace

import numpy as np
import pytest

from specgconv.analysis import (
    export_profile,
    gat_profile_stats,
    load_profile_csv,
    profile,
    profile_deviation,
)
from specgconv.data import load_matrix_csv
from specgconv.filters import BandPass, ChebBasis, evaluate, gcn_theoretical_profile
from specgconv.graphs import LaplacianKind, average_degree, build_laplacian, make_ring
from specgconv.kernels import cheb_kernels, design_kernel, gcn_kernel
from specgconv.spectral import decompose
from scaffold import random_graph

SYM = LaplacianKind.SYM_NORMALIZED


def sym_basis(g):
    return decompose(build_laplacian(g, SYM), SYM)


def test_identity_profile():
    basis = sym_basis(random_graph(8, 0.4, seed=0))
    p = profile(np.eye(8), basis)
    assert np.max(np.abs(p.standard - 1.0)) < 1e-12
    assert np.max(np.abs(p.full - np.eye(8))) < 1e-12


def test_designed_kernel_roundtrip():
    g = random_graph(11, 0.35, seed=1)
    basis = sym_basis(g)
    d = BandPass(center=0.25, gamma=2.0)
    p = profile(design_kernel(basis, d), basis)
    assert np.max(np.abs(p.standard - evaluate(d, basis))) < 1e-10


def test_gcn_off_diagonal_mass_on_irregular_graph():
    g = random_graph(20, 0.15, seed=2)
    basis = sym_basis(g)
    p = profile(gcn_kernel(g), basis)
    off = p.full - np.diag(p.standard)
    assert np.max(np.abs(off)) > 1e-3


def test_profile_is_linear():
    g = random_graph(9, 0.4, seed=3)
    basis = sym_basis(g)
    rng = np.random.default_rng(4)
    C1, C2 = rng.standard_normal((2, 9, 9))
    a, b = 0.7, -1.3
    combo = profile(a * C1 + b * C2, basis).full
    split = a * profile(C1, basis).full + b * profile(C2, basis).full
    assert np.max(np.abs(combo - split)) < 1e-10


def test_chebyshev_full_profile_product_law():
    g = random_graph(10, 0.4, seed=5)
    L = build_laplacian(g, SYM)
    basis = decompose(L, SYM)
    ks = cheb_kernels(L, basis.lambda_max, 5)
    fulls = [profile(C, basis).full for C in ks.supports]
    for k in range(2, 5):
        predicted = 2.0 * fulls[1] @ fulls[k - 1] - fulls[k - 2]
        assert np.max(np.abs(fulls[k] - predicted)) < 1e-8


def test_profile_deviation_stats():
    g = make_ring(32)
    basis = sym_basis(g)
    p = profile(gcn_kernel(g), basis)
    same = profile_deviation(p, p.standard)
    assert same == {"max_abs": 0.0, "rms": 0.0}
    dev = profile_deviation(p, 1 - 2 * basis.eigenvalues / 3)
    assert dev["max_abs"] < 1e-8
    with pytest.raises(ValueError):
        profile_deviation(p, np.zeros(3))


def test_gcn_average_degree_approximation_is_diagnostic():
    g = random_graph(24, 0.2, seed=6)
    basis = sym_basis(g)
    p = profile(gcn_kernel(g), basis)
    dev = profile_deviation(p, gcn_theoretical_profile(average_degree(g), basis.eigenvalues))
    assert np.isfinite(dev["max_abs"]) and np.isfinite(dev["rms"])


def test_gat_stats_single_trial_zero_std():
    g = random_graph(12, 0.3, seed=7, features_dim=5)
    stats = gat_profile_stats(g, 1, 3, sym_basis(g))
    assert np.max(stats["std_standard"]) == 0.0
    assert np.max(stats["std_full"]) == 0.0


def test_gat_stats_need_a_trial():
    g = random_graph(12, 0.3, seed=7, features_dim=5)
    with pytest.raises(ValueError, match="need at least one trial"):
        gat_profile_stats(g, 0, 3, sym_basis(g))


def test_gat_stats_deterministic():
    g = random_graph(12, 0.3, seed=8, features_dim=5)
    basis = sym_basis(g)
    a = gat_profile_stats(g, 20, 77, basis)
    b = gat_profile_stats(g, 20, 77, basis)
    for key in ("mean_standard", "std_standard", "mean_full", "std_full"):
        assert np.array_equal(a[key], b[key])


def test_gat_stats_spread_nonzero():
    g = random_graph(12, 0.3, seed=9, features_dim=5)
    stats = gat_profile_stats(g, 25, 5, sym_basis(g))
    assert np.max(stats["std_standard"]) > 0.0


def test_export_import_bitwise(tmp_path):
    g = random_graph(7, 0.5, seed=10)
    basis = sym_basis(g)
    p = profile(gcn_kernel(g), basis)
    path = tmp_path / "prof.csv"
    export_profile(p, path)
    lam, std = load_profile_csv(path)
    assert np.array_equal(lam, p.lam)
    assert np.array_equal(std, p.standard)
    full = load_matrix_csv(tmp_path / "prof_full.csv")
    assert np.array_equal(full, p.full)


def test_export_rows_and_abs(tmp_path):
    basis = sym_basis(make_ring(3))
    C = design_kernel(basis, ChebBasis(k=2))
    p = profile(C, basis)
    path = tmp_path / "two.csv"
    export_profile(p, path, absolute=True)
    lam, std = load_profile_csv(path)
    assert lam.shape == (3,)
    assert np.array_equal(std, np.abs(p.standard))
    # storage itself keeps the sign
    assert p.standard[0] < 0


@pytest.mark.parametrize("header", ["c0,c1", "lambda,standard,extra", "standard,lambda"])
def test_profile_reader_needs_the_exact_header(tmp_path, header):
    path = tmp_path / "p.csv"
    path.write_text(header + "\n" + "0.5," * (header.count(",")) + "0.5\n")
    with pytest.raises(ValueError, match="expected 'lambda,standard'"):
        load_profile_csv(path)


def test_profile_dimension_mismatch():
    basis = sym_basis(make_ring(5))
    with pytest.raises(ValueError):
        profile(np.eye(4), basis)


def test_export_two_node_profile_has_two_rows(tmp_path):
    from specgconv.graphs import Graph
    from specgconv.spectral import decompose
    from specgconv.graphs import build_laplacian

    g = Graph(edges=[(0, 1)], weights=[1.0], features=np.ones((2, 1)))
    basis = decompose(build_laplacian(g, SYM), SYM)
    path = tmp_path / "p.csv"
    export_profile(profile(np.eye(2), basis), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + one row per node
    assert lines[0] == "lambda,standard"


def test_degenerate_eigenspace_trace_is_basis_invariant():
    # on a ring the spectrum is degenerate; the per-eigenvalue standard
    # profile of a non-designed kernel depends on the eigenspace basis, but
    # the trace of the full profile over an eigenspace does not
    from specgconv.kernels import gat_sample_kernel

    g = replace(make_ring(6), features=np.random.default_rng(3).standard_normal((6, 3)))
    basis = sym_basis(g)
    lam, U = basis.eigenvalues, basis.eigenvectors
    pairs = [i for i in range(5) if abs(lam[i + 1] - lam[i]) < 1e-12]
    assert pairs, "ring spectrum should be degenerate"
    i = pairs[0]

    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    U2 = U.copy()
    U2[:, i : i + 2] = U[:, i : i + 2] @ rot

    C = gat_sample_kernel(g, 11)
    full1 = U.T @ C @ U
    full2 = U2.T @ C @ U2
    block1 = np.trace(full1[i : i + 2, i : i + 2])
    block2 = np.trace(full2[i : i + 2, i : i + 2])
    assert block1 == pytest.approx(block2, abs=1e-10)
    # while the individual diagonal entries shift with the basis choice
    assert abs(full1[i, i] - full2[i, i]) > 1e-6
