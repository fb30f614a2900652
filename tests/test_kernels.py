import tracemalloc

import numpy as np
import pytest

from specgconv.filters import AllPass, BandPass, ChebBasis, Tabulated, evaluate, parse_design
from specgconv.graphs import (
    Graph,
    LaplacianKind,
    build_laplacian,
    make_ring,
)
from specgconv.kernels import (
    KernelSet,
    cheb_kernels,
    design_kernel,
    design_kernelset,
    gat_sample_kernel,
    gcn_kernel,
)
from specgconv.spectral import SpectralBasis, decompose
from scaffold import near_regular_graph, random_graph

SYM = LaplacianKind.SYM_NORMALIZED


def sym_basis(g):
    return decompose(build_laplacian(g, SYM), SYM)


def test_allpass_design_is_identity():
    basis = sym_basis(random_graph(9, 0.4, seed=0))
    C = design_kernel(basis, AllPass())
    assert np.max(np.abs(C - np.eye(9))) < 1e-12


def test_tabulated_eigenvalues_reproduce_laplacian():
    g = random_graph(10, 0.3, seed=1)
    L = build_laplacian(g, SYM)
    basis = decompose(L, SYM)
    C = design_kernel(basis, Tabulated(values=basis.eigenvalues))
    assert np.max(np.abs(C - L)) < 1e-10


def test_design_roundtrip_bandpass():
    g = random_graph(8, 0.5, seed=2)
    basis = sym_basis(g)
    d = BandPass(center=0.5, gamma=1.0)
    C = design_kernel(basis, d)
    assert np.max(np.abs(C - C.T)) == 0.0
    got = np.diagonal(basis.eigenvectors.T @ C @ basis.eigenvectors)
    assert np.max(np.abs(got - evaluate(d, basis))) < 1e-10


def test_cheb_kernels_first_is_identity():
    ks = cheb_kernels(np.zeros((4, 4)), 2.0, 1)
    assert ks.n_kernels == 1
    assert np.array_equal(ks.supports[0], np.eye(4))


def test_cheb_second_kernel_profile_on_ring():
    g = make_ring(8)
    L = build_laplacian(g, SYM)
    basis = decompose(L, SYM)
    ks = cheb_kernels(L, basis.lambda_max, 2)
    prof = np.diagonal(basis.eigenvectors.T @ ks.supports[1] @ basis.eigenvectors)
    assert np.max(np.abs(prof - (2 * basis.eigenvalues / basis.lambda_max - 1))) < 1e-9


def test_cheb_kernels_refuse_an_order_above_the_node_count():
    L = build_laplacian(make_ring(6), SYM)
    assert cheb_kernels(L, 2.0, 6).n_kernels == 6
    with pytest.raises(ValueError, match=r"cheb\(k=7\): Chebyshev index above the node count 6"):
        cheb_kernels(L, 2.0, 7)


def test_cheb_kernels_match_design_recursion():
    g = random_graph(10, 0.4, seed=3)
    L = build_laplacian(g, SYM)
    basis = decompose(L, SYM)
    ks = cheb_kernels(L, basis.lambda_max, 5)
    U = basis.eigenvectors
    for k in range(1, 6):
        prof = np.diagonal(U.T @ ks.supports[k - 1] @ U)
        assert np.max(np.abs(prof - evaluate(ChebBasis(k=k), basis))) < 1e-9


def test_cheb_kernels_validation():
    with pytest.raises(ValueError):
        cheb_kernels(np.zeros((3, 3)), 0.0, 2)
    with pytest.raises(ValueError):
        cheb_kernels(np.zeros((3, 3)), 2.0, 0)


def test_gcn_kernel_two_node():
    g = Graph(edges=[(0, 1)], weights=[1.0], features=np.ones((2, 1)))
    assert np.allclose(gcn_kernel(g), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_gcn_kernel_decomposition_identity():
    # (D+I)^{-1} + (D+I)^{-1/2} A (D+I)^{-1/2} is the same support
    g = random_graph(12, 0.3, seed=4)
    d = g.degrees
    expect = np.diag(1.0 / (d + 1.0))
    scale = 1.0 / np.sqrt(d + 1.0)
    expect = expect + scale[:, None] * g.adjacency * scale[None, :]
    assert np.max(np.abs(gcn_kernel(g) - expect)) < 1e-12


def test_gcn_on_ring64_profile_and_offdiagonal():
    g = make_ring(64)
    basis = sym_basis(g)
    full = basis.eigenvectors.T @ gcn_kernel(g) @ basis.eigenvectors
    assert np.max(np.abs(np.diagonal(full) - (1 - 2 * basis.eigenvalues / 3))) < 1e-8
    off = full - np.diag(np.diagonal(full))
    assert np.max(np.abs(off)) < 1e-8


def test_gat_rows_stochastic_and_support():
    g = random_graph(15, 0.25, seed=5, features_dim=6)
    support = (g.adjacency > 0) | np.eye(g.n, dtype=bool)
    for seed in (9, 10, 11):
        K = gat_sample_kernel(g, seed)
        assert np.max(np.abs(K.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(K[~support] == 0.0)
        assert np.all(K >= 0.0)


def test_gat_isolated_neighborhood_row_is_unit():
    g = Graph(edges=[(0, 1)], weights=[1.0], features=np.arange(6, dtype=float).reshape(3, 2))
    K = gat_sample_kernel(g, 0)
    assert np.allclose(K[2], [0.0, 0.0, 1.0], atol=0)


def test_gat_deterministic_per_seed():
    g = random_graph(10, 0.3, seed=6, features_dim=4)
    assert np.array_equal(gat_sample_kernel(g, 123), gat_sample_kernel(g, 123))
    assert not np.array_equal(gat_sample_kernel(g, 123), gat_sample_kernel(g, 124))


def test_nonparametric_case_rank_one_supports():
    # B = I makes each designed support the outer product of one eigenvector
    g = random_graph(7, 0.5, seed=7)
    basis = sym_basis(g)
    for s in range(g.n):
        e = np.zeros(g.n)
        e[s] = 1.0
        C = design_kernel(basis, Tabulated(values=e))
        u = basis.eigenvectors[:, s]
        assert np.max(np.abs(C - np.outer(u, u))) < 1e-12


def spectral_layer_forward(U, B, weights, H):
    """Naive spectral-side forward: sum_i U diag(B W_i,j) U^T H_i per output."""
    n, f_in = H.shape
    f_out = weights[0].shape[1]
    out = np.zeros((n, f_out))
    for j in range(f_out):
        acc = np.zeros(n)
        for i in range(f_in):
            w_vec = np.array([W[i, j] for W in weights])
            acc = acc + U @ np.diag(B @ w_vec) @ U.T @ H[:, i]
        out[:, j] = acc
    return out


def test_spectral_layer_equals_spatial_layer():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(5, 20))
        g = random_graph(n, 0.4, seed=100 + trial)
        basis = sym_basis(g)
        S = int(rng.integers(1, 5))
        f_in, f_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        B = rng.standard_normal((n, S))
        weights = [rng.standard_normal((f_in, f_out)) for _ in range(S)]
        H = rng.standard_normal((n, f_in))

        spectral = spectral_layer_forward(basis.eigenvectors, B, weights, H)
        supports = [design_kernel(basis, Tabulated(values=B[:, s])) for s in range(S)]
        spatial = sum(C @ H @ W for C, W in zip(supports, weights))
        assert np.max(np.abs(spectral - spatial)) < 1e-10
        relu = lambda z: np.maximum(z, 0.0)
        assert np.max(np.abs(relu(spectral) - relu(spatial))) < 1e-10


def test_kernelset_validation():
    with pytest.raises(ValueError, match="at least one"):
        KernelSet(supports=())
    with pytest.raises(ValueError, match="shapes"):
        KernelSet(supports=(np.eye(2), np.eye(3)))


def test_design_kernelset_allocates_its_supports_and_one_n_by_n_temporary():
    """design_kernelset of the four Cora designs (no negative response) at
    n = 500 allocates at most its supports and one n x n array, the scaled
    eigenvectors V of the support being formed, plus 5 % of an n x n array
    for small arrays."""
    n = 500
    basis = sym_basis(random_graph(n, 0.02, seed=3))
    designs = [parse_design(t) for t in ("lowpass(eta=5)", "bandpass(c=0.25,gamma=0.25)",
                                         "bandpass(c=0.5,gamma=0.25)",
                                         "bandpass(c=0.75,gamma=0.25)")]
    tracemalloc.start()
    try:
        ks = design_kernelset(basis, designs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(C.nbytes for C in ks) + 1.05 * 8 * n * n


def _basis(n):
    if n == 1:
        return SpectralBasis(eigenvalues=np.zeros(1), eigenvectors=np.ones((1, 1)), kind=SYM)
    return sym_basis(random_graph(n, 0.2, seed=11))


@pytest.mark.parametrize("n", [1, 40])
@pytest.mark.parametrize("kind", ["positive", "negative", "mixed", "zeros", "all_zero"])
def test_designed_support_is_exactly_symmetric_and_matches_the_plain_product(kind, n):
    rng = np.random.default_rng(n)
    mixed = rng.standard_normal(n)
    f = {"positive": np.abs(mixed) + 0.1, "negative": -np.abs(mixed) - 0.1, "mixed": mixed,
         "zeros": np.where(np.arange(n) % 3, mixed, 0.0), "all_zero": np.zeros(n)}[kind]
    basis = _basis(n)
    C = design_kernel(basis, Tabulated(values=f))
    assert np.array_equal(C, C.T)
    U = basis.eigenvectors
    ref = (U * f) @ U.T
    assert np.max(np.abs(C - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


def test_chebyshev_designs_are_exactly_symmetric():
    basis = sym_basis(random_graph(30, 0.2, seed=12))
    ks = design_kernelset(basis, [ChebBasis(k=k) for k in range(1, 6)])
    assert all(np.array_equal(C, C.T) for C in ks)


def test_kernelset_is_a_sequence_of_its_supports():
    basis = sym_basis(random_graph(6, 0.5, seed=8))
    ks = design_kernelset(basis, [AllPass(), BandPass(center=0.5, gamma=1.0)])
    assert len(ks) == ks.n_kernels == 2
    assert all(a is b for a, b in zip(ks, ks.supports, strict=True))


def test_design_roundtrip_on_weighted_graph():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
              weights=[2.0, 0.5, 1.5, 3.0, 1.0, 0.25], features=np.ones((6, 1)))
    basis = sym_basis(g)
    d = BandPass(center=0.5, gamma=2.0)
    got = np.diagonal(basis.eigenvectors.T @ design_kernel(basis, d) @ basis.eigenvectors)
    assert np.max(np.abs(got - evaluate(d, basis))) < 1e-10


def averaged_gcn_kernel(g):
    """The GCN support as formed before it was symmetric by construction."""
    A_tilde = g.adjacency + np.eye(g.n)
    dinv = 1.0 / np.sqrt(A_tilde.sum(axis=1))
    C = dinv[:, None] * A_tilde * dinv[None, :]
    return 0.5 * (C + C.T)


def dense_gcn_kernel(A):
    """The GCN support as formed from a dense adjacency A, before a graph was
    its edge list: A + I scaled by (dinv_i dinv_j) over its own row sums."""
    A_tilde = A + np.eye(A.shape[0])
    dinv = 1.0 / np.sqrt(A_tilde.sum(axis=1))
    return np.multiply.outer(dinv, dinv) * A_tilde


def dense_gat_sample_kernel(A, features, seed, att_dim=8):
    """gat_sample_kernel with the closed neighbourhoods read from a dense
    adjacency A, as before a graph was its edge list."""
    rng = np.random.default_rng(seed)
    support = (A > 0) | np.eye(A.shape[0], dtype=bool)
    W = rng.standard_normal((features.shape[1], att_dim))
    a = rng.standard_normal(2 * att_dim)
    WH = features @ W
    scores = (WH @ a[:att_dim])[:, None] + (WH @ a[att_dim:])[None, :]
    scores = np.where(scores > 0, scores, 0.2 * scores)
    scores = np.where(support, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)


def weighted_graph(n=40, seed=6):
    rng = np.random.default_rng(seed)
    g = random_graph(n, 0.2, seed=seed, features_dim=3)
    return Graph(edges=g.edges, weights=rng.uniform(0.1, 3.0, len(g.edges)),
                 features=g.features)


def test_gcn_kernel_is_exactly_symmetric_on_a_weighted_graph():
    g = weighted_graph()
    C = gcn_kernel(g)
    assert np.array_equal(C, C.T)
    assert np.max(np.abs(C - averaged_gcn_kernel(g))) <= 1e-15


UNIT_WEIGHT_GRAPHS = [make_ring(9), random_graph(60, 0.1, seed=4)]


@pytest.mark.parametrize("g", UNIT_WEIGHT_GRAPHS)
def test_gcn_kernel_of_a_unit_weight_graph_keeps_the_averaged_bytes(g):
    assert gcn_kernel(g).tobytes() == averaged_gcn_kernel(g).tobytes()


@pytest.mark.parametrize("g", UNIT_WEIGHT_GRAPHS + [near_regular_graph(30, seed=2, features_dim=4)])
def test_gcn_and_gat_kernels_of_a_unit_weight_graph_keep_the_dense_bytes(g):
    assert gcn_kernel(g).tobytes() == dense_gcn_kernel(g.adjacency).tobytes()
    for seed in (5, 6):
        want = dense_gat_sample_kernel(g.adjacency, g.features, seed)
        assert gat_sample_kernel(g, seed).tobytes() == want.tobytes()


def test_gat_kernel_leaves_out_zero_weight_edges():
    g = weighted_graph()
    g = Graph(edges=g.edges, weights=np.where(np.arange(len(g.edges)) % 3, g.weights, 0.0),
              features=g.features)
    for seed in (5, 6):
        want = dense_gat_sample_kernel(g.adjacency, g.features, seed)
        assert gat_sample_kernel(g, seed).tobytes() == want.tobytes()


def test_gcn_kernel_allocates_only_its_output():
    """The GCN support at n = 500 allocates at most its output plus 2 % of an
    n x n array and the 128 KiB of buffers numpy takes for a broadcasting
    ufunc call. Forming A + I and then scaling it took 2 n x n arrays."""
    n = 500
    g = random_graph(n, 0.02, seed=3)
    tracemalloc.start()
    try:
        C = gcn_kernel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= C.nbytes + 0.02 * 8 * n * n + 2**17
