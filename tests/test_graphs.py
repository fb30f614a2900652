import tracemalloc

import numpy as np
import pytest

from specgconv.graphs import (
    Graph,
    IsolatedNode,
    LaplacianKind,
    average_degree,
    build_laplacian,
    make_ring,
)
from scaffold import near_regular_graph, random_graph


def unit_graph(edges, n):
    return Graph(edges=edges, weights=np.ones(len(edges)), features=np.ones((n, 1)))


def two_node_edge():
    return unit_graph([(0, 1)], 2)


def star(leaves=4):
    return unit_graph([(0, k) for k in range(1, leaves + 1)], leaves + 1)


def test_combinatorial_laplacian_two_node_edge():
    L = build_laplacian(two_node_edge(), LaplacianKind.COMBINATORIAL)
    assert np.allclose(L, [[1, -1], [-1, 1]], atol=0)


def test_sym_normalized_two_node_edge_degrees_one():
    L = build_laplacian(two_node_edge(), LaplacianKind.SYM_NORMALIZED)
    assert np.allclose(L, [[1, -1], [-1, 1]], atol=1e-15)


def test_sym_normalized_ring4_by_hand():
    L = build_laplacian(make_ring(4), LaplacianKind.SYM_NORMALIZED)
    want = np.array([
        [1.0, -0.5, 0.0, -0.5],
        [-0.5, 1.0, -0.5, 0.0],
        [0.0, -0.5, 1.0, -0.5],
        [-0.5, 0.0, -0.5, 1.0],
    ])
    assert np.allclose(L, want, atol=1e-15)


def test_combinatorial_row_sums_zero():
    for seed in range(5):
        g = random_graph(17, 0.3, seed=seed)
        L = build_laplacian(g, LaplacianKind.COMBINATORIAL)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-12
        assert np.max(np.abs(L - L.T)) == 0.0


def test_regular_graph_normalized_is_scaled_combinatorial():
    g = make_ring(9)
    Lc = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    Ls = build_laplacian(g, LaplacianKind.SYM_NORMALIZED)
    assert np.allclose(Ls, Lc / 2.0, atol=1e-14)


def test_isolated_node_rejected_for_normalized():
    g = unit_graph([(1, 0)], 3)
    with pytest.raises(IsolatedNode, match="node 2") as info:
        build_laplacian(g, LaplacianKind.SYM_NORMALIZED)
    assert isinstance(info.value, ValueError) and info.value.node == 2


def test_average_degree_ring_and_star():
    assert average_degree(make_ring(8)) == 2.0
    assert average_degree(star(4)) == pytest.approx(8 / 5)


def test_make_ring_shapes_and_degrees():
    g = make_ring(3)
    assert np.allclose(g.adjacency, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    g64 = make_ring(64)
    assert np.all(g64.degrees == 2.0)
    with pytest.raises(ValueError):
        make_ring(2)


def refusal(edges, weights, n=4):
    with pytest.raises(ValueError) as info:
        Graph(edges=edges, weights=weights, features=np.ones((n, 1)))
    return str(info.value)


def test_graph_validation():
    # the first bad edge is named by its index and its pair
    assert refusal([(0, 1), (1, 2), (2, 1)], [1.0, 1.0, 1.0]) == (
        "edge 2 (2, 1): the pair is listed again")
    assert refusal([(0, 1), (1, 2), (1, 2)], [1.0, 1.0, 1.0]) == (
        "edge 2 (1, 2): the pair is listed again")
    assert refusal([(0, 1), (3, 0), (0, 1), (0, 3)], np.ones(4)) == (
        "edge 2 (0, 1): the pair is listed again")
    assert refusal([(0, 1), (2, 2)], [1.0, 1.0]) == "edge 1 (2, 2): self-loop"
    assert refusal([(0, 1), (1, -1)], [1.0, 1.0]) == (
        "edge 1 (1, -1): node index out of range 0..3")
    assert refusal([(0, 1), (4, 1)], [1.0, 1.0]) == (
        "edge 1 (4, 1): node index out of range 0..3")
    assert refusal([(0, 1), (1, 2)], [1.0, -0.5]) == (
        "edge 1 (1, 2): weight -0.5; edge weights must be finite and nonnegative")
    assert refusal([(0, 1), (1, 2)], [1.0]) == (
        "weights must hold one value per edge: shape (1,) for 2 edges")
    assert refusal([(0, 1), (1, 2)], np.ones((2, 1))) == (
        "weights must hold one value per edge: shape (2, 1) for 2 edges")
    assert refusal([0, 1], [1.0]).startswith("edges must be an (m, 2) array")
    assert refusal([(0.0, 1.0)], [1.0]).startswith("edges must be an (m, 2) array")
    with pytest.raises(ValueError, match="features must be a 2-D matrix"):
        Graph(edges=[(0, 1)], weights=[1.0], features=np.ones(2))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_graph_refuses_non_finite_entries(value):
    assert refusal([(0, 1), (2, 3)], [1.0, value]) == (
        f"edge 1 (2, 3): weight {value}; edge weights must be finite and nonnegative")
    with pytest.raises(ValueError, match="feature entries must be finite; node 1"):
        Graph(edges=[(0, 1)], weights=[1.0], features=np.array([[1.0], [value]]))


@pytest.mark.parametrize("edges", [[], np.zeros((0, 2), dtype=int)])
def test_graph_without_edges(edges):
    g = Graph(edges=edges, weights=[], features=np.ones((3, 1)))
    assert g.edges.shape == (0, 2) and g.weights.shape == (0,)
    assert np.array_equal(g.degrees, np.zeros(3)) and average_degree(g) == 0.0
    assert np.array_equal(g.adjacency, np.zeros((3, 3)))
    assert np.array_equal(build_laplacian(g, LaplacianKind.COMBINATORIAL), np.zeros((3, 3)))


def test_zero_weight_edge_is_kept_and_adds_nothing():
    g = Graph(edges=[(0, 1), (1, 2)], weights=[0.0, 2.0], features=np.ones((3, 1)))
    assert np.array_equal(g.degrees, [0.0, 2.0, 2.0])
    assert np.array_equal(g.adjacency, [[0, 0, 0], [0, 0, 2], [0, 2, 0]])


def test_graph_is_immutable():
    g = two_node_edge()
    for a in (g.edges, g.weights, g.features, g.adjacency):
        with pytest.raises(ValueError):
            a[0] = 5
    edges = np.array([[0, 1]])
    g = Graph(edges=edges, weights=[1.0], features=np.ones((2, 1)))
    edges[0, 1] = 0   # the caller's array is copied
    assert np.array_equal(g.edges, [[0, 1]])


def test_near_regular_degrees_in_3_4():
    for seed in range(4):
        g = near_regular_graph(40, seed=seed)
        assert set(g.degrees.astype(int)) <= {3, 4}
        assert 3 in set(g.degrees.astype(int))


def test_random_graph_connected_min_degree():
    for seed in range(4):
        g = random_graph(25, 0.05, seed=seed)
        assert g.degrees.min() >= 1


def test_weighted_graph_laplacians():
    g = Graph(edges=[(0, 1), (2, 1)], weights=[2.5, 0.5], features=np.ones((3, 1)))
    Lc = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    assert np.allclose(Lc.sum(axis=1), 0.0, atol=1e-12)
    assert Lc[0, 0] == 2.5 and Lc[1, 1] == 3.0
    Ls = build_laplacian(g, LaplacianKind.SYM_NORMALIZED)
    assert np.allclose(np.diagonal(Ls), 1.0, atol=1e-15)
    assert Ls[0, 1] == pytest.approx(-2.5 / np.sqrt(2.5 * 3.0), abs=1e-15)
    assert average_degree(g) == pytest.approx((2.5 + 3.0 + 0.5) / 3)


def weighted_graph(n=40, seed=5):
    rng = np.random.default_rng(seed)
    edges = random_graph(n, 0.2, seed=seed).edges
    return Graph(edges=edges, weights=rng.uniform(0.1, 3.0, len(edges)),
                 features=np.ones((n, 1)))


def averaged_laplacian(g, kind):
    """The Laplacian as formed before it was symmetric by construction: the
    row and column scaling of the dense adjacency, then the average of L and
    its transpose."""
    A = g.adjacency
    d = A.sum(axis=1)
    if kind is LaplacianKind.COMBINATORIAL:
        L = np.diag(d) - A
    else:
        dinv = 1.0 / np.sqrt(d)
        L = np.eye(g.n) - dinv[:, None] * A * dinv[None, :]
    return 0.5 * (L + L.T)


def dense_laplacian(A, kind):
    """The Laplacian as formed from a dense adjacency A, before a graph was
    its edge list: D - A, or (dinv_i dinv_j) A_ij subtracted from 0.0 and
    1.0 added on the diagonal."""
    d = A.sum(axis=1)
    if kind is LaplacianKind.COMBINATORIAL:
        return np.diag(d) - A
    dinv = 1.0 / np.sqrt(d)
    L = np.multiply.outer(dinv, dinv) * A
    np.subtract(0.0, L, out=L)
    L[np.diag_indices_from(L)] += 1.0
    return L


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_laplacian_is_exactly_symmetric_on_a_weighted_graph(kind):
    # the degrees are summed per edge, not along dense rows, so the comb
    # diagonal may differ from the dense row sums in its last bits
    g = weighted_graph()
    L = build_laplacian(g, kind)
    assert np.array_equal(L, L.T)
    tol = 1e-15 * np.max(np.abs(L)) if kind is LaplacianKind.COMBINATORIAL else 1e-15
    assert np.max(np.abs(L - averaged_laplacian(g, kind))) <= tol


UNIT_WEIGHT_GRAPHS = [make_ring(9), random_graph(60, 0.1, seed=4), near_regular_graph(30, seed=2)]


@pytest.mark.parametrize("kind", list(LaplacianKind))
@pytest.mark.parametrize("g", UNIT_WEIGHT_GRAPHS)
def test_laplacian_of_a_unit_weight_graph_keeps_the_averaged_bytes(g, kind):
    # bytes, not values: -0.0 in place of 0.0 would change the eigenbasis cache key
    assert build_laplacian(g, kind).tobytes() == averaged_laplacian(g, kind).tobytes()


@pytest.mark.parametrize("kind", list(LaplacianKind))
@pytest.mark.parametrize("g", UNIT_WEIGHT_GRAPHS + [star(5)])
def test_laplacian_of_a_unit_weight_graph_keeps_the_dense_bytes(g, kind):
    assert build_laplacian(g, kind).tobytes() == dense_laplacian(g.adjacency, kind).tobytes()


def dense_random_graph(n, edge_prob, seed, features_dim=1):
    """random_graph as it filled a dense adjacency, before a graph was its
    edge list: the same draws in the same order."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    upper = rng.random((n, n)) < edge_prob
    iu = np.triu_indices(n, k=1)
    A[iu] = upper[iu].astype(float)
    A = A + A.T
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        A[a, b] = A[b, a] = 1.0
    return A, rng.standard_normal((n, features_dim))


@pytest.mark.parametrize("seed", range(5))
def test_random_graph_keeps_each_seeds_graph(seed):
    g = random_graph(20 + 15 * seed, 0.1, seed=seed, features_dim=2)
    A, feats = dense_random_graph(20 + 15 * seed, 0.1, seed=seed, features_dim=2)
    assert g.adjacency.tobytes() == A.tobytes() and g.features.tobytes() == feats.tobytes()


def test_sym_laplacian_allocates_only_its_output():
    """The symmetric-normalized Laplacian at n = 500 allocates at most its
    output plus 2 % of an n x n array, and the 128 KiB of buffers that numpy
    takes for a broadcasting ufunc call whatever n is. Scaling a copy of A
    and averaging L with its transpose took about 3 n x n arrays."""
    n = 500
    g = random_graph(n, 0.02, seed=3)
    tracemalloc.start()
    try:
        L = build_laplacian(g, LaplacianKind.SYM_NORMALIZED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= L.nbytes + 0.02 * 8 * n * n + 2**17
