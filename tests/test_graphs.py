import tracemalloc

import numpy as np
import pytest

from specgconv.graphs import (
    Graph,
    LaplacianKind,
    average_degree,
    build_laplacian,
    make_ring,
    near_regular_graph,
    random_graph,
)


def two_node_edge():
    return Graph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), features=np.ones((2, 1)))


def star(leaves=4):
    A = np.zeros((leaves + 1, leaves + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    return Graph(adjacency=A, features=np.ones((leaves + 1, 1)))


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
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    g = Graph(adjacency=A, features=np.ones((3, 1)))
    with pytest.raises(ValueError, match="node 2"):
        build_laplacian(g, LaplacianKind.SYM_NORMALIZED)


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


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]), features=np.ones((2, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(adjacency=np.array([[0.0, -1.0], [-1.0, 0.0]]), features=np.ones((2, 1)))
    with pytest.raises(ValueError, match="loop"):
        Graph(adjacency=np.eye(2), features=np.ones((2, 1)))
    with pytest.raises(ValueError, match="feature rows"):
        Graph(adjacency=np.zeros((2, 2)), features=np.ones((3, 1)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_graph_refuses_non_finite_entries(value):
    with pytest.raises(ValueError, match="adjacency entries must be finite"):
        Graph(adjacency=np.array([[0.0, value], [value, 0.0]]), features=np.ones((2, 1)))
    with pytest.raises(ValueError, match="feature entries must be finite"):
        Graph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), features=np.array([[1.0], [value]]))


def test_graph_is_immutable():
    g = two_node_edge()
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


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
    A = np.array([
        [0.0, 2.5, 0.0],
        [2.5, 0.0, 0.5],
        [0.0, 0.5, 0.0],
    ])
    g = Graph(adjacency=A, features=np.ones((3, 1)))
    Lc = build_laplacian(g, LaplacianKind.COMBINATORIAL)
    assert np.allclose(Lc.sum(axis=1), 0.0, atol=1e-12)
    assert Lc[0, 0] == 2.5 and Lc[1, 1] == 3.0
    Ls = build_laplacian(g, LaplacianKind.SYM_NORMALIZED)
    assert np.allclose(np.diagonal(Ls), 1.0, atol=1e-15)
    assert Ls[0, 1] == pytest.approx(-2.5 / np.sqrt(2.5 * 3.0), abs=1e-15)
    assert average_degree(g) == pytest.approx((2.5 + 3.0 + 0.5) / 3)


def weighted_graph(n=40, seed=5):
    rng = np.random.default_rng(seed)
    A = random_graph(n, 0.2, seed=seed).adjacency * rng.uniform(0.1, 3.0, (n, n))
    A = np.triu(A, 1)
    return Graph(adjacency=A + A.T, features=np.ones((n, 1)))


def averaged_laplacian(g, kind):
    """The Laplacian as formed before it was symmetric by construction: the
    row and column scaling, then the average of L and its transpose."""
    A, d = g.adjacency, g.degrees
    if kind is LaplacianKind.COMBINATORIAL:
        L = np.diag(d) - A
    else:
        dinv = 1.0 / np.sqrt(d)
        L = np.eye(g.n) - dinv[:, None] * A * dinv[None, :]
    return 0.5 * (L + L.T)


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_laplacian_is_exactly_symmetric_on_a_weighted_graph(kind):
    g = weighted_graph()
    L = build_laplacian(g, kind)
    assert np.array_equal(L, L.T)
    assert np.max(np.abs(L - averaged_laplacian(g, kind))) <= 1e-15


@pytest.mark.parametrize("kind", list(LaplacianKind))
@pytest.mark.parametrize("g", [make_ring(9), random_graph(60, 0.1, seed=4),
                               near_regular_graph(30, seed=2)])
def test_laplacian_of_a_unit_weight_graph_keeps_the_averaged_bytes(g, kind):
    # bytes, not values: -0.0 in place of 0.0 would change the eigenbasis cache key
    assert build_laplacian(g, kind).tobytes() == averaged_laplacian(g, kind).tobytes()


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
