"""Undirected weighted graphs, degree statistics and Laplacian construction.

Graphs are dense at desk scale (n up to a few thousand): the adjacency is a
full symmetric float64 matrix and the eigendecomposition downstream dominates
cost anyway. Every matrix formed from it here is exactly symmetric by
construction. Graph values are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


class LaplacianKind(enum.Enum):
    COMBINATORIAL = "comb"
    SYM_NORMALIZED = "sym"


def _as_float_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _all_finite(m: np.ndarray) -> bool:
    # min and max propagate nan and reach -inf and inf; unlike isfinite(m).all(),
    # they allocate no temporary as large as m
    return bool(np.isfinite(m.min(initial=0.0)) and np.isfinite(m.max(initial=0.0)))


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with node features.

    adjacency : (n, n) symmetric finite nonnegative weight matrix, zero diagonal.
        Self-loops are forbidden here; kernels that need them (GCN) add the
        identity internally.
    features : (n, f0) finite real node feature matrix.
    """

    adjacency: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        adj = _as_float_matrix(self.adjacency)
        feats = _as_float_matrix(self.features)
        n = adj.shape[0]
        if adj.shape[1] != n:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        for name, m in (("adjacency", adj), ("feature", feats)):
            if not _all_finite(m):
                node = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
                raise ValueError(f"{name} entries must be finite; node {node} has one that is not")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be exactly symmetric")
        if np.any(adj < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diagonal(adj) != 0):
            raise ValueError("self-loops are not allowed at construction")
        if feats.shape[0] != n:
            raise ValueError(
                f"feature rows ({feats.shape[0]}) must equal node count ({n})"
            )
        adj = adj.copy()
        feats = feats.copy()
        adj.setflags(write=False)
        feats.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def with_features(self, features: np.ndarray) -> "Graph":
        return replace(self, features=features)


def _normalized(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D^{-1/2} M D^{-1/2} for degrees d, in one new n x n array. Entry (i, j)
    is (dinv_i dinv_j) M_ij, and the product dinv_i dinv_j commutes, so the
    result is exactly symmetric when M is."""
    dinv = 1.0 / np.sqrt(d)
    out = np.multiply.outer(dinv, dinv)
    out *= M
    return out


def build_laplacian(g: Graph, kind: LaplacianKind) -> np.ndarray:
    """Graph Laplacian: D - A (combinatorial) or I - D^{-1/2} A D^{-1/2}.

    The symmetric-normalized form requires every node to have positive
    degree; an isolated node raises ValueError naming the node. Both forms
    are exactly symmetric by construction, so downstream eigensolvers see an
    exactly symmetric matrix; the symmetric-normalized one is formed in its
    output array alone.
    """
    A = g.adjacency
    d = g.degrees
    if kind is LaplacianKind.COMBINATORIAL:
        return np.diag(d) - A
    if kind is not LaplacianKind.SYM_NORMALIZED:
        raise ValueError(f"unknown Laplacian kind: {kind!r}")
    zero = np.flatnonzero(d <= 0)
    if zero.size:
        raise ValueError(
            f"symmetric-normalized Laplacian undefined: node {zero[0]} has degree 0"
        )
    L = _normalized(A, d)
    np.subtract(0.0, L, out=L)   # not -L: its -0.0 where A is 0 would change the cache key
    L[np.diag_indices_from(L)] += 1.0
    return L


def average_degree(g: Graph) -> float:
    """Mean node degree (mean of adjacency row sums)."""
    return float(g.degrees.mean())


def make_ring(n: int, features: Optional[np.ndarray] = None) -> Graph:
    """Cycle graph on n >= 3 nodes, unit weights, all degrees 2.

    Default features are a single all-ones column.
    """
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, (idx + 1) % n] = 1.0
    A[(idx + 1) % n, idx] = 1.0
    if features is None:
        features = np.ones((n, 1))
    return Graph(adjacency=A, features=features)


def random_graph(
    n: int,
    edge_prob: float,
    seed: int,
    features_dim: int = 1,
    connect: bool = True,
) -> Graph:
    """Erdos-Renyi graph with unit weights and seeded standard-normal features.

    With connect=True a spanning random path is added first so every node has
    degree >= 1 (the symmetric-normalized Laplacian is then well defined).
    """
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    upper = rng.random((n, n)) < edge_prob
    iu = np.triu_indices(n, k=1)
    A[iu] = upper[iu].astype(float)
    A = A + A.T
    if connect:
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            A[a, b] = A[b, a] = 1.0
    feats = rng.standard_normal((n, features_dim))
    return Graph(adjacency=A, features=feats)


def near_regular_graph(n: int, seed: int, features_dim: int = 1) -> Graph:
    """Connected random graph with all node degrees in {3, 4}.

    Built from the 4-regular circulant with offsets {1, 2}; a random set of
    pairwise disjoint distance-2 chords is removed, dropping the endpoints of
    each removed chord to degree 3 while the base cycle keeps the graph
    connected.
    """
    if n < 6:
        raise ValueError("need n >= 6 for the {3,4}-degree construction")
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    idx = np.arange(n)
    for off in (1, 2):
        A[idx, (idx + off) % n] = 1.0
        A[(idx + off) % n, idx] = 1.0
    touched = np.zeros(n, dtype=bool)
    for i in rng.permutation(n):
        j = (i + 2) % n
        if touched[i] or touched[j] or rng.random() < 0.5:
            continue
        A[i, j] = A[j, i] = 0.0
        touched[i] = touched[j] = True
    feats = rng.standard_normal((n, features_dim))
    return Graph(adjacency=A, features=feats)
