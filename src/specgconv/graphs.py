"""Undirected weighted graphs, degree statistics and Laplacian construction.

A graph is its edge list: m unordered node pairs with their weights, plus an
n x f0 feature matrix whose rows are the nodes. Validation (one sort of the
m pairs) and degrees read the edges only. Each structural n x n matrix (the two Laplacians, the GCN support, the
GAT neighbourhood mask and the dense adjacency) is written straight from the
edges into one fresh array by `_scatter`, each edge's value computed once and
stored at (i, j) and (j, i), so every one is exactly symmetric by
construction. Graph values are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class LaplacianKind(enum.Enum):
    COMBINATORIAL = "comb"
    SYM_NORMALIZED = "sym"


def _all_finite(m: np.ndarray) -> bool:
    # min and max propagate nan and reach -inf and inf; unlike isfinite(m).all(),
    # they allocate no temporary as large as m
    return bool(np.isfinite(m.min(initial=0.0)) and np.isfinite(m.max(initial=0.0)))


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with node features.

    edges : (m, 2) integer node pairs in 0..n-1, each unordered pair at most
        once, in either direction. Self-loops are forbidden here; kernels
        that need them (GCN) add the identity internally.
    weights : (m,) finite nonnegative edge weights. A zero weight adds
        nothing to a degree and leaves the pair out of GAT neighbourhoods.
    features : (n, f0) finite real node feature matrix; n is the node count.
    """

    edges: np.ndarray
    weights: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got shape {feats.shape}")
        if not _all_finite(feats):
            node = int(np.flatnonzero(~np.isfinite(feats).all(axis=1))[0])
            raise ValueError(f"feature entries must be finite; node {node} has one that is not")
        n = feats.shape[0]
        e = np.array(self.edges)
        if e.size == 0:
            e = e.astype(np.int64).reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2 or not np.issubdtype(e.dtype, np.integer):
            raise ValueError(f"edges must be an (m, 2) array of integer node pairs, "
                             f"got {e.dtype} of shape {e.shape}")
        e = e.astype(np.int64, copy=False)
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (len(e),):
            raise ValueError(f"weights must hold one value per edge: shape {w.shape} "
                             f"for {len(e)} edges")

        i, j = e.T
        key = np.minimum(i, j) * n + np.maximum(i, j)
        again = np.ones(len(e), dtype=bool)   # the edge's pair is listed at a lower index
        again[np.unique(key, return_index=True)[1]] = False
        for bad, why in ((((e < 0) | (e >= n)).any(axis=1), f"node index out of range 0..{n - 1}"),
                         (i == j, "self-loop"),
                         (again, "the pair is listed again"),
                         (~(np.isfinite(w) & (w >= 0)),
                          "weight {w}; edge weights must be finite and nonnegative")):
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise ValueError(f"edge {k} ({e[k, 0]}, {e[k, 1]}): "
                                 + why.format(w=float(w[k])))
        for a in (e, w, feats):
            a.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node: the sum of its edges' weights."""
        return np.bincount(self.edges.ravel(), weights=np.repeat(self.weights, 2),
                           minlength=self.n)

    @property
    def adjacency(self) -> np.ndarray:
        """The dense (n, n) weight matrix, formed anew on each call; read-only."""
        A = _scatter(self, self.weights, 0.0)
        A.setflags(write=False)
        return A


def _scatter(g: Graph, values: np.ndarray, diagonal) -> np.ndarray:
    """A fresh n x n array of values' dtype: values[k] at (i, j) and (j, i) of
    each edge k = (i, j), `diagonal` (a scalar or one value per node) on the
    diagonal and zero elsewhere. Every structural matrix is formed here."""
    out = np.zeros((g.n, g.n), dtype=values.dtype)
    i, j = g.edges.T
    out[i, j] = values
    out[j, i] = values
    np.fill_diagonal(out, diagonal)
    return out


class IsolatedNode(ValueError):
    """The symmetric-normalized Laplacian is undefined: the node `node` has
    degree 0."""

    def __init__(self, node: int):
        super().__init__(f"symmetric-normalized Laplacian undefined: node {node} has degree 0")
        self.node = node


def build_laplacian(g: Graph, kind: LaplacianKind) -> np.ndarray:
    """Graph Laplacian: D - A (combinatorial) or I - D^{-1/2} A D^{-1/2}.

    The symmetric-normalized form requires every node to have positive
    degree; an isolated node raises IsolatedNode, a ValueError carrying the
    node's index. Each off-diagonal entry is 0.0 - w_ij or
    0.0 - (dinv_i dinv_j) w_ij, written once at (i, j) and (j, i), so both
    forms are exactly symmetric and are formed in their output array alone.
    """
    d = g.degrees
    if kind is LaplacianKind.COMBINATORIAL:
        return _scatter(g, 0.0 - g.weights, d)
    if kind is not LaplacianKind.SYM_NORMALIZED:
        raise ValueError(f"unknown Laplacian kind: {kind!r}")
    zero = np.flatnonzero(d <= 0)
    if zero.size:
        raise IsolatedNode(int(zero[0]))
    dinv = 1.0 / np.sqrt(d)
    i, j = g.edges.T
    # 0.0 - x, not -x: a -0.0 for a zero weight would change the eigenbasis cache key
    return _scatter(g, 0.0 - dinv[i] * dinv[j] * g.weights, 1.0)


def average_degree(g: Graph) -> float:
    """Mean weighted node degree; 0.0 on a graph without edges."""
    return float(g.degrees.mean())


def make_ring(n: int) -> Graph:
    """Cycle graph on n >= 3 nodes, unit weights, all degrees 2, with a
    single all-ones feature column."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    idx = np.arange(n)
    return Graph(edges=np.column_stack([idx, (idx + 1) % n]), weights=np.ones(n),
                 features=np.ones((n, 1)))
