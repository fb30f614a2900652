"""What only the tests use: seeded random graphs, the enumerated parameter
count that nn.param_count is checked against, zero gradients shaped like a
model's parameters, and one layer run alone through nn.model_forward."""
import numpy as np

from specgconv.graphs import Graph
from specgconv.nn import LayerParams, ModelSpec, model_forward


def _unit(edges, features) -> Graph:
    return Graph(edges=edges, weights=np.ones(len(edges)), features=features)


def random_graph(n: int, edge_prob: float, seed: int, features_dim: int = 1) -> Graph:
    """Erdos-Renyi graph with unit weights and seeded standard-normal features.

    A spanning random path is added first so every node has degree >= 1 (the
    symmetric-normalized Laplacian is then well defined).
    """
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < edge_prob, 1))
    order = rng.permutation(n)
    path = np.sort(np.column_stack([order[:-1], order[1:]]), axis=1)
    feats = rng.standard_normal((n, features_dim))
    return _unit(np.unique(np.vstack([edges, path]), axis=0), feats)


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
    idx = np.arange(n)
    removed = np.zeros(n, dtype=bool)   # chord (i, i + 2) is gone
    touched = np.zeros(n, dtype=bool)
    for i in rng.permutation(n):
        j = (i + 2) % n
        if touched[i] or touched[j] or rng.random() < 0.5:
            continue
        removed[i] = True
        touched[i] = touched[j] = True
    chords = np.column_stack([idx, (idx + 2) % n])[~removed]
    feats = rng.standard_normal((n, features_dim))
    return _unit(np.vstack([np.column_stack([idx, (idx + 1) % n]), chords]), feats)


def count_parameters(params) -> int:
    """Number of trainable weights and depthwise entries in the parameter
    arrays, biases excluded, as param_count counts them."""
    total = 0
    for lp in params:
        total += sum(w.size for w in lp.weights)
        if lp.depthwise is not None:
            total += lp.depthwise.size
    return total


def zero_like_params(params) -> list:
    """Zero arrays shaped like each layer's parameters, as LayerParams."""
    return [LayerParams(weights=[np.zeros_like(w) for w in lp.weights],
                        depthwise=None if lp.depthwise is None else np.zeros_like(lp.depthwise),
                        bias=None if lp.bias is None else np.zeros_like(lp.bias))
            for lp in params]


def layer_output(layer, H, kernels, weights, depthwise=None, bias=None):
    """The output of one conv or dense layer with the given parameters, run
    through nn.model_forward as a one-layer model."""
    lp = LayerParams(weights=list(weights), depthwise=depthwise, bias=bias)
    return model_forward(ModelSpec((layer,)), [lp], H, kernels)[0]
