"""Stacked multi-graph batches against separate per-graph passes."""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from specgconv import nn
from specgconv.data import MultiGraphDataset
from specgconv.nn import (
    Dense,
    DepthwiseSeparableConv,
    ModelSpec,
    MultiSupportConv,
    ReadoutMeanMax,
    TrainConfig,
    flatten_params,
    init_parameters,
    model_backward,
    model_forward,
    softmax_cross_entropy,
    stack_graphs,
)
from scaffold import random_graph

SIZES = (7, 12, 5, 9)
S = 3
CONFIG = TrainConfig(input_dropout=0.3, kernel_dropout=0.4)
# widening multi-support 4 -> 6, equal-width DSG 6 -> 6, narrowing DSG 6 -> 3
# (each applies its supports to the f_out-wide Hin A_s), readout, dense head
SPEC = ModelSpec((
    MultiSupportConv(out=6, use_bias=True, activation="relu"),
    DepthwiseSeparableConv(out=6, use_bias=True, activation="tanh"),
    DepthwiseSeparableConv(out=3, use_bias=False, activation="relu"),
    ReadoutMeanMax(),
    Dense(out=3, use_bias=True, activation="linear"),
))


def dataset_and_kernels():
    rng = np.random.default_rng(11)
    graphs, kernelsets = [], []
    for i, n in enumerate(SIZES):
        graphs.append(replace(random_graph(n, 0.4, seed=i), features=rng.standard_normal((n, 4))))
        kernelsets.append([rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(S)])
    ds = MultiGraphDataset(graphs=tuple(graphs), labels=np.array([0, 2, 1, 2]), n_classes=3)
    return ds, kernelsets


def parameters():
    params = init_parameters(SPEC, 4, S, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    for lp in params:
        if lp.depthwise is not None:
            lp.depthwise += rng.standard_normal(lp.depthwise.shape)
        if lp.bias is not None:
            lp.bias += 0.1 * rng.standard_normal(lp.bias.shape)
    return params


def per_graph_gradients(ds, kernelsets, params, ids, rng):
    """Mean over the graphs of separate batch-of-one losses and gradients, in
    order: (mean loss, mean gradient)."""
    loss, total = 0.0, None
    for i in ids:
        out, caches = model_forward(SPEC, params, ds.graphs[i].features, kernelsets[i],
                                    train=True, rng=rng, input_dropout=CONFIG.input_dropout,
                                    kernel_dropout=CONFIG.kernel_dropout)
        graph_loss, dout = softmax_cross_entropy(out, ds.labels[i : i + 1])
        loss += graph_loss / len(ids)
        grads = model_backward(SPEC, params, caches, dout / len(ids))
        total = grads if total is None else [
            nn.LayerParams(weights=[a + b for a, b in zip(t.weights, g.weights)],
                           depthwise=None if t.depthwise is None else t.depthwise + g.depthwise,
                           bias=None if t.bias is None else t.bias + g.bias)
            for t, g in zip(total, grads)]
    return loss, total


def batch_gradients(ds, kernelsets, params, ids, rng):
    """(mean loss, gradient) of nn._batch_gradients over the graphs ids, each
    graph's target row its one label."""
    return nn._batch_gradients(SPEC, params, ds.graphs, kernelsets, np.asarray(ids),
                               ds.labels[:, None], CONFIG, rng, 0)


def max_relative_difference(a, b):
    worst = 0.0
    for x, y in zip(flatten_params(a), flatten_params(b)):
        worst = max(worst, float(np.max(np.abs(x - y)) / np.max(np.abs(y))))
    return worst


def test_batch_gradient_is_mean_of_per_graph_gradients():
    ds, kernelsets = dataset_and_kernels()
    params, ids = parameters(), [2, 0, 3, 1]
    _, want = per_graph_gradients(ds, kernelsets, params, ids, np.random.default_rng(5))
    _, got = batch_gradients(ds, kernelsets, params, ids, np.random.default_rng(5))
    assert len(list(nn._chunks(ids, ds.graphs))) == 1
    assert max_relative_difference(got, want) < 1e-12


def test_batch_loss_is_mean_of_per_graph_losses(monkeypatch):
    """The loss that _batch_gradients returns with the gradient is the mean
    of the graphs' losses, in one chunk or in several."""
    ds, kernelsets = dataset_and_kernels()
    params, ids = parameters(), [2, 0, 3, 1]
    want, _ = per_graph_gradients(ds, kernelsets, params, ids, np.random.default_rng(5))
    one, _ = batch_gradients(ds, kernelsets, params, ids, np.random.default_rng(5))
    monkeypatch.setattr(nn, "_CHUNK_ROWS", 20)   # 5 + 7 rows, then 9, then 12
    assert [len(c) for c in nn._chunks(ids, ds.graphs)] == [2, 1, 1]
    split, _ = batch_gradients(ds, kernelsets, params, ids, np.random.default_rng(5))
    assert abs(one - want) < 1e-12 * want and abs(split - want) < 1e-12 * want


def test_batch_leaves_generator_where_per_graph_passes_do():
    ds, kernelsets = dataset_and_kernels()
    params, ids = parameters(), [1, 3, 0, 2]
    rng_graphs, rng_batch = np.random.default_rng(21), np.random.default_rng(21)
    per_graph_gradients(ds, kernelsets, params, ids, rng_graphs)
    batch_gradients(ds, kernelsets, params, ids, rng_batch)
    assert rng_batch.random() == rng_graphs.random()


def test_batch_split_into_chunks_matches_one_chunk(monkeypatch):
    ds, kernelsets = dataset_and_kernels()
    params, ids = parameters(), [0, 1, 2, 3]
    one_rng, split_rng = np.random.default_rng(8), np.random.default_rng(8)
    _, one = batch_gradients(ds, kernelsets, params, ids, one_rng)
    monkeypatch.setattr(nn, "_CHUNK_ROWS", 20)   # 7 + 12 rows, then 5 + 9
    assert [len(c) for c in nn._chunks(ids, ds.graphs)] == [2, 2]
    _, split = batch_gradients(ds, kernelsets, params, ids, split_rng)
    assert max_relative_difference(split, one) < 1e-12
    assert split_rng.random() == one_rng.random()


_KERNEL_MASK = nn._kernel_mask


def record_masks(monkeypatch):
    """Patch nn._kernel_mask to record each mask drawn, as (shape, bytes);
    returns one list per stream drawn from, streams in order of first draw."""
    streams, masks = [], []

    def recorded(rng, shape, keep, rows=None):
        out = _KERNEL_MASK(rng, shape, keep, rows)
        if not any(rng is s for s in streams):
            streams.append(rng)
            masks.append([])
        masks[[rng is s for s in streams].index(True)].append((out.shape, out.tobytes()))
        return out

    monkeypatch.setattr(nn, "_kernel_mask", recorded)
    return masks


def test_each_graph_draws_its_masks_from_its_place_in_the_stream(monkeypatch):
    """Each graph of a two-chunk mini-batch draws the masks of its separate
    pass, bit for bit, and both are the sequential draws of one Generator:
    graph by graph, per trainable layer the input mask, then for a conv
    layer one kernel mask per support, the dense head's input mask one row
    after the readout. A Generator holding a buffered 32-bit half ends
    bitwise where the separate passes and the sequential draws leave it."""
    ds, kernelsets = dataset_and_kernels()
    params, ids = parameters(), [3, 1, 0, 2]
    rngs = [np.random.default_rng(31) for _ in range(3)]
    for rng in rngs:
        rng.integers(0, 2**32, dtype=np.uint32)   # buffers the other half
    rng_graphs, rng_batch, twin = rngs

    graph_masks = record_masks(monkeypatch)
    per_graph_gradients(ds, kernelsets, params, ids, rng_graphs)
    batch_masks = record_masks(monkeypatch)
    monkeypatch.setattr(nn, "_CHUNK_ROWS", 21)   # 9 + 12 rows, then 7 + 5
    assert [len(c) for c in nn._chunks(ids, ds.graphs)] == [2, 2]
    batch_gradients(ds, kernelsets, params, ids, rng_batch)

    want = []
    for i in ids:
        n, draws = SIZES[i], []
        for layer, f_in in zip(SPEC.layers, SPEC.widths(4)):
            if isinstance(layer, ReadoutMeanMax):
                n = 1
                continue
            draws.append(twin.random((n, f_in)) < 1 - CONFIG.input_dropout)
            if not isinstance(layer, Dense):
                draws += [twin.random((n, n)) < 1 - CONFIG.kernel_dropout for _ in range(S)]
        want.append([(d.shape, d.tobytes()) for d in draws])
    assert want[0][-1][0] == (1, 6)
    assert graph_masks == want and batch_masks == want
    assert rng_batch.bit_generator.state["has_uint32"] == 1
    assert repr(rng_batch.bit_generator.state) == repr(rng_graphs.bit_generator.state) \
        == repr(twin.bit_generator.state)


def test_chunks_bound_rows_and_keep_order():
    graphs = [SimpleNamespace(n=n) for n in (5, 30, 4, 4, 300, 2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_CHUNK_ROWS", 10)
        assert list(nn._chunks([0, 1, 2, 3, 4, 5], graphs)) == [[0], [1], [2, 3], [4], [5]]


def test_stacked_eval_forward_matches_per_graph_rows():
    ds, kernelsets = dataset_and_kernels()
    params = parameters()
    H0, batch = stack_graphs([g.features for g in ds.graphs], kernelsets)
    out, _ = model_forward(SPEC, params, H0, batch)
    for i, g in enumerate(ds.graphs):
        row, _ = model_forward(SPEC, params, g.features, kernelsets[i])
        assert np.max(np.abs(out[i] - row[0])) < 1e-12


def test_evaluate_graphs_matches_per_graph_means():
    ds, kernelsets = dataset_and_kernels()
    params = parameters()
    losses, hits = [], []
    for i, g in enumerate(ds.graphs):
        out, _ = model_forward(SPEC, params, g.features, kernelsets[i])
        losses.append(softmax_cross_entropy(out, ds.labels[i : i + 1])[0])
        hits.append(float(np.argmax(out[0]) == ds.labels[i]))
    loss, acc = nn.evaluate_graphs(SPEC, params, kernelsets, ds, [0, 1, 2, 3])
    assert abs(loss - np.mean(losses)) < 1e-12 * max(1.0, abs(loss))
    assert acc == np.mean(hits)


def test_graph_label_outside_output_classes_is_named():
    """train and crossvalidate name the graph whose label is no output class."""
    ds, kernelsets = dataset_and_kernels()
    ds = MultiGraphDataset(graphs=ds.graphs, labels=np.array([0, 2, 5, 2]), n_classes=3)
    with pytest.raises(ValueError, match="graph 2 has label 5"):
        nn.train(SPEC, kernelsets, ds, TrainConfig(epochs=1), train_idx=[0, 1], val_idx=[2, 3])
    with pytest.raises(ValueError, match="graph 2 has label 5"):
        nn.crossvalidate(ds, kernelsets, SPEC, TrainConfig(epochs=1), folds=2)


def swapped_kernelsets(kernelsets):
    """The kernel sets of graphs 0 and 1, and of 2 and 3, swapped: each then
    has another node count than its graph."""
    return [kernelsets[i] for i in (1, 0, 3, 2)]


def test_multi_graph_training_refuses_a_kernel_set_of_another_graph():
    ds, kernelsets = dataset_and_kernels()
    with pytest.raises(ValueError, match=r"^graph [0-3] has \d+ nodes, but a support of shape"):
        nn.train(SPEC, swapped_kernelsets(kernelsets), ds, TrainConfig(epochs=1, batch_size=2),
                 train_idx=[0, 1, 2, 3], val_idx=[0])
