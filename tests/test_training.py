import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from specgconv.data import MultiGraphDataset, SingleGraphDataset
from specgconv.filters import AllPass, LowPass
from specgconv.graphs import LaplacianKind, build_laplacian, make_ring
from specgconv.kernels import design_kernelset, gcn_kernel
from specgconv import _blas, nn
from specgconv.nn import (
    Dense,
    DepthwiseSeparableConv,
    ModelSpec,
    MultiSupportConv,
    ReadoutMeanMax,
    TrainConfig,
    TrainingDiverged,
    crossvalidate,
    flatten_params,
    model_forward,
    init_parameters,
    train,
)
from specgconv.spectral import decompose
from scaffold import random_graph

SYM = LaplacianKind.SYM_NORMALIZED


def separable_dataset(seed=0):
    rng = np.random.default_rng(seed)
    g = make_ring(20)
    feats = rng.standard_normal((20, 2))
    labels = (feats[:, 0] > 0).astype(int)
    feats[:, 0] += np.where(labels, 0.5, -0.5)
    g = replace(g, features=feats)
    masks = {"train": np.ones(20, bool), "val": np.zeros(20, bool), "test": np.zeros(20, bool)}
    return SingleGraphDataset(graph=g, labels=labels, masks=masks)


def two_support_kernels(g):
    return [np.eye(g.n), gcn_kernel(g)]


def test_zero_learning_rate_leaves_parameters_unchanged():
    data = separable_dataset()
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.0, epochs=8, seed=3,
                      input_dropout=0.5, kernel_dropout=0.5, weight_decay=1e-3)
    result = train(spec, two_support_kernels(data.graph), data, cfg)
    fresh = init_parameters(spec, 2, 2, np.random.default_rng(3))
    for got, want in zip(flatten_params(result.params), flatten_params(fresh)):
        assert np.array_equal(got, want)


def test_linearly_separable_pilot_reaches_full_train_accuracy():
    data = separable_dataset()
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.05, epochs=200, seed=0)
    result = train(spec, two_support_kernels(data.graph), data, cfg)
    assert result.metrics[-1]["train_acc"] == 1.0


def test_training_is_deterministic_per_seed():
    data = separable_dataset()
    spec = ModelSpec((DepthwiseSeparableConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.02, epochs=12, seed=9,
                      input_dropout=0.3, kernel_dropout=0.3)
    r1 = train(spec, two_support_kernels(data.graph), data, cfg)
    r2 = train(spec, two_support_kernels(data.graph), data, cfg)
    for a, b in zip(flatten_params(r1.params), flatten_params(r2.params)):
        assert np.array_equal(a, b)
    assert r1.metrics == r2.metrics


def test_forward_deterministic_with_dropout_off():
    data = separable_dataset()
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    params = init_parameters(spec, 2, 2, np.random.default_rng(0))
    ks = two_support_kernels(data.graph)
    a, _ = model_forward(spec, params, data.graph.features, ks)
    b, _ = model_forward(spec, params, data.graph.features, ks)
    assert np.array_equal(a, b)


def test_kernel_dropout_epoch_holds_no_float_copy_of_the_supports():
    """One training epoch with kernel dropout on a 200-node graph with four
    supports allocates less than one layer's supports would take as float
    copies (S n^2 doubles): kernel dropout keeps 1-byte masks and applies
    them as it multiplies."""
    n, S = 200, 4
    rng = np.random.default_rng(3)
    g = replace(random_graph(n, 0.05, seed=3), features=rng.standard_normal((n, 8)))
    labels = rng.integers(0, 3, n)
    masks = {"train": np.arange(n) < 60, "val": np.zeros(n, bool), "test": np.zeros(n, bool)}
    data = SingleGraphDataset(graph=g, labels=labels, masks=masks)
    supports = [rng.standard_normal((n, n)) for _ in range(S)]
    spec = nn.parse_architecture("DSG16-DSG3")
    cfg = TrainConfig(epochs=1, seed=5, input_dropout=0.5, kernel_dropout=0.75)
    tracemalloc.start()
    try:
        train(spec, supports, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * n * n * 8


def test_depthwise_init_ignores_later_supports_exactly():
    rng = np.random.default_rng(5)
    spec = ModelSpec((DepthwiseSeparableConv(out=3, use_bias=True, activation="relu"),))
    params = init_parameters(spec, 4, 3, np.random.default_rng(1))
    H = rng.standard_normal((10, 4))
    base = rng.standard_normal((10, 10))
    out1, _ = model_forward(spec, params, H, [base, rng.standard_normal((10, 10)), np.eye(10)])
    out2, _ = model_forward(spec, params, H, [base, np.zeros((10, 10)), 5 * np.eye(10)])
    assert np.array_equal(out1, out2)


def test_divergence_raises_with_epoch():
    # a step size at the float64 ceiling overflows the weights, so the next
    # epoch sees a non-finite loss and training must abort with the epoch
    data = separable_dataset()
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=1e308, epochs=50, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train(spec, two_support_kernels(data.graph), data, cfg)
    assert info.value.epoch >= 1


def test_train_records_metrics_per_epoch():
    data = separable_dataset()
    masks = {"train": np.zeros(20, bool), "val": np.zeros(20, bool), "test": np.zeros(20, bool)}
    masks["train"][:10] = True
    masks["val"][10:15] = True
    masks["test"][15:] = True
    data = SingleGraphDataset(graph=data.graph, labels=data.labels, masks=masks)
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.02, epochs=5, seed=1)
    result = train(spec, two_support_kernels(data.graph), data, cfg, track_test=True)
    assert len(result.metrics) == 5
    for row in result.metrics:
        for key in ("train_loss", "train_acc", "val_loss", "val_acc", "test_loss", "test_acc"):
            assert key in row
    assert result.optimizer == {"name": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def split_dataset(bad_node=None, bad_label=None):
    data = separable_dataset()
    masks = {"train": np.zeros(20, bool), "val": np.zeros(20, bool), "test": np.zeros(20, bool)}
    masks["train"][:10] = True
    masks["val"][10:15] = True
    masks["test"][15:] = True
    labels = data.labels.copy()
    if bad_node is not None:
        labels[bad_node] = bad_label
    return SingleGraphDataset(graph=data.graph, labels=labels, masks=masks)


@pytest.mark.parametrize("node,label,track_test", [(3, 2, False), (12, -1, False), (17, 5, True)])
def test_scored_label_outside_classes_refused_before_first_forward(monkeypatch, node, label,
                                                                   track_test):
    data = split_dataset(node, label)
    calls = []
    forward = nn.model_forward
    monkeypatch.setattr(nn, "model_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.02, epochs=2, seed=1)
    with pytest.raises(ValueError, match=f"node {node} has label {label}, outside the classes 0..1"):
        train(spec, two_support_kernels(data.graph), data, cfg, track_test=track_test)
    assert calls == []


def test_split_without_train_nodes_refused_before_first_forward(monkeypatch):
    full = separable_dataset()
    none = np.zeros(20, bool)
    data = SingleGraphDataset(graph=full.graph, labels=full.labels,
                              masks={"train": none, "val": ~none, "test": none})
    calls = []
    forward = nn.model_forward
    monkeypatch.setattr(nn, "model_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.02, epochs=2, seed=1)
    with pytest.raises(ValueError, match="^the split has no train nodes$"):
        train(spec, two_support_kernels(data.graph), data, cfg)
    assert calls == []


def test_unscored_test_label_is_not_checked():
    data = split_dataset(17, 5)
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.02, epochs=2, seed=1)
    assert len(train(spec, two_support_kernels(data.graph), data, cfg).metrics) == 2


def test_train_takes_a_kernelset_or_a_support_list():
    data = separable_dataset()
    basis = decompose(build_laplacian(data.graph, SYM), SYM)
    ks = design_kernelset(basis, [AllPass(), LowPass(eta=2.0)])
    spec = ModelSpec((DepthwiseSeparableConv(out=2, use_bias=True, activation="linear"),))
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=0, kernel_dropout=0.3)
    a = train(spec, ks, data, cfg)
    b = train(spec, list(ks.supports), data, cfg)
    assert a.metrics == b.metrics


def test_model_must_fit_the_problem_before_first_forward(monkeypatch):
    calls = []
    forward = nn.model_forward
    monkeypatch.setattr(nn, "model_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    cfg = TrainConfig(learning_rate=0.02, epochs=2, seed=1)
    data = separable_dataset()
    node_model_with_readout = ModelSpec((
        MultiSupportConv(out=4, activation="relu"), ReadoutMeanMax(), Dense(out=2)))
    with pytest.raises(ValueError, match="node-level\\) model cannot contain a meanmax readout"):
        train(node_model_with_readout, two_support_kernels(data.graph), data, cfg)
    ds = graph_classification_dataset(n_graphs=6)
    ids = dict(train_idx=np.arange(4), val_idx=np.arange(4, 6))
    with pytest.raises(ValueError, match="graph-level model needs a meanmax readout"):
        train(ModelSpec((MultiSupportConv(out=2),)), allpass_kernelsets(ds), ds, cfg, **ids)
    conv_after_readout = ModelSpec((
        MultiSupportConv(out=4), ReadoutMeanMax(), MultiSupportConv(out=2)))
    with pytest.raises(ValueError, match="graph convolution cannot follow the meanmax readout"):
        train(conv_after_readout, allpass_kernelsets(ds), ds, cfg, **ids)
    # binary_ce scores one-hot graph labels; a single graph trains with softmax_ce
    with pytest.raises(ValueError, match="single-graph run trains with softmax_ce, not binary_ce"):
        train(ModelSpec((MultiSupportConv(out=2),)), two_support_kernels(data.graph), data,
              replace(cfg, loss="binary_ce"))
    assert calls == []


def graph_classification_dataset(n_graphs=40, seed=0):
    graphs, labels = [], []
    for i in range(n_graphs):
        cls = i % 2
        g = random_graph(10 + (i % 4), 0.15 if cls == 0 else 0.5, seed=seed + i)
        graphs.append(replace(g, features=g.degrees[:, None]))
        labels.append(cls)
    return MultiGraphDataset(graphs=tuple(graphs), labels=np.array(labels), n_classes=2)


def allpass_kernelsets(ds):
    sets = []
    for g in ds.graphs:
        basis = decompose(build_laplacian(g, SYM), SYM)
        sets.append(design_kernelset(basis, [AllPass()]))
    return sets


GRAPH_SPEC = ModelSpec((
    MultiSupportConv(out=4, use_bias=True, activation="relu"),
    ReadoutMeanMax(),
    Dense(out=2, use_bias=True, activation="linear"),
))


def test_identical_single_class_graphs_are_trivial():
    g = random_graph(8, 0.4, seed=0)
    ds = MultiGraphDataset(graphs=tuple([g] * 10), labels=np.zeros(10, int), n_classes=1)
    spec = ModelSpec((
        MultiSupportConv(out=3, use_bias=True, activation="relu"),
        ReadoutMeanMax(),
        Dense(out=1, use_bias=True, activation="linear"),
    ))
    sets = allpass_kernelsets(ds)
    cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=5, seed=0)
    result = train(spec, sets, ds, cfg, train_idx=np.arange(8), val_idx=np.arange(8, 10))
    assert result.metrics[-1]["val_acc"] == 1.0


def test_inductive_training_learns_mean_degree():
    ds = graph_classification_dataset()
    sets = allpass_kernelsets(ds)
    cfg = TrainConfig(learning_rate=0.01, epochs=80, batch_size=10, seed=0)
    result = train(GRAPH_SPEC, sets, ds, cfg, train_idx=np.arange(30), val_idx=np.arange(30, 40))
    assert result.metrics[-1]["val_acc"] >= 0.9


def test_inductive_requires_indices():
    ds = graph_classification_dataset(n_graphs=10)
    with pytest.raises(ValueError, match="train_idx"):
        train(GRAPH_SPEC, allpass_kernelsets(ds), ds, TrainConfig())


def test_crossvalidate_single_repeat_flags_std():
    ds = graph_classification_dataset(n_graphs=30)
    sets = allpass_kernelsets(ds)
    cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=10, seed=0)
    cv = crossvalidate(ds, sets, GRAPH_SPEC, cfg, folds=5, repeats=1)
    assert cv.std == 0.0 and cv.std_defined is False
    assert len(cv.repeat_accuracies) == 1 and len(cv.best_epochs) == 1


def test_crossvalidate_mean_degree_task():
    ds = graph_classification_dataset(n_graphs=200, seed=100)
    sets = allpass_kernelsets(ds)
    cfg = TrainConfig(learning_rate=0.01, epochs=25, batch_size=50, seed=0)
    cv = crossvalidate(ds, sets, GRAPH_SPEC, cfg, folds=10, repeats=1)
    assert cv.mean >= 0.95


@pytest.mark.parametrize("folds", [1, 0, -2])
def test_crossvalidate_needs_two_folds(monkeypatch, folds):
    ds = graph_classification_dataset(n_graphs=8)
    monkeypatch.setattr(nn, "_fit", lambda *a, **k: pytest.fail("a fold was trained"))
    with pytest.raises(ValueError, match=f"at least 2 folds, got {folds}"):
        crossvalidate(ds, allpass_kernelsets(ds), GRAPH_SPEC, TrainConfig(epochs=1), folds=folds)


def test_crossvalidate_needs_a_repeat(monkeypatch):
    ds = graph_classification_dataset(n_graphs=8)
    monkeypatch.setattr(nn, "_fit", lambda *a, **k: pytest.fail("a fold was trained"))
    with pytest.raises(ValueError, match="need at least one repeat"):
        crossvalidate(ds, allpass_kernelsets(ds), GRAPH_SPEC, TrainConfig(epochs=1), repeats=0)


def test_crossvalidate_scores_only_validation_graphs(monkeypatch, tmp_path):
    """Each fold-epoch scores the fold's validation graphs and nothing else,
    and the CV result is the one the public train's val_acc rows give. The
    spy appends one line per call to a file, so that it records the calls
    made in fold workers too; folds run side by side, so the calls are
    compared as a multiset."""
    ds = graph_classification_dataset(n_graphs=12)
    sets = allpass_kernelsets(ds)
    cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=4, input_dropout=0.2,
                      kernel_dropout=0.2, seed=2)
    folds, repeats = 3, 2
    log, evaluate = tmp_path / "scored.txt", nn.evaluate_graphs

    def spy(*a):
        with open(log, "a") as fh:
            fh.write(" ".join(map(str, a[4])) + "\n")
        return evaluate(*a)

    monkeypatch.setattr(nn, "evaluate_graphs", spy)
    cv = crossvalidate(ds, sets, GRAPH_SPEC, cfg, folds=folds, repeats=repeats)
    monkeypatch.undo()
    scored = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    expected_scored, accs, best_epochs = [], [], []
    for rep in range(repeats):
        fold_ids = nn.make_folds(ds, folds, seed=cfg.seed + 7919 * rep)
        curves = []
        for f in range(folds):
            va = np.flatnonzero(fold_ids == f)
            fold_cfg = replace(cfg, seed=cfg.seed + 1000 * rep + f + 1)
            result = train(GRAPH_SPEC, sets, ds, fold_cfg,
                           train_idx=np.flatnonzero(fold_ids != f), val_idx=va)
            curves.append([m["val_acc"] for m in result.metrics])
            expected_scored += [tuple(va)] * cfg.epochs
        avg = np.mean(np.array(curves), axis=0)
        best_epochs.append(int(np.argmax(avg)))
        accs.append(float(avg[best_epochs[-1]]))
    assert Counter(scored) == Counter(expected_scored)
    assert cv == nn.CVResult(mean=float(np.mean(accs)), std=float(np.std(accs)),
                             std_defined=True, repeat_accuracies=accs, best_epochs=best_epochs)


fold_workers = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or _blas._openblas_thread_functions() is None,
    reason="fold workers need fork and an OpenBLAS thread setter")


@pytest.fixture
def hang_guard():
    """Turns a hang into a failure: SIGALRM raises in the test after 60 s."""
    def on_alarm(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@fold_workers
def test_folds_side_by_side_keep_fold_order_and_split_round_robin(hang_guard):
    """The caller trains folds 0, 2, 4 and one child 1 and 3, each at one
    BLAS thread; the caller's thread count is restored afterwards."""
    _, get_threads = _blas._openblas_thread_functions()
    before = get_threads()
    curves = nn._folds_side_by_side(lambda f: (f, os.getpid(), get_threads()), 5, 2)
    assert [f for f, _, _ in curves] == [0, 1, 2, 3, 4]
    pids = [pid for _, pid, _ in curves]
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()
    assert [threads for _, _, threads in curves] == [1] * 5
    assert get_threads() == before
    assert multiprocessing.active_children() == []


def failing_at(failures):
    """A fold job that raises failures[f] at fold f, sleeps a minute at a fold
    mapped to None, and returns a curve otherwise."""
    def job(f):
        if f in failures:
            if failures[f] is None:
                time.sleep(60)
            else:
                raise failures[f]
        return [float(f)]
    return job


@fold_workers
@pytest.mark.parametrize("folds,failures,raised,message", [
    # a child's error reaches the caller with its type and message
    (2, {1: ValueError("fold 1 broke")}, ValueError, "fold 1 broke"),
    (3, {1: TrainingDiverged(4, float("nan"))}, TrainingDiverged,
     "non-finite loss nan at epoch 4"),
    # the lowest failing fold's error, as the in-process loop raises it:
    # this process fails at fold 2, the child at fold 1
    (4, {1: ValueError("fold 1"), 2: ValueError("fold 2"), 3: ValueError("fold 3")},
     ValueError, "fold 1"),
    # this process fails at fold 0 and ends the child, which would sleep a minute
    (2, {0: ValueError("fold 0"), 1: None}, ValueError, "fold 0"),
])
def test_fold_worker_failure_reaches_the_caller(hang_guard, folds, failures, raised, message):
    started = time.monotonic()
    with pytest.raises(raised) as info:
        nn._folds_side_by_side(failing_at(failures), folds, 2)
    assert type(info.value) is raised and str(info.value) == message
    assert time.monotonic() - started < 30
    assert multiprocessing.active_children() == []


@fold_workers
def test_fold_worker_that_exits_without_a_result_is_named(hang_guard):
    def job(f):
        if f == 1:
            os._exit(9)
        return [0.0]

    with pytest.raises(ChildProcessError, match="^fold worker exited with code 9 without its folds$"):
        nn._folds_side_by_side(job, 3, 2)
    assert multiprocessing.active_children() == []


def test_training_diverged_survives_pickling():
    exc = pickle.loads(pickle.dumps(TrainingDiverged(3, float("nan"))))
    assert type(exc) is TrainingDiverged
    assert exc.epoch == 3 and np.isnan(exc.value)
    assert str(exc) == "non-finite loss nan at epoch 3"


def test_crossvalidate_rejects_too_many_folds():
    ds = graph_classification_dataset(n_graphs=8)
    with pytest.raises(ValueError, match="folds"):
        crossvalidate(ds, allpass_kernelsets(ds), GRAPH_SPEC, TrainConfig(), folds=9)


def test_checkpoint_roundtrip(tmp_path):
    from specgconv.nn import load_checkpoint, save_checkpoint

    spec = ModelSpec((
        DepthwiseSeparableConv(out=3, use_bias=True, activation="relu"),
        ReadoutMeanMax(),
        Dense(out=2, use_bias=False, activation="linear"),
    ))
    params = init_parameters(spec, 4, 2, np.random.default_rng(0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert len(back) == len(params)
    for a, b in zip(flatten_params(params), flatten_params(back)):
        assert np.array_equal(a, b)
    assert back[1].bias is None and back[1].depthwise is None
    assert back[2].bias is None


@pytest.mark.parametrize("field,value,message", [
    ("epochs", 2.5, "epochs must be an integer"),
    ("batch_size", "4", "batch_size must be an integer"),
    ("seed", None, "seed must be an integer"),
    ("seed", -1, "seed must be >= 0"),
    ("learning_rate", "fast", "learning_rate must be a number"),
    ("weight_decay", [0.1], "weight_decay must be a number"),
    ("kernel_dropout", None, "kernel_dropout must be a number"),
    ("epochs", True, "epochs must be an integer, got True"),
    ("seed", False, "seed must be an integer, got False"),
    ("learning_rate", True, "learning_rate must be a number, got True"),
    ("input_dropout", False, "input_dropout must be a number, got False"),
])
def test_train_config_refuses_wrong_types(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(input_dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(kernel_dropout=-0.2)
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge")
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def _pinned_dsg_run():
    """DSG8-DSG3 on a 60-node graph with non-symmetric supports and dual
    dropout 0.75, whose 1/keep = 4 is exact."""
    rng = np.random.default_rng(21)
    n = 60
    g = replace(random_graph(n, 0.1, seed=21), features=rng.standard_normal((n, 12)))
    labels = rng.integers(0, 3, n)
    split = rng.permutation(n)
    masks = {name: np.isin(np.arange(n), split[a:b])
             for name, (a, b) in {"train": (0, 30), "val": (30, 45), "test": (45, 60)}.items()}
    data = SingleGraphDataset(graph=g, labels=labels, masks=masks)
    supports = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(3)]
    cfg = TrainConfig(learning_rate=0.02, epochs=3, seed=5, input_dropout=0.75,
                      kernel_dropout=0.75)
    return train(nn.parse_architecture("DSG8-DSG3"), supports, data, cfg)


def _pinned_graph_run():
    """G6-G8-G5-meanmax-D3 on eight graphs of 5 to 14 nodes, four per
    mini-batch (one chunk), with dual dropout 0.1, whose 1/keep is inexact.
    The G8 layer widens, so its backward adds C_s^T products into dHin; the
    G5 layer narrows; graphs wider and narrower than X meet both scalings."""
    rng = np.random.default_rng(22)
    sizes = (5, 14, 7, 11, 9, 6, 13, 8)
    graphs = tuple(replace(random_graph(m, 0.4, seed=30 + i), features=rng.standard_normal((m, 4)))
                   for i, m in enumerate(sizes))
    kernelsets = [[rng.standard_normal((m, m)) / np.sqrt(m) for _ in range(2)] for m in sizes]
    data = MultiGraphDataset(graphs=graphs, labels=rng.integers(0, 3, len(sizes)), n_classes=3)
    cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=4, seed=6, input_dropout=0.1,
                      kernel_dropout=0.1)
    return train(nn.parse_architecture("G6-G8-G5-meanmax-D3"), kernelsets, data, cfg,
                 train_idx=[0, 1, 2, 3, 4, 5], val_idx=[6, 7])


# (train_loss, val_loss) per epoch, as recorded from the code that formed
# C_s^T dZ from column blocks and scaled each block of the dropped support
_PINNED_DSG = [(1.3108988553681937, 1.436085181116386),
               (1.2760474797835202, 1.383869891693818),
               (1.2413026204182886, 1.3403846037964622)]
_PINNED_DSG_7_ROW_BLOCKS = [(1.3108988553681937, 1.4360851811163855),
                            (1.2760474797835202, 1.383869891693818),
                            (1.2413026204182886, 1.340384603796462)]
_PINNED_GRAPHS = [(1.220706459767935, 0.7499025202482272),
                  (0.8837521708447404, 1.1316715726183166),
                  (0.7403700937346106, 1.6028499013937005)]


@pytest.mark.parametrize("run,apply_bytes,want", [
    (_pinned_dsg_run, None, _PINNED_DSG),
    (_pinned_dsg_run, 8 * 60 * 7, _PINNED_DSG_7_ROW_BLOCKS),
    (_pinned_graph_run, None, _PINNED_GRAPHS),
], ids=["dsg-dropout-0.75", "dsg-dropout-0.75-7-row-blocks", "graphs-dropout-0.1"])
def test_training_trajectories_match_the_recorded_ones(run, apply_bytes, want, monkeypatch):
    """Three epochs of training with kernel and input dropout stay within
    1e-10 relative of the recorded losses: a rewrite of the masked products
    may move their rounding, not the seed -> trajectory mapping."""
    if apply_bytes is not None:
        monkeypatch.setattr(nn, "_APPLY_BYTES", apply_bytes)
    got = [(row["train_loss"], row["val_loss"]) for row in run().metrics]
    assert np.allclose(got, want, rtol=1e-10, atol=0)


def test_single_graph_training_refuses_supports_of_another_size():
    data = replace(make_ring(12), features=np.ones((12, 2)))
    data = SingleGraphDataset(graph=data, labels=np.zeros(12, int),
                              masks={"train": np.arange(12) < 6, "val": np.arange(12) >= 6,
                                     "test": np.zeros(12, bool)})
    spec = ModelSpec((MultiSupportConv(out=2, use_bias=True, activation="linear"),))
    with pytest.raises(ValueError, match=r"^graph 0 has 12 nodes, but a support of shape \(11, 11\)$"):
        train(spec, two_support_kernels(make_ring(11)), data, TrainConfig(epochs=2))
    with pytest.raises(ValueError, match=r"^the graph has 12 nodes, but a support of shape"):
        model_forward(spec, init_parameters(spec, 2, 2, np.random.default_rng(0)),
                      data.graph.features, two_support_kernels(make_ring(11)))
