"""Finite-difference check of the hand-derived gradients of every layer and
activation under the softmax cross-entropy loss, the mean+max readout, both
dropout kinds and a batch of stacked graphs (``specgconv gradcheck``)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph
from .nn import (
    ACTIVATIONS, Dense, DepthwiseSeparableConv, ModelSpec, MultiSupportConv,
    ReadoutMeanMax, TrainConfig, _batch_gradients, add_decay_grads, decay_value,
    flatten_params, init_parameters,
)

# step of the central differences
FD_STEP = 1e-6


@dataclass
class GradCase:
    """One training step to check: a mini-batch of all the case's graphs
    (edgeless: the step reads their features and node counts only) with
    their supports, the per-graph targets of the step (row g: the labels
    graph g's loss reads), the node mask a single graph's loss reads, and
    the seed of the dropout masks, drawn afresh on each evaluation so the
    objective stays deterministic."""
    name: str
    spec: ModelSpec
    params: list
    graphs: list
    supports: list
    targets: np.ndarray
    config: TrainConfig
    loss_rows: Optional[np.ndarray] = None
    dropout_seed: int = 0

    def objective(self) -> tuple:
        """(loss + decay, its gradient) at params: nn._batch_gradients, the
        step that train takes, plus the decay that train adds to it."""
        cfg = self.config
        loss, grads = _batch_gradients(
            self.spec, self.params, self.graphs, self.supports, range(len(self.graphs)),
            self.targets, cfg, np.random.default_rng(self.dropout_seed), 0, self.loss_rows)
        add_decay_grads(grads, self.params, cfg.weight_decay, cfg.depthwise_decay)
        return loss + decay_value(self.params, cfg.weight_decay, cfg.depthwise_decay), grads


def finite_difference_gradients(case: GradCase) -> list:
    """Central-difference gradient of the case's objective, one entry at a
    time, as arrays in flatten_params order."""
    numeric = []
    for p in flatten_params(case.params):
        g = np.empty_like(p)
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + FD_STEP
            hi = case.objective()[0]
            p.flat[i] = orig - FD_STEP
            lo = case.objective()[0]
            p.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * FD_STEP)
        numeric.append(g)
    return numeric


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for a, f in zip(flatten_params(analytic), numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _gradcheck_cases(seed: int) -> list:
    rng = np.random.default_rng(seed)
    n, f0, hidden, n_classes = 7, 3, 5, 3
    graph = Graph((), (), rng.standard_normal((n, f0)))
    # one symmetric and one deliberately asymmetric support, so the
    # backward pass is exercised with C != C.T
    sym = rng.standard_normal((n, n))
    sym = 0.5 * (sym + sym.T) / np.sqrt(n)
    asym = rng.standard_normal((n, n)) / np.sqrt(n)
    supports = [sym, asym]
    labels = rng.integers(0, n_classes, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=4, replace=False)] = True

    def body(kind, act):
        mk = {"multisupport": MultiSupportConv, "dsg": DepthwiseSeparableConv,
              "dense": Dense}[kind]
        return [mk(out=hidden, use_bias=True, activation=act),
                mk(out=n_classes, use_bias=True, activation="linear")]

    cases = []
    cfg = dict(learning_rate=0.01, epochs=1, weight_decay=3e-4, depthwise_decay=3e-3)
    drop = dict(input_dropout=0.4, kernel_dropout=0.3, **cfg)
    for kind in ("multisupport", "dsg", "dense"):
        for act in ACTIVATIONS:
            spec = ModelSpec(tuple(body(kind, act)))
            params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 1))
            if kind == "dsg":
                # move depthwise rows off their 1/0 initialization so
                # every support contributes to the objective
                for lp in params:
                    if lp.depthwise is not None:
                        lp.depthwise += 0.3 * np.random.default_rng(seed + 2).standard_normal(lp.depthwise.shape)
            cases.append(GradCase(f"{kind}/{act}/softmax_ce", spec, params, [graph], [supports],
                                  labels[mask][None, :], TrainConfig(**cfg), mask))
    # graph-level pipeline through the mean+max readout
    spec = ModelSpec((
        MultiSupportConv(out=4, use_bias=True, activation="relu"),
        ReadoutMeanMax(),
        Dense(out=n_classes, use_bias=True, activation="linear"),
    ))
    params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 3))
    cases.append(GradCase("readout/relu/softmax_ce", spec, params, [graph], [supports],
                          np.array([[1]]), TrainConfig(**cfg)))
    # dropout path with a frozen mask sequence (fresh generator per evaluation)
    for kind in ("multisupport", "dsg"):
        spec = ModelSpec(tuple(body(kind, "relu")))
        params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 4))
        cases.append(GradCase(f"{kind}/relu/softmax_ce+dropout", spec, params, [graph],
                              [supports], labels[mask][None, :], TrainConfig(**drop),
                              mask, dropout_seed=seed + 5))
    # a dense layer after the last conv layer: both run on the masked rows,
    # with row-selected kernel and input dropout
    spec = ModelSpec((DepthwiseSeparableConv(out=hidden, use_bias=True, activation="relu"),
                      Dense(out=n_classes, use_bias=True, activation="linear")))
    params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 9))
    params[0].depthwise += 0.3 * np.random.default_rng(seed + 10).standard_normal(
        params[0].depthwise.shape)
    cases.append(GradCase("dsg-dense/relu/softmax_ce+dropout", spec, params, [graph], [supports],
                          labels[mask][None, :], TrainConfig(**drop), mask, dropout_seed=seed + 11))
    # a batch of two graphs (the one above and a 5-node one), stacked as one
    # chunk, through an equal-width DSG layer and the segment readout, with
    # dropout
    extra = np.random.default_rng(seed + 6)
    graphs = [graph, Graph((), (), extra.standard_normal((5, f0)))]
    batch_supports = [supports, [extra.standard_normal((5, 5)) / np.sqrt(5) for _ in supports]]
    spec = ModelSpec((
        MultiSupportConv(out=4, use_bias=True, activation="relu"),
        DepthwiseSeparableConv(out=4, use_bias=True, activation="tanh"),
        ReadoutMeanMax(),
        Dense(out=n_classes, use_bias=True, activation="linear"),
    ))
    params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 7))
    params[1].depthwise += 0.3 * extra.standard_normal(params[1].depthwise.shape)
    config = TrainConfig(input_dropout=0.2, kernel_dropout=0.2, **cfg)
    cases.append(GradCase("batch2/readout/softmax_ce+dropout", spec, params, graphs,
                          batch_supports, np.array([[1], [2]]), config, dropout_seed=seed + 8))
    return cases


def gradcheck_suite(seed: int = 0) -> list:
    """Finite-difference check over every layer/activation combination.

    Returns (case name, max relative error) pairs.
    """
    report = []
    for case in _gradcheck_cases(seed):
        _, analytic = case.objective()
        numeric = finite_difference_gradients(case)
        report.append((case.name, max_relative_error(analytic, numeric)))
    return report
