"""Finite-difference check of the hand-derived gradients of every layer,
activation and loss, the mean+max readout, both dropout kinds and a batch
of stacked graphs (``specgconv gradcheck``)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .nn import (
    ACTIVATIONS, LOSSES, Dense, DepthwiseSeparableConv, GraphBatch, ModelSpec, MultiSupportConv,
    ReadoutMeanMax, TrainConfig, add_decay_grads, decay_value, flatten_params, init_parameters,
    model_backward, model_forward, stack_graphs, zero_like_params,
)


def _checked_loss(spec, params, H0, kernels, y, mask, config, rng_factory):
    """(caches, loss, loss gradient) of a forward pass for gradient
    checking. With a node mask, the forward forms only the masked rows, as
    train's training forward does; with rng_factory, dropout is applied from
    a freshly seeded generator so the objective stays deterministic across
    repeated evaluations."""
    dropout = {} if rng_factory is None else dict(
        train=True, rng=rng_factory(), input_dropout=config.input_dropout,
        kernel_dropout=config.kernel_dropout)
    out, caches = model_forward(spec, params, H0, kernels, rows=mask, **dropout)
    loss, dout = LOSSES[config.loss](out, y if mask is None else y[mask])
    return caches, loss, dout


def analytic_gradients(spec, params, H0, kernels, y, mask, config: TrainConfig,
                       rng_factory=None):
    """Gradient of the full training objective (loss + decay) at params."""
    caches, _, dout = _checked_loss(spec, params, H0, kernels, y, mask, config, rng_factory)
    grads = model_backward(spec, params, caches, dout)
    add_decay_grads(grads, params, config.weight_decay, config.depthwise_decay)
    return grads


def objective_value(spec, params, H0, kernels, y, mask, config: TrainConfig,
                    rng_factory=None) -> float:
    _, loss, _ = _checked_loss(spec, params, H0, kernels, y, mask, config, rng_factory)
    return loss + decay_value(params, config.weight_decay, config.depthwise_decay)


# step of the central differences
FD_STEP = 1e-6


def finite_difference_gradients(spec, params, H0, kernels, y, mask, config, rng_factory=None):
    """Central-difference gradient of the same objective, one entry at a time."""
    grads = zero_like_params(params)
    for p, g in zip(flatten_params(params), flatten_params(grads)):
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + FD_STEP
            hi = objective_value(spec, params, H0, kernels, y, mask, config, rng_factory)
            p.flat[i] = orig - FD_STEP
            lo = objective_value(spec, params, H0, kernels, y, mask, config, rng_factory)
            p.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * FD_STEP)
    return grads


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for a, f in zip(flatten_params(analytic), flatten_params(numeric)):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


@dataclass
class GradCase:
    name: str
    spec: ModelSpec
    params: list
    H0: np.ndarray
    supports: Union[list, GraphBatch]
    y: np.ndarray
    mask: Optional[np.ndarray]
    config: TrainConfig
    rng_factory: Optional[object] = None


def _gradcheck_cases(seed: int) -> list:
    rng = np.random.default_rng(seed)
    n, f0, hidden, n_classes = 7, 3, 5, 3
    H0 = rng.standard_normal((n, f0))
    # one symmetric and one deliberately asymmetric support, so the
    # backward pass is exercised with C != C.T
    sym = rng.standard_normal((n, n))
    sym = 0.5 * (sym + sym.T) / np.sqrt(n)
    asym = rng.standard_normal((n, n)) / np.sqrt(n)
    supports = [sym, asym]
    labels = rng.integers(0, n_classes, size=n)
    binary = rng.integers(0, 2, size=(n, n_classes)).astype(np.float64)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=4, replace=False)] = True

    def body(kind, act):
        mk = {"multisupport": MultiSupportConv, "dsg": DepthwiseSeparableConv,
              "dense": Dense}[kind]
        return [mk(out=hidden, use_bias=True, activation=act),
                mk(out=n_classes, use_bias=True, activation="linear")]

    cases = []
    cfg = dict(learning_rate=0.01, epochs=1, weight_decay=3e-4, depthwise_decay=3e-3)
    for kind in ("multisupport", "dsg", "dense"):
        for act in ACTIVATIONS:
            for loss in ("softmax_ce", "binary_ce"):
                spec = ModelSpec(tuple(body(kind, act)))
                params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 1))
                if kind == "dsg":
                    # move depthwise rows off their 1/0 initialization so
                    # every support contributes to the objective
                    for lp in params:
                        if lp.depthwise is not None:
                            lp.depthwise += 0.3 * np.random.default_rng(seed + 2).standard_normal(lp.depthwise.shape)
                y = labels if loss == "softmax_ce" else binary
                cases.append(GradCase(
                    name=f"{kind}/{act}/{loss}", spec=spec, params=params, H0=H0,
                    supports=supports, y=y, mask=mask,
                    config=TrainConfig(loss=loss, **cfg),
                ))
    # graph-level pipeline through the mean+max readout
    for loss in ("softmax_ce", "binary_ce"):
        spec = ModelSpec((
            MultiSupportConv(out=4, use_bias=True, activation="relu"),
            ReadoutMeanMax(),
            Dense(out=n_classes, use_bias=True, activation="linear"),
        ))
        params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 3))
        y = np.array([1]) if loss == "softmax_ce" else np.array([[1.0, 0.0, 1.0]])
        cases.append(GradCase(
            name=f"readout/relu/{loss}", spec=spec, params=params, H0=H0,
            supports=supports, y=y, mask=None, config=TrainConfig(loss=loss, **cfg),
        ))
    # dropout path with a frozen mask sequence (fresh generator per call)
    for kind in ("multisupport", "dsg"):
        spec = ModelSpec(tuple(body(kind, "relu")))
        params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 4))
        cases.append(GradCase(
            name=f"{kind}/relu/softmax_ce+dropout", spec=spec, params=params, H0=H0,
            supports=supports, y=labels, mask=mask,
            config=TrainConfig(loss="softmax_ce", input_dropout=0.4,
                               kernel_dropout=0.3, **cfg),
            rng_factory=lambda: np.random.default_rng(seed + 5),
        ))
    # a dense layer after the last conv layer: both run on the masked rows,
    # with row-selected kernel and input dropout
    spec = ModelSpec((DepthwiseSeparableConv(out=hidden, use_bias=True, activation="relu"),
                      Dense(out=n_classes, use_bias=True, activation="linear")))
    params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 9))
    params[0].depthwise += 0.3 * np.random.default_rng(seed + 10).standard_normal(
        params[0].depthwise.shape)
    cases.append(GradCase(
        name="dsg-dense/relu/binary_ce+dropout", spec=spec, params=params, H0=H0,
        supports=supports, y=binary, mask=mask,
        config=TrainConfig(loss="binary_ce", input_dropout=0.4, kernel_dropout=0.3, **cfg),
        rng_factory=lambda: np.random.default_rng(seed + 11),
    ))
    # a batch of two stacked graphs (the one above and a 5-node one) through
    # an equal-width DSG layer and the segment readout, with dropout
    extra = np.random.default_rng(seed + 6)
    H0_b, batch = stack_graphs(
        [H0, extra.standard_normal((5, f0))],
        [supports, [extra.standard_normal((5, 5)) / np.sqrt(5) for _ in supports]])
    spec = ModelSpec((
        MultiSupportConv(out=4, use_bias=True, activation="relu"),
        DepthwiseSeparableConv(out=4, use_bias=True, activation="tanh"),
        ReadoutMeanMax(),
        Dense(out=n_classes, use_bias=True, activation="linear"),
    ))
    params = init_parameters(spec, f0, len(supports), np.random.default_rng(seed + 7))
    params[1].depthwise += 0.3 * extra.standard_normal(params[1].depthwise.shape)
    cases.append(GradCase(
        name="batch2/readout/softmax_ce+dropout", spec=spec, params=params, H0=H0_b,
        supports=batch, y=np.array([1, 2]), mask=None,
        config=TrainConfig(loss="softmax_ce", input_dropout=0.2, kernel_dropout=0.2, **cfg),
        rng_factory=lambda: np.random.default_rng(seed + 8),
    ))
    return cases


def gradcheck_suite(seed: int = 0, mutate=None) -> list:
    """Finite-difference check over every layer/activation/loss combination.

    Returns (case name, max relative error) pairs. mutate, when given, is
    applied as mutate(name, grads) to the analytic gradients before the
    comparison; tests use it to prove the check catches injected bugs.
    """
    report = []
    for case in _gradcheck_cases(seed):
        analytic = analytic_gradients(case.spec, case.params, case.H0, case.supports,
                                      case.y, case.mask, case.config, case.rng_factory)
        if mutate is not None:
            mutate(case.name, analytic)
        numeric = finite_difference_gradients(case.spec, case.params, case.H0,
                                              case.supports, case.y, case.mask,
                                              case.config, case.rng_factory)
        report.append((case.name, max_relative_error(analytic, numeric)))
    return report
