import numpy as np

from specgconv import nn
from specgconv.gradcheck import gradcheck_suite
from specgconv.nn import (
    Dense,
    ModelSpec,
    add_decay_grads,
    init_parameters,
)
from scaffold import zero_like_params

TOL = 1e-5

# the cases of the suite, in the order `specgconv gradcheck` prints them
CASES = [f"{kind}/{act}/softmax_ce" for kind in ("multisupport", "dsg", "dense")
         for act in ("relu", "linear", "tanh")] + [
    "readout/relu/softmax_ce",
    "multisupport/relu/softmax_ce+dropout", "dsg/relu/softmax_ce+dropout",
    "dsg-dense/relu/softmax_ce+dropout", "batch2/readout/softmax_ce+dropout",
]


def test_all_layer_loss_combinations_pass():
    report = gradcheck_suite(seed=0)
    assert [name for name, _ in report] == CASES
    assert len(CASES) == 14
    for name, err in report:
        assert err < TOL, f"{name}: {err}"


def test_the_check_runs_the_training_step(monkeypatch):
    """Every case takes its analytic gradient from nn._batch_gradients, the
    step train runs: a backward pass that doubles the loss gradient, patched
    where that step looks it up, fails every case."""
    backward = nn.model_backward

    def doubled(spec, params, caches, dout, into=None):
        return backward(spec, params, caches, 2.0 * dout, into=into)

    monkeypatch.setattr(nn, "model_backward", doubled)
    report = gradcheck_suite(seed=0)
    assert [name for name, err in report if err >= TOL] == CASES


def test_injected_sign_flip_is_caught(monkeypatch):
    """A depthwise gradient of the wrong sign fails exactly the cases that
    hold a DSG layer."""
    mixing_grads = nn._mixing_grads

    def flipped(layer, lp, RS):
        weights, depthwise = mixing_grads(layer, lp, RS)
        return weights, None if depthwise is None else -depthwise

    monkeypatch.setattr(nn, "_mixing_grads", flipped)
    report = gradcheck_suite(seed=0)
    assert [name for name, err in report if err >= TOL] == [
        name for name in CASES if name.startswith(("dsg/", "dsg-dense/", "batch2/"))]


def test_biases_never_decayed():
    spec = ModelSpec((Dense(out=3, use_bias=True, activation="linear"),))
    params = init_parameters(spec, 4, 1, np.random.default_rng(0))
    params[0].bias += 1.5
    grads = zero_like_params(params)
    add_decay_grads(grads, params, weight_decay=0.3, depthwise_decay=0.7)
    assert np.array_equal(grads[0].bias, np.zeros(3))
    assert np.array_equal(grads[0].weights[0], 0.3 * params[0].weights[0])


def test_zero_decay_is_noop():
    spec = ModelSpec((Dense(out=2, use_bias=True, activation="linear"),))
    params = init_parameters(spec, 3, 1, np.random.default_rng(1))
    grads = zero_like_params(params)
    add_decay_grads(grads, params, weight_decay=0.0, depthwise_decay=0.0)
    assert np.array_equal(grads[0].weights[0], np.zeros((3, 2)))
    assert np.array_equal(grads[0].bias, np.zeros(2))
