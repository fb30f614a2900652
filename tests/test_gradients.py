import numpy as np

from specgconv.gradcheck import gradcheck_suite
from specgconv.nn import (
    Dense,
    ModelSpec,
    add_decay_grads,
    init_parameters,
    zero_like_params,
)

TOL = 1e-5


def test_all_layer_loss_combinations_pass():
    report = gradcheck_suite(seed=0)
    assert len(report) >= 20
    names = {name for name, _ in report}
    for needle in ("multisupport", "dsg", "dense", "readout", "binary_ce",
                   "softmax_ce", "tanh", "dropout"):
        assert any(needle in n for n in names), needle
    for name, err in report:
        assert err < TOL, f"{name}: {err}"


def test_injected_sign_flip_is_caught():
    def flip_depthwise(name, grads):
        if name.startswith("dsg"):
            for g in grads:
                if g.depthwise is not None:
                    g.depthwise *= -1.0

    report = gradcheck_suite(seed=0, mutate=flip_depthwise)
    bad = [name for name, err in report if err >= TOL]
    assert bad and all(name.startswith("dsg") for name in bad)


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
