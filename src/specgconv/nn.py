"""Trainable convolutional graph networks over precomputed supports.

Layers: multi-support graph convolution (one weight matrix per support),
depthwise separable graph convolution (per-support scalar feature mixing
followed by one shared 1x1 matrix), dense, and a mean+max readout for
graph-level outputs. Gradients are reverse-mode and hand-derived per layer;
the optimizer is Adam with a fixed learning rate.

Training is single-threaded and deterministic per seed: one Generator drives
initialization and both dropout kinds (input dropout on layer inputs, kernel
dropout as Bernoulli masking of support entries with inverted scaling).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .data import MultiGraphDataset, SingleGraphDataset, make_folds

ACTIVATIONS = ("relu", "linear", "tanh")


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiSupportConv:
    out: int
    use_bias: bool = False
    activation: str = "relu"


@dataclass(frozen=True)
class DepthwiseSeparableConv:
    out: int
    use_bias: bool = False
    activation: str = "relu"


@dataclass(frozen=True)
class Dense:
    out: int
    use_bias: bool = False
    activation: str = "relu"


@dataclass(frozen=True)
class ReadoutMeanMax:
    """Graph readout: concatenation of mean and max pooling over nodes."""


LayerSpec = Union[MultiSupportConv, DepthwiseSeparableConv, Dense, ReadoutMeanMax]
_TRAINABLE = (MultiSupportConv, DepthwiseSeparableConv, Dense)
_CONV = (MultiSupportConv, DepthwiseSeparableConv)


def _check_layer(layer: LayerSpec) -> None:
    if isinstance(layer, _TRAINABLE):
        if layer.out < 1:
            raise ValueError(f"layer width must be >= 1, got {layer.out}")
        if layer.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {layer.activation!r}")


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        for layer in self.layers:
            _check_layer(layer)
        object.__setattr__(self, "layers", tuple(self.layers))

    def widths(self, f0: int) -> list:
        """Feature widths through the pipeline, starting at the input width."""
        ws = [f0]
        for layer in self.layers:
            if isinstance(layer, _TRAINABLE):
                ws.append(layer.out)
            elif isinstance(layer, ReadoutMeanMax):
                ws.append(2 * ws[-1])
            else:
                raise TypeError(f"not a LayerSpec: {layer!r}")
        return ws


_ARCH_TOKEN = re.compile(r"^(DSG|G|D)(\d+)$")


def parse_architecture(
    arch: str,
    hidden_activation: str = "relu",
    output_activation: str = "linear",
    hidden_bias: bool = False,
    output_bias: bool = True,
) -> ModelSpec:
    """Parse a dash-separated architecture string into a ModelSpec.

    Tokens: ``DSG<k>`` depthwise separable graph conv, ``G<k>`` multi-support
    graph conv, ``D<k>`` dense, ``meanmax`` readout. The last trainable layer
    gets the output activation and bias flag; all earlier ones the hidden
    settings.
    """
    tokens = [t for t in arch.strip().split("-") if t]
    if not tokens:
        raise ValueError("empty architecture string")
    kinds = []
    for tok in tokens:
        if tok == "meanmax":
            kinds.append(("meanmax", None))
            continue
        m = _ARCH_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad architecture token {tok!r}")
        kinds.append((m.group(1), int(m.group(2))))
    last_trainable = max(
        (i for i, (k, _) in enumerate(kinds) if k != "meanmax"), default=None
    )
    if last_trainable is None:
        raise ValueError("architecture has no trainable layer")
    layers = []
    for i, (kind, width) in enumerate(kinds):
        if kind == "meanmax":
            layers.append(ReadoutMeanMax())
            continue
        act = output_activation if i == last_trainable else hidden_activation
        bias = output_bias if i == last_trainable else hidden_bias
        cls = {"DSG": DepthwiseSeparableConv, "G": MultiSupportConv, "D": Dense}[kind]
        layers.append(cls(out=width, use_bias=bias, activation=act))
    return ModelSpec(tuple(layers))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class LayerParams:
    weights: list = field(default_factory=list)   # S matrices (multi-support) or one
    depthwise: Optional[np.ndarray] = None        # (S, f_in) rows, DSG only
    bias: Optional[np.ndarray] = None


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_parameters(
    spec: ModelSpec, f0: int, n_supports: int, rng: np.random.Generator
) -> list:
    """Fresh parameters: Glorot-uniform weights, zero biases, and depthwise
    rows starting at (1, 0, ..., 0) so a DSG layer initially sees only its
    first support."""
    params = []
    width = f0
    for layer in spec.layers:
        if isinstance(layer, MultiSupportConv):
            lp = LayerParams(
                weights=[_glorot(rng, width, layer.out) for _ in range(n_supports)]
            )
        elif isinstance(layer, DepthwiseSeparableConv):
            dw = np.zeros((n_supports, width))
            dw[0, :] = 1.0
            lp = LayerParams(weights=[_glorot(rng, width, layer.out)], depthwise=dw)
        elif isinstance(layer, Dense):
            lp = LayerParams(weights=[_glorot(rng, width, layer.out)])
        else:
            params.append(LayerParams())
            width = 2 * width
            continue
        if layer.use_bias:
            lp.bias = np.zeros(layer.out)
        params.append(lp)
        width = layer.out
    return params


def zero_like_params(params: Sequence[LayerParams]) -> list:
    out = []
    for lp in params:
        out.append(
            LayerParams(
                weights=[np.zeros_like(w) for w in lp.weights],
                depthwise=None if lp.depthwise is None else np.zeros_like(lp.depthwise),
                bias=None if lp.bias is None else np.zeros_like(lp.bias),
            )
        )
    return out


def flatten_params(params: Sequence[LayerParams]) -> list:
    """Deterministic flat list of parameter arrays (shared references)."""
    flat = []
    for lp in params:
        flat.extend(lp.weights)
        if lp.depthwise is not None:
            flat.append(lp.depthwise)
        if lp.bias is not None:
            flat.append(lp.bias)
    return flat


def count_parameters(params: Sequence[LayerParams], include_bias: bool = False) -> int:
    total = 0
    for lp in params:
        total += sum(w.size for w in lp.weights)
        if lp.depthwise is not None:
            total += lp.depthwise.size
        if include_bias and lp.bias is not None:
            total += lp.bias.size
    return total


def param_count(
    spec: ModelSpec, f0: int, n_supports: int, separable: Optional[bool] = None
) -> int:
    """Closed-form trainable parameter count, biases excluded.

    Conv layers contribute S*f_in*f_out (multi-support) or S*f_in +
    f_in*f_out (depthwise separable); dense layers f_in*f_out; readout
    nothing. With separable set, every conv layer is counted as that kind
    regardless of its spec, which is how the two formulas are compared on a
    single architecture.
    """
    total = 0
    width = f0
    for layer in spec.layers:
        if isinstance(layer, ReadoutMeanMax):
            width = 2 * width
            continue
        if isinstance(layer, _CONV):
            dsg = separable if separable is not None else isinstance(
                layer, DepthwiseSeparableConv
            )
            if dsg:
                total += n_supports * width + width * layer.out
            else:
                total += n_supports * width * layer.out
        else:
            total += width * layer.out
        width = layer.out
    return total


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def _supports_of(kernels) -> Sequence[np.ndarray]:
    return getattr(kernels, "supports", kernels)


class _TrainCtx:
    """Per-forward dropout state; absent at evaluation time."""

    def __init__(self, rng, input_dropout: float, kernel_dropout: float):
        self.rng = rng
        self.input_dropout = input_dropout
        self.kernel_dropout = kernel_dropout

    def input_mask(self, shape):
        if self.input_dropout <= 0:
            return None
        keep = 1.0 - self.input_dropout
        return (self.rng.random(shape) < keep).astype(np.float64) / keep

    def kernel_masked(self, supports):
        if self.kernel_dropout <= 0:
            return list(supports)
        keep = 1.0 - self.kernel_dropout
        return [
            C * ((self.rng.random(C.shape) < keep).astype(np.float64) / keep)
            for C in supports
        ]


def _narrowing(layer, Hin) -> bool:
    """Whether a conv layer applies its n x n supports to the f_out-wide
    side: C_s (Hin A_s) costs n^2 f_out per support instead of the n^2 f_in
    of (C_s Hin) A_s, so it is chosen exactly when f_in > f_out."""
    return Hin.shape[1] > layer.out


def _mixing(layer, lp) -> list:
    """Per-support f_in x f_out matrices A_s of a conv layer, so that its
    pre-activation is sum_s C_s Hin A_s: diag(w_s) W for DSG, W_s otherwise."""
    if isinstance(layer, DepthwiseSeparableConv):
        return [w[:, None] * lp.weights[0] for w in lp.depthwise]
    return lp.weights


def _layer_forward(layer, lp, H, supports, ctx):
    if isinstance(layer, ReadoutMeanMax):
        arg = np.argmax(H, axis=0)
        out = np.concatenate([H.mean(axis=0), H[arg, np.arange(H.shape[1])]])
        return out[None, :], {"n": H.shape[0], "argmax": arg}

    mask = ctx.input_mask(H.shape) if ctx is not None else None
    Hin = H if mask is None else H * mask
    cache = {"Hin": Hin, "mask": mask}

    if isinstance(layer, Dense):
        Z = Hin @ lp.weights[0]
    elif isinstance(layer, _CONV):
        Cs = ctx.kernel_masked(supports) if ctx is not None else list(supports)
        cache["Cs"] = Cs
        if _narrowing(layer, Hin):
            Z = sum(C @ (Hin @ A) for C, A in zip(Cs, _mixing(layer, lp)))
        else:
            PS = [C @ Hin for C in Cs]
            cache["PS"] = PS
            if isinstance(layer, DepthwiseSeparableConv):
                M = sum(w[None, :] * P for w, P in zip(lp.depthwise, PS))
                Z = M @ lp.weights[0]
                cache["M"] = M
            else:
                Z = sum(P @ W for P, W in zip(PS, lp.weights))
    else:
        raise TypeError(f"not a LayerSpec: {layer!r}")
    if lp.bias is not None:
        Z = Z + lp.bias
    cache["Z"] = Z
    return _act(Z, layer.activation), cache


def _layer_backward(layer, lp, cache, dout, input_grad=True):
    """Parameter gradients of one layer, and the gradient with respect to its
    input (None when input_grad is false)."""
    if isinstance(layer, ReadoutMeanMax):
        if not input_grad:
            return None, LayerParams()
        n, arg = cache["n"], cache["argmax"]
        f = arg.shape[0]
        dH = np.tile(dout[0, :f] / n, (n, 1))
        dH[arg, np.arange(f)] += dout[0, f:]
        return dH, LayerParams()

    dZ = dout * _act_grad(cache["Z"], layer.activation)
    grads = LayerParams()
    if lp.bias is not None:
        grads.bias = dZ.sum(axis=0)

    Hin, Cs = cache["Hin"], cache.get("Cs")
    dHin = None
    if isinstance(layer, Dense):
        grads.weights = [Hin.T @ dZ]
        if input_grad:
            dHin = dZ @ lp.weights[0].T
    elif _narrowing(layer, Hin):
        # every gradient of Z = sum_s C_s Hin A_s follows from G_s = C_s^T dZ,
        # which is f_out wide; R_s = Hin^T G_s is the gradient for A_s
        GS = [C.T @ dZ for C in Cs]
        RS = [Hin.T @ G for G in GS]
        if isinstance(layer, MultiSupportConv):
            grads.weights = RS
        else:
            W = lp.weights[0]
            grads.weights = [sum(w[:, None] * R for w, R in zip(lp.depthwise, RS))]
            grads.depthwise = np.stack([(R * W).sum(axis=1) for R in RS])
        if input_grad:
            dHin = sum(G @ A.T for G, A in zip(GS, _mixing(layer, lp)))
    elif isinstance(layer, MultiSupportConv):
        grads.weights = [P.T @ dZ for P in cache["PS"]]
        if input_grad:
            dHin = sum(C.T @ (dZ @ W.T) for C, W in zip(Cs, lp.weights))
    else:  # DepthwiseSeparableConv
        grads.weights = [cache["M"].T @ dZ]
        dM = dZ @ lp.weights[0].T
        grads.depthwise = np.stack([(dM * P).sum(axis=0) for P in cache["PS"]])
        if input_grad:
            dHin = sum(C.T @ (dM * w[None, :]) for w, C in zip(lp.depthwise, Cs))
    if dHin is not None and cache["mask"] is not None:
        dHin = dHin * cache["mask"]
    return dHin, grads


def model_forward(
    spec: ModelSpec,
    params: Sequence[LayerParams],
    H0: np.ndarray,
    kernels,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    input_dropout: float = 0.0,
    kernel_dropout: float = 0.0,
):
    """Run the pipeline; returns (output, caches). Dropout only when train."""
    supports = _supports_of(kernels)
    ctx = _TrainCtx(rng, input_dropout, kernel_dropout) if train else None
    H = np.asarray(H0, dtype=np.float64)
    caches = []
    for layer, lp in zip(spec.layers, params):
        H, cache = _layer_forward(layer, lp, H, supports, ctx)
        caches.append(cache)
    return H, caches


def model_backward(spec, params, caches, dout):
    """Reverse pass; returns per-layer gradients mirroring the parameters.
    The gradient with respect to the model input is never formed."""
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        dout, grads[i] = _layer_backward(spec.layers[i], params[i], caches[i], dout,
                                         input_grad=i > 0)
    return grads


def forward_multisupport(H, kernels, weights, bias=None, activation="linear"):
    """Single multi-support convolution: act(sum_s C_s H W_s (+ bias))."""
    layer = MultiSupportConv(out=weights[0].shape[1], use_bias=bias is not None,
                             activation=activation)
    lp = LayerParams(weights=list(weights), bias=bias)
    out, _ = _layer_forward(layer, lp, np.asarray(H, dtype=np.float64),
                            _supports_of(kernels), None)
    return out


def forward_depthwise(H, kernels, depthwise, weight, bias=None, activation="linear"):
    """Single depthwise separable convolution:
    act((sum_s w_s * (C_s H)) W (+ bias))."""
    layer = DepthwiseSeparableConv(out=weight.shape[1], use_bias=bias is not None,
                                   activation=activation)
    lp = LayerParams(weights=[weight], depthwise=np.asarray(depthwise, dtype=np.float64),
                     bias=bias)
    out, _ = _layer_forward(layer, lp, np.asarray(H, dtype=np.float64),
                            _supports_of(kernels), None)
    return out


# ---------------------------------------------------------------------------
# losses and metrics
# ---------------------------------------------------------------------------

def softmax_cross_entropy(outputs, labels, mask=None):
    """Masked mean cross-entropy of softmaxed outputs; returns (loss, grad)."""
    outputs = np.asarray(outputs, dtype=np.float64)
    labels = np.asarray(labels)
    n = outputs.shape[0]
    rows = np.arange(n) if mask is None else np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("loss mask selects no nodes")
    z = outputs[rows]
    z = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(rows.size), labels[rows]]
    loss = float(np.mean(logsum - picked))
    grad = np.zeros_like(outputs)
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    softmax[np.arange(rows.size), labels[rows]] -= 1.0
    grad[rows] = softmax / rows.size
    return loss, grad


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def binary_cross_entropy_tansig(outputs, targets, mask=None):
    """Per-output binary cross-entropy of tansig-squashed outputs.

    Probabilities are p = (1 + tanh(z))/2 = sigmoid(2z); the loss is the mean
    over all scored (node, output) entries. Returns (loss, grad).
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != outputs.shape:
        raise ValueError(f"targets shape {targets.shape} != outputs {outputs.shape}")
    rows = np.arange(outputs.shape[0]) if mask is None else np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("loss mask selects no nodes")
    z, y = outputs[rows], targets[rows]
    # -log p = softplus(-2z), -log(1-p) = softplus(2z)
    loss = float(np.mean(y * _softplus(-2.0 * z) + (1.0 - y) * _softplus(2.0 * z)))
    p = 0.5 * (1.0 + np.tanh(z))
    grad = np.zeros_like(outputs)
    grad[rows] = 2.0 * (p - y) / z.size
    return loss, grad


LOSSES = {"softmax_ce": softmax_cross_entropy, "binary_ce": binary_cross_entropy_tansig}


def accuracy_multiclass(outputs, labels, mask=None) -> float:
    rows = np.arange(outputs.shape[0]) if mask is None else np.flatnonzero(mask)
    pred = np.argmax(outputs[rows], axis=1)
    return float(np.mean(pred == np.asarray(labels)[rows]))


def micro_f1(outputs, targets, mask=None) -> float:
    """Micro-averaged F1 with the tansig decision rule (output > 0)."""
    rows = np.arange(outputs.shape[0]) if mask is None else np.flatnonzero(mask)
    pred = outputs[rows] > 0
    true = np.asarray(targets)[rows] > 0.5
    tp = np.sum(pred & true)
    fp = np.sum(pred & ~true)
    fn = np.sum(~pred & true)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else float(2 * tp / denom)


# ---------------------------------------------------------------------------
# optimizer and training
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with a fixed learning rate and bias-corrected moments."""

    def __init__(self, lr: float, beta1: float = ADAM_BETA1,
                 beta2: float = ADAM_BETA2, eps: float = ADAM_EPS):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params: list, grads: list) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 1
    weight_decay: float = 0.0
    depthwise_decay: float = 0.0
    input_dropout: float = 0.0
    kernel_dropout: float = 0.0
    seed: int = 0
    loss: str = "softmax_ce"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        for name in ("input_dropout", "kernel_dropout"):
            rate = getattr(self, name)
            if not 0 <= rate < 1:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch size >= 1")


def decay_value(params, weight_decay, depthwise_decay) -> float:
    """L2 penalty added to the training objective (never to reported loss):
    0.5*wd*sum(W^2) per weight matrix and 0.5*wd_dsg*sum(w^2) per depthwise
    row; biases are never regularized."""
    val = 0.0
    for lp in params:
        if weight_decay:
            val += 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in lp.weights)
        if depthwise_decay and lp.depthwise is not None:
            val += 0.5 * depthwise_decay * float(np.sum(lp.depthwise**2))
    return val


def add_decay_grads(grads, params, weight_decay, depthwise_decay) -> None:
    for g, lp in zip(grads, params):
        if weight_decay:
            for gw, w in zip(g.weights, lp.weights):
                gw += weight_decay * w
        if depthwise_decay and lp.depthwise is not None:
            g.depthwise += depthwise_decay * lp.depthwise


def _accumulate(into, grads, scale=1.0) -> None:
    for a, b in zip(into, grads):
        for wa, wb in zip(a.weights, b.weights):
            wa += scale * wb
        if a.depthwise is not None and b.depthwise is not None:
            a.depthwise += scale * b.depthwise
        if a.bias is not None and b.bias is not None:
            a.bias += scale * b.bias


@dataclass
class TrainResult:
    params: list
    metrics: list
    config: TrainConfig
    optimizer: dict


def _metric_row(outputs, labels_or_targets, mask, loss_kind):
    loss, _ = LOSSES[loss_kind](outputs, labels_or_targets, mask)
    if loss_kind == "softmax_ce":
        acc = accuracy_multiclass(outputs, labels_or_targets, mask)
    else:
        acc = micro_f1(outputs, labels_or_targets, mask)
    return loss, acc


def train(
    spec: ModelSpec,
    kernelsets,
    data,
    config: TrainConfig,
    train_idx=None,
    val_idx=None,
    targets: Optional[np.ndarray] = None,
    track_test: bool = False,
):
    """Train a model to a fixed epoch count; deterministic per config.seed.

    Transductive (SingleGraphDataset): kernelsets is one KernelSet, loss is
    masked over data.masks['train'], metrics track train/val (and test when
    asked). Inductive (MultiGraphDataset): kernelsets is one KernelSet per
    graph, train_idx/val_idx select graphs, gradients are accumulated over
    each batch and the model updated once per batch.

    For the binary loss, targets must be the (n, c) 0/1 matrix (transductive)
    and labels are ignored.
    """
    if isinstance(data, SingleGraphDataset):
        return _train_transductive(spec, kernelsets, data, config, targets, track_test)
    if isinstance(data, MultiGraphDataset):
        if train_idx is None or val_idx is None:
            raise ValueError("multi-graph training needs train_idx and val_idx")
        return _train_inductive(spec, kernelsets, data, config, train_idx, val_idx)
    raise TypeError(f"unsupported dataset type {type(data).__name__}")


def _optimizer_meta(adam: Adam) -> dict:
    return {"name": "adam", "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps}


def _train_transductive(spec, kernels, data, config, targets, track_test):
    if isinstance(kernels, (list, tuple)) and len(kernels) == 1 and hasattr(kernels[0], "supports"):
        kernels = kernels[0]
    g = data.graph
    rng = np.random.default_rng(config.seed)
    params = init_parameters(spec, g.features.shape[1], len(_supports_of(kernels)), rng)
    adam = Adam(config.learning_rate)
    if config.loss == "binary_ce":
        if targets is None:
            raise ValueError("binary_ce needs an explicit (n, c) 0/1 target matrix")
        y = targets
    else:
        y = data.labels
    loss_fn = LOSSES[config.loss]

    metrics = []
    for epoch in range(config.epochs):
        out, caches = model_forward(
            spec, params, g.features, kernels,
            train=True, rng=rng,
            input_dropout=config.input_dropout, kernel_dropout=config.kernel_dropout,
        )
        loss, dout = loss_fn(out, y, data.masks["train"])
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, loss)
        grads = model_backward(spec, params, caches, dout)
        add_decay_grads(grads, params, config.weight_decay, config.depthwise_decay)
        adam.step(flatten_params(params), flatten_params(grads))

        out_eval, _ = model_forward(spec, params, g.features, kernels)
        row = {"epoch": epoch}
        row["train_loss"], row["train_acc"] = _metric_row(out_eval, y, data.masks["train"], config.loss)
        if data.masks["val"].any():
            row["val_loss"], row["val_acc"] = _metric_row(out_eval, y, data.masks["val"], config.loss)
        if track_test and data.masks["test"].any():
            row["test_loss"], row["test_acc"] = _metric_row(out_eval, y, data.masks["test"], config.loss)
        metrics.append(row)
    return TrainResult(params=params, metrics=metrics, config=config, optimizer=_optimizer_meta(adam))


def _graph_target(data: MultiGraphDataset, i: int, loss_kind: str):
    if loss_kind == "softmax_ce":
        return np.array([data.labels[i]])
    onehot = np.zeros((1, data.n_classes))
    onehot[0, data.labels[i]] = 1.0
    return onehot


def evaluate_graphs(spec, params, kernelsets, data, idx, loss_kind):
    """Mean loss and accuracy of graph-level predictions over a graph set."""
    losses, correct = [], []
    loss_fn = LOSSES[loss_kind]
    for i in idx:
        out, _ = model_forward(spec, params, data.graphs[i].features, kernelsets[i])
        target = _graph_target(data, i, loss_kind)
        loss, _ = loss_fn(out, target)
        losses.append(loss)
        if loss_kind == "softmax_ce":
            correct.append(float(np.argmax(out[0]) == data.labels[i]))
        else:
            correct.append(micro_f1(out, target))
    return float(np.mean(losses)), float(np.mean(correct))


def _train_inductive(spec, kernelsets, data, config, train_idx, val_idx):
    train_idx = np.asarray(train_idx, dtype=int)
    val_idx = np.asarray(val_idx, dtype=int)
    rng = np.random.default_rng(config.seed)
    f0 = data.graphs[0].features.shape[1]
    n_supports = len(_supports_of(kernelsets[0]))
    params = init_parameters(spec, f0, n_supports, rng)
    adam = Adam(config.learning_rate)
    loss_fn = LOSSES[config.loss]

    metrics = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            acc_grads = zero_like_params(params)
            for i in batch:
                out, caches = model_forward(
                    spec, params, data.graphs[i].features, kernelsets[i],
                    train=True, rng=rng,
                    input_dropout=config.input_dropout,
                    kernel_dropout=config.kernel_dropout,
                )
                loss, dout = loss_fn(out, _graph_target(data, i, config.loss))
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch, loss)
                _accumulate(acc_grads, model_backward(spec, params, caches, dout),
                            scale=1.0 / batch.size)
            add_decay_grads(acc_grads, params, config.weight_decay, config.depthwise_decay)
            adam.step(flatten_params(params), flatten_params(acc_grads))

        row = {"epoch": epoch}
        row["train_loss"], row["train_acc"] = evaluate_graphs(
            spec, params, kernelsets, data, train_idx, config.loss)
        row["val_loss"], row["val_acc"] = evaluate_graphs(
            spec, params, kernelsets, data, val_idx, config.loss)
        metrics.append(row)
    return TrainResult(params=params, metrics=metrics, config=config, optimizer=_optimizer_meta(adam))


def save_checkpoint(params: Sequence[LayerParams], path) -> None:
    """Serialize trained parameters as JSON (nested lists per layer)."""
    import json

    doc = []
    for lp in params:
        doc.append({
            "weights": [w.tolist() for w in lp.weights],
            "depthwise": None if lp.depthwise is None else lp.depthwise.tolist(),
            "bias": None if lp.bias is None else lp.bias.tolist(),
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> list:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    params = []
    for entry in doc:
        params.append(LayerParams(
            weights=[np.array(w, dtype=np.float64) for w in entry["weights"]],
            depthwise=None if entry["depthwise"] is None
            else np.array(entry["depthwise"], dtype=np.float64),
            bias=None if entry["bias"] is None else np.array(entry["bias"], dtype=np.float64),
        ))
    return params


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

@dataclass
class CVResult:
    mean: float
    std: float
    std_defined: bool
    repeat_accuracies: list
    best_epochs: list


def crossvalidate(
    dataset: MultiGraphDataset,
    kernelsets,
    spec: ModelSpec,
    config: TrainConfig,
    folds: int = 10,
    repeats: int = 1,
) -> CVResult:
    """k-fold cross-validation with the averaged-validation-curve epoch rule.

    Per repeat: re-randomize folds, train each fold to the fixed epoch count,
    average the per-fold validation accuracy curves, pick the epoch with the
    best averaged accuracy and report the averaged accuracy at that epoch.
    Mean and std are over repeats; a single repeat reports std 0 and flags it
    as undefined.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    accs, best_epochs = [], []
    for rep in range(repeats):
        fold_ids = make_folds(dataset, folds, seed=config.seed + 7919 * rep)
        curves = []
        for f in range(folds):
            tr = np.flatnonzero(fold_ids != f)
            va = np.flatnonzero(fold_ids == f)
            cfg = replace(config, seed=config.seed + 1000 * rep + f + 1)
            result = train(spec, kernelsets, dataset, cfg, train_idx=tr, val_idx=va)
            curves.append([m["val_acc"] for m in result.metrics])
        avg = np.mean(np.array(curves), axis=0)
        best = int(np.argmax(avg))
        best_epochs.append(best)
        accs.append(float(avg[best]))
    return CVResult(
        mean=float(np.mean(accs)),
        std=float(np.std(accs)) if repeats > 1 else 0.0,
        std_defined=repeats > 1,
        repeat_accuracies=accs,
        best_epochs=best_epochs,
    )


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def _checked_forward(spec, params, H0, kernels, config, rng_factory):
    """Forward pass for gradient checking; with rng_factory, dropout is
    applied from a freshly seeded generator so the objective stays
    deterministic across repeated evaluations."""
    if rng_factory is None:
        return model_forward(spec, params, H0, kernels)
    return model_forward(
        spec, params, H0, kernels, train=True, rng=rng_factory(),
        input_dropout=config.input_dropout, kernel_dropout=config.kernel_dropout,
    )


def analytic_gradients(spec, params, H0, kernels, y, mask, config: TrainConfig,
                       rng_factory=None):
    """Gradient of the full training objective (loss + decay) at params."""
    out, caches = _checked_forward(spec, params, H0, kernels, config, rng_factory)
    _, dout = LOSSES[config.loss](out, y, mask)
    grads = model_backward(spec, params, caches, dout)
    add_decay_grads(grads, params, config.weight_decay, config.depthwise_decay)
    return grads


def objective_value(spec, params, H0, kernels, y, mask, config: TrainConfig,
                    rng_factory=None) -> float:
    out, _ = _checked_forward(spec, params, H0, kernels, config, rng_factory)
    loss, _ = LOSSES[config.loss](out, y, mask)
    return loss + decay_value(params, config.weight_decay, config.depthwise_decay)


def finite_difference_gradients(spec, params, H0, kernels, y, mask, config,
                                step=1e-6, rng_factory=None):
    """Central-difference gradient of the same objective, one entry at a time."""
    grads = zero_like_params(params)
    for p, g in zip(flatten_params(params), flatten_params(grads)):
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + step
            hi = objective_value(spec, params, H0, kernels, y, mask, config, rng_factory)
            p.flat[i] = orig - step
            lo = objective_value(spec, params, H0, kernels, y, mask, config, rng_factory)
            p.flat[i] = orig
            g.flat[i] = (hi - lo) / (2.0 * step)
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
    supports: list
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
    return cases


def gradcheck_suite(seed: int = 0, step: float = 1e-6, mutate=None) -> list:
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
                                              case.config, step, case.rng_factory)
        report.append((case.name, max_relative_error(analytic, numeric)))
    return report
