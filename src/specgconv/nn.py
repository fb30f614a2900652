"""Trainable convolutional graph networks over precomputed supports.

Layers: multi-support graph convolution (one weight matrix per support),
depthwise separable graph convolution (per-support scalar feature mixing
followed by one shared 1x1 matrix), dense, and a mean+max readout for
graph-level outputs. Gradients are reverse-mode and hand-derived per layer;
the optimizer is Adam with a fixed learning rate.

Training is deterministic per seed: one PCG64 Generator drives
initialization and both dropout kinds (input dropout on layer inputs, kernel
dropout as Bernoulli masking of support entries with inverted scaling).
Kernel dropout keeps one boolean mask per support and applies it block by
block while multiplying by the support, so no dropped copy of a support is
stored; input dropout keeps the layer input and its mask, and forms the
scaled input only where a product reads it. Each mask has the place in the
stream that separate per-graph passes give it and is drawn, on the calling
thread, from a copy of the stream moved there, so results do not depend on
the batching. One product loop serves every conv layer: a graph's rows are
read from its supports' shapes. A node-level training forward forms its
last conv layer, and any layer after it, on the rows its loss reads only:
that layer multiplies row slices C_s[rows] of its supports, and draws just
those rows of their masks, skipping the others in the stream.
"""
from __future__ import annotations

import numbers
import os
import re
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from . import _blas
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
    if not isinstance(layer, (*_TRAINABLE, ReadoutMeanMax)):
        raise TypeError(f"not a LayerSpec: {layer!r}")
    if isinstance(layer, _TRAINABLE):
        if layer.out < 1:
            raise ValueError(f"layer width must be >= 1, got {layer.out}")
        if layer.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {layer.activation!r}")


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        for layer in self.layers:
            _check_layer(layer)

    def widths(self, f0: int) -> list:
        """Feature widths through the pipeline, starting at the input width."""
        ws = [f0]
        for layer in self.layers:
            ws.append(layer.out if isinstance(layer, _TRAINABLE) else 2 * ws[-1])
        return ws


_ARCH_TOKEN = re.compile(r"^(DSG|G|D)(\d+)$")


def parse_architecture(
    arch: str,
    output_activation: str = "linear",
    hidden_bias: bool = False,
    output_bias: bool = True,
) -> ModelSpec:
    """Parse a dash-separated architecture string into a ModelSpec.

    Tokens: ``DSG<k>`` depthwise separable graph conv, ``G<k>`` multi-support
    graph conv, ``D<k>`` dense, ``meanmax`` readout. The last trainable layer
    gets the output activation and bias flag; all earlier ones are ReLU
    layers with the hidden bias flag.
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
        act = output_activation if i == last_trainable else "relu"
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
    for layer, width in zip(spec.layers, spec.widths(f0)):
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
            continue
        if layer.use_bias:
            lp.bias = np.zeros(layer.out)
        params.append(lp)
    return params


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


def param_count(spec: ModelSpec, f0: int, n_supports: int) -> int:
    """Closed-form trainable parameter count, biases excluded.

    Conv layers contribute S*f_in*f_out (multi-support) or S*f_in +
    f_in*f_out (depthwise separable); dense layers f_in*f_out; readout
    nothing.
    """
    total = 0
    for layer, width in zip(spec.layers, spec.widths(f0)):
        if isinstance(layer, MultiSupportConv):
            total += n_supports * width * layer.out
        elif isinstance(layer, DepthwiseSeparableConv):
            total += n_supports * width + width * layer.out
        elif isinstance(layer, Dense):
            total += width * layer.out
    return total


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _activate(z: np.ndarray, kind: str) -> tuple:
    """Apply the activation in place; returns (what the backward pass needs
    of it, output): the ReLU derivative as a boolean mask, the tanh output
    (the derivative is 1 - out^2), nothing for a linear layer."""
    if kind == "relu":
        state = z > 0
        return state, np.maximum(z, 0.0, out=z)
    if kind == "tanh":
        out = np.tanh(z, out=z)
        return out, out
    return None, z


def _act_backward(dout: np.ndarray, state, kind: str) -> np.ndarray:
    if kind == "relu":
        return dout * state
    if kind == "tanh":
        return dout * (1.0 - state * state)
    return dout


@dataclass(frozen=True)
class GraphBatch:
    """Graphs stacked by node rows: graph g owns rows offsets[g]:offsets[g+1]
    of the stacked feature matrix and is propagated by its own supports[g].
    A single graph is a batch of one; after a readout each graph owns one row."""

    supports: tuple         # per graph, a sequence of S (n_g, n_g) supports
    offsets: np.ndarray     # (B + 1,) row offsets, offsets[0] == 0

    @classmethod
    def single(cls, supports, n: int) -> "GraphBatch":
        supports = tuple(supports)
        _check_supports(supports, n)
        return cls((supports,), np.array([0, n]))

    def segments(self):
        return zip(self.offsets[:-1], self.offsets[1:])

    def pooled(self) -> "GraphBatch":
        return replace(self, offsets=np.arange(len(self.supports) + 1))


def _check_supports(supports, n: int, graph=None) -> None:
    """Refuse a support that is not n x n for a graph of n nodes, naming the
    graph by its index when one is given."""
    for C in supports:
        if C.shape != (n, n):
            name = "the graph" if graph is None else f"graph {graph}"
            raise ValueError(f"{name} has {n} nodes, but a support of shape {C.shape}")


def stack_graphs(features: Sequence[np.ndarray], kernels: Sequence, ids=None) -> tuple:
    """Stack the node rows of several graphs; returns (H0, GraphBatch) for
    model_forward. kernels holds one KernelSet (or support list) per graph;
    a support that does not fit its graph's feature rows is refused, naming
    the graph by its entry in ids (by default its place in features).
    A lone graph's feature matrix is returned itself, not copied."""
    supports = tuple(tuple(k) for k in kernels)
    for g, (f, ks) in enumerate(zip(features, supports, strict=True)):
        _check_supports(ks, f.shape[0], g if ids is None else ids[g])
    offsets = np.concatenate([[0], np.cumsum([f.shape[0] for f in features])]).astype(int)
    batch = GraphBatch(supports, offsets)
    return (features[0] if len(features) == 1 else np.concatenate(features, axis=0)), batch


class _Dropout:
    """Dropout of one training forward over a batch, as boolean masks (True =
    kept) with their keep probability: an input mask per layer, which the
    layer applies to its input with inverted scaling, and a kernel mask per
    support (see _kernel_mask), which _propagate applies block by block as
    it multiplies by the support. No dropped support is ever stored. Where a
    layer forms only some rows of its output (see _loss_rows), its kernel
    masks, or a row-wise layer's input mask, hold those rows only.

    The masks take the Generator's stream as separate per-graph passes
    would: graph by graph, and within a graph per trainable layer its input
    mask, then for a conv layer one kernel mask per support, each drawn
    whole. A graph's masks take a number of doubles known from the model and
    its node count (one row after a readout), so each graph draws from a
    copy of the stream moved to where its masks start, and the caller's
    Generator is moved past them all at once. Every mask is drawn on the
    calling thread. Each trainable layer, in order, calls inputs() once and
    a conv layer then kernels() once."""

    def __init__(self, rng, input_dropout: float, kernel_dropout: float,
                 spec: ModelSpec, f0: int, batch: GraphBatch):
        if type(getattr(rng, "bit_generator", None)) is not np.random.PCG64:
            raise ValueError("dropout needs a numpy Generator on PCG64, such as "
                             f"np.random.default_rng(seed); got {rng!r}")
        self.input_keep = 1.0 - input_dropout
        self.kernel_keep = 1.0 - kernel_dropout
        n_supports = len(batch.supports[0])

        def doubles(n):   # that the masks of a graph of n nodes take
            total = 0
            for layer, f_in in zip(spec.layers, spec.widths(f0)):
                if isinstance(layer, ReadoutMeanMax):
                    n = 1
                    continue
                if self.input_keep < 1:
                    total += n * f_in
                if isinstance(layer, _CONV) and self.kernel_keep < 1:
                    total += n_supports * n * n
            return total

        starts = list(accumulate((doubles(int(b - a)) for a, b in batch.segments()), initial=0))
        bitgen = rng.bit_generator
        self.streams = [np.random.Generator(_pcg64_ahead(bitgen, a)) for a in starts[:-1]]
        bitgen.state = _pcg64_ahead(bitgen, starts[-1]).state

    def inputs(self, batch: GraphBatch, width: int, rows=None):
        """The next layer's input mask over the batch's stacked rows, or over
        the rows of its one graph (see _kernel_mask), and keep; or None."""
        if self.input_keep >= 1:
            return None
        masks = [_kernel_mask(rng, (b - a, width), self.input_keep, rows)
                 for rng, (a, b) in zip(self.streams, batch.segments())]
        return (np.concatenate(masks, axis=0) if len(masks) > 1 else masks[0]), self.input_keep

    def kernels(self, batch: GraphBatch, rows=None):
        """The conv layer's per-graph kernel masks and keep, or None."""
        if self.kernel_keep >= 1:
            return None
        return [[_kernel_mask(rng, C.shape, self.kernel_keep, rows) for C in supports]
                for rng, supports in zip(self.streams, batch.supports)], self.kernel_keep


def _pcg64_ahead(bitgen: np.random.PCG64, steps: int) -> np.random.PCG64:
    """A copy of a PCG64 bit generator moved steps 64-bit outputs ahead
    (random() takes one per double), with bitgen's buffered 32-bit half,
    which advance() alone clears."""
    state = bitgen.state
    ahead = np.random.PCG64(0)   # a fixed seed skips reading OS entropy
    ahead.state = state
    ahead.advance(steps)
    ahead.state = {**ahead.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return ahead


def _scaled(x: np.ndarray, mask: np.ndarray, keep: float) -> np.ndarray:
    """x * mask / keep, with the same rounding as x * (mask / keep)."""
    out = x * mask
    out *= 1.0 / keep
    return out


def _layer_input(H: np.ndarray, input_mask) -> np.ndarray:
    """A layer's input after input dropout: H itself without it."""
    return H if input_mask is None else _scaled(H, *input_mask)


# Rows of a mask drawn at a time by _kernel_mask: the block of doubles behind
# them is about 1 MB at Cora's 2708 columns, so it is still in cache when it
# is compared.
_DROP_ROWS = 48


def _kernel_mask(rng: np.random.Generator, shape: tuple, keep: float, rows=None) -> np.ndarray:
    """rng.random(shape)[rows] < keep, bit for bit, leaving rng in the state
    that the whole draw rng.random(shape) leaves it, but drawn a row block at
    a time, so no float temporary of the mask's size is made. rng is a
    Generator on PCG64 (see _Dropout); rows holds ascending row indices, None
    selects every row. Draws kernel masks and input masks alike.

    The selected rows are drawn run by run of consecutive rows, in row order
    into consecutive rows of the mask. A whole mask is the one run of every
    row, drawn straight from rng. A selection skips the rows before each run
    with advance(), which clears the buffered 32-bit half, so rng is then
    moved to the end of the whole draw from a copy of where it began."""
    n_rows, n_cols = map(int, shape)   # Python ints: advance() refuses a numpy integer
    if rows is None:
        runs, start = [(0, n_rows)], None
    else:
        runs = [(int(r[0]), int(r[-1]) + 1)
                for r in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1) if len(r)]
        start = _pcg64_ahead(rng.bit_generator, 0)
    out = np.empty((n_rows if rows is None else len(rows), n_cols), dtype=bool)
    block = np.empty((min(_DROP_ROWS, len(out)), n_cols))
    i = pos = 0
    for lo, hi in runs:
        if lo > pos:
            rng.bit_generator.advance((lo - pos) * n_cols)
        for a in range(lo, hi, _DROP_ROWS):
            b = min(a + _DROP_ROWS, hi)
            np.less(rng.random(out=block[: b - a]), keep, out=out[i : i + b - a])
            i += b - a
        pos = hi
    if start is not None:
        rng.bit_generator.state = _pcg64_ahead(start, n_rows * n_cols).state
    return out


# Bytes of the buffer in which _masked_product forms a row block of a dropped
# support: 387 rows at Cora's 2708 columns, a whole graph of up to 1024
# nodes. Each block is one GEMM call, which waits for every BLAS thread, so
# few long calls hold up best on a shared host: on a 2-core x86 box (2 MB L2
# per core) with a busy loop on the other core, a Cora-shaped epoch took
# 1.85x its idle time with 8 MB blocks, 2.0x with 4 MB, 2.4x with 2 MB
# (96 rows) and 1.5-2.0x with the one-GEMM products of stored dropped copies.
# Idle, 8 MB blocks were the fastest of 2, 4, 8, 16 and 32 MB.
_APPLY_BYTES = 1 << 23


def _masked_product(C, mask, keep, X, out, transpose=False) -> None:
    """out = D X (D^T X with transpose), where D = _scaled(C, mask, keep),
    reading C and its mask in row blocks only; C may be a row slice of a
    support, and mask has its shape. Each D_b = mask_b C_b (the mask cast to
    0/1 first: faster than a pass more, same bits) is formed in one reused
    buffer of about _APPLY_BYTES, so no dropped copy of C is made. D X is one
    GEMM per block; D^T X sums D_b^T X_b, as sum_b X_b^T D_b over many
    blocks. 1/keep scales the narrower side: the product when C is wider than
    X, else each block. A block's GEMM has the dropped copy's bits when
    1/keep is a power of two or scales the block; other products moved by up
    to 3e-15 relative."""
    n_rows, cols = C.shape
    if n_rows == 0:   # D X is empty and D^T X is zero
        out[...] = 0.0
        return
    step = max(1, min(n_rows, _APPLY_BYTES // (8 * max(cols, 1))))
    buf = np.empty((step, cols))
    scale_blocks = cols <= X.shape[1]
    acc = np.empty((X.shape[1], cols)) if transpose and n_rows > step else None
    for a in range(0, n_rows, step):
        b = min(a + step, n_rows)
        block = buf[: b - a]
        np.copyto(block, mask[a:b])
        block *= C[a:b]
        if scale_blocks:
            block *= 1.0 / keep
        if acc is None:
            part = np.matmul(block.T, X, out=out) if transpose else \
                np.matmul(block, X, out=out[a:b])
            if not scale_blocks:
                part *= 1.0 / keep
        elif a == 0:
            np.matmul(X[a:b].T, block, out=acc)
        else:
            acc += X[a:b].T @ block
    if acc is not None:
        if not scale_blocks:
            acc *= 1.0 / keep
        out[...] = acc.T


def _narrowing(layer, Hin) -> bool:
    """Whether a conv layer applies its n x n supports to the f_out-wide
    side: C_s (Hin A_s) costs n^2 f_out per support instead of the n^2 f_in
    of (C_s Hin) A_s, and caches no rows x f_in product per support, so it is
    chosen whenever f_in >= f_out."""
    return Hin.shape[1] >= layer.out


def _mixing(layer, lp):
    """Per-support f_in x f_out matrices A_s of a conv layer, so that its
    pre-activation is sum_s C_s Hin A_s: diag(w_s) W for DSG (made one at a
    time), W_s otherwise."""
    if isinstance(layer, DepthwiseSeparableConv):
        return (w[:, None] * lp.weights[0] for w in lp.depthwise)
    return lp.weights


def _mixing_grads(layer, lp, RS) -> tuple:
    """(weight gradients, depthwise gradient) of a conv layer from R_s, the
    gradient for its A_s: dW_s = R_s; for DSG dW = sum_s diag(w_s) R_s and
    dw_s = rowsum(R_s * W)."""
    if isinstance(layer, DepthwiseSeparableConv):
        W = lp.weights[0]
        return ([sum(w[:, None] * R for w, R in zip(lp.depthwise, RS))],
                np.stack([(R * W).sum(axis=1) for R in RS]))
    return RS, None


def _propagate(Cs, s, X, transpose=False, dropout=None) -> np.ndarray:
    """Support s applied to every graph's rows of X, C_s X (C_s^T X with
    transpose), where Cs[g] holds graph g's supports. Graph g owns
    consecutive rows of X and of the output, as many as its support has
    columns and rows (rows and columns with transpose): so a stacked batch
    of n_g x n_g supports keeps each graph's rows, and a row slice C_s[rows]
    of one graph's support forms only those output rows, or, transposed,
    reads X as the values at those rows. With dropout, a layer's (per-graph
    kernel masks, keep), graph g's support s is dropped by its mask on the
    fly, read in row blocks whichever the product (see _masked_product)."""
    shapes = [supports[s].shape[::-1] if transpose else supports[s].shape for supports in Cs]
    out = np.empty((sum(m for m, _ in shapes), X.shape[1]))
    masks, keep = (None, None) if dropout is None else dropout
    a = o = 0
    for g, (supports, (m, n)) in enumerate(zip(Cs, shapes)):
        x, y = X[a : a + n], out[o : o + m]
        if masks is None:
            np.matmul(supports[s].T if transpose else supports[s], x, out=y)
        else:
            _masked_product(supports[s], masks[g][s], keep, x, y, transpose)
        a, o = a + n, o + m
    return out


def _accumulated(parts) -> np.ndarray:
    """The sum of an iterable of arrays, added in order into the first, so
    only one more is alive at a time."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        total += part
    return total


def _readout_forward(H, batch):
    # the argmax of an empty graph raises before reduceat could misread it
    arg = np.stack([a + np.argmax(H[a:b], axis=0) for a, b in batch.segments()])
    counts = np.diff(batch.offsets)
    mean = np.add.reduceat(H, batch.offsets[:-1], axis=0) / counts[:, None]
    out = np.concatenate([mean, H[arg, np.arange(H.shape[1])]], axis=1)
    return out, {"counts": counts, "argmax": arg}


def _readout_backward(cache, dout):
    counts, arg = cache["counts"], cache["argmax"]
    f = arg.shape[1]
    dH = np.repeat(dout[:, :f] / counts[:, None], counts, axis=0)
    dH[arg, np.arange(f)] += dout[:, f:]
    return dH


def _layer_forward(layer, lp, H, batch, drop=None, rows=None):
    """One layer over a batch; drop is the training forward's _Dropout.
    Returns (output, cache for the backward pass). A conv layer forms sum_s
    C_s Hin A_s (see _mixing) as sum_s C_s (Hin A_s) when it narrows, else as
    sum_s P_s A_s with P_s = C_s Hin cached. With rows, ascending node rows
    of a single graph, it forms only those rows of its output: its supports
    are the row slices C_s[rows], gathered here and cached for the backward,
    while its kernel masks are drawn for those rows from the full supports'
    shapes. The cache holds the input H and its input mask, not the scaled
    input."""
    if isinstance(layer, ReadoutMeanMax):
        return _readout_forward(H, batch)

    conv = isinstance(layer, _CONV)
    # a conv layer's products read every input row
    input_mask = None if drop is None else drop.inputs(batch, H.shape[1], None if conv else rows)
    Hin = _layer_input(H, input_mask)
    cache = {"H": H, "mask": input_mask}

    if isinstance(layer, Dense):
        Z = Hin @ lp.weights[0]
    else:
        Cs = cache["Cs"] = batch.supports if rows is None else \
            [[C[rows] for C in batch.supports[0]]]
        if _narrowing(layer, Hin):
            # the scaled input is let go before the kernel masks are drawn,
            # so the two are never alive together
            HA = [Hin @ A for A in _mixing(layer, lp)]
            del Hin
            kernel = cache["kernel"] = None if drop is None else drop.kernels(batch, rows)
            Z = _accumulated(_propagate(Cs, s, X, dropout=kernel) for s, X in enumerate(HA))
        else:
            kernel = cache["kernel"] = None if drop is None else drop.kernels(batch, rows)
            PS = cache["PS"] = [_propagate(Cs, s, Hin, dropout=kernel) for s in range(len(Cs[0]))]
            Z = sum(P @ A for P, A in zip(PS, _mixing(layer, lp)))
    if lp.bias is not None:
        Z += lp.bias
    cache["act"], out = _activate(Z, layer.activation)
    return out, cache


def _layer_backward(layer, lp, cache, dout, input_grad=True):
    """Parameter gradients of one layer, and the gradient with respect to its
    input (None when input_grad is false). Consumes the cache: its kernel
    masks are let go once the products that read them are formed. A conv
    layer's R_s, the gradient for its A_s (see _mixing_grads), is Hin^T G_s
    with G_s = C_s^T dZ when it narrows, and P_s^T dZ otherwise."""
    if isinstance(layer, ReadoutMeanMax):
        return (_readout_backward(cache, dout) if input_grad else None), LayerParams()

    dZ = _act_backward(dout, cache["act"], layer.activation)
    grads = LayerParams()
    if lp.bias is not None:
        grads.bias = dZ.sum(axis=0)

    H, Cs = cache["H"], cache.get("Cs")
    kernel = cache.pop("kernel", None)
    dHin = None
    if isinstance(layer, Dense):
        grads.weights = [_layer_input(H, cache["mask"]).T @ dZ]
        if input_grad:
            dHin = dZ @ lp.weights[0].T
    elif _narrowing(layer, H):
        # G_s = C_s^T dZ is f_out wide, and R_s = Hin^T G_s. The scaled input
        # is rebuilt only after every G_s is formed and the kernel masks are
        # let go, and let go before dHin, of its shape.
        GS = [_propagate(Cs, s, dZ, transpose=True, dropout=kernel) for s in range(len(Cs[0]))]
        del kernel
        Hin = _layer_input(H, cache["mask"])
        RS = [Hin.T @ G for G in GS]
        del Hin
        if input_grad:
            dHin = _accumulated(G @ A.T for G, A in zip(GS, _mixing(layer, lp)))
    else:
        RS = [P.T @ dZ for P in cache["PS"]]
        if input_grad:
            dHin = _accumulated(_propagate(Cs, s, dZ @ A.T, transpose=True, dropout=kernel)
                                for s, A in enumerate(_mixing(layer, lp)))
    if isinstance(layer, _CONV):
        grads.weights, grads.depthwise = _mixing_grads(layer, lp, RS)
    if dHin is not None and cache["mask"] is not None:
        mask, keep = cache["mask"]
        dHin *= mask
        dHin *= 1.0 / keep
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
    rows=None,
):
    """Run the pipeline; returns (output, caches). Dropout only when train.

    kernels is one graph's supports (a KernelSet or a list of n x n arrays)
    or a GraphBatch whose graphs own consecutive row blocks of H0 (see
    stack_graphs); after a readout the output has one row per graph.

    rows, a boolean mask over the nodes of one graph, asks a node-level model
    for those nodes' outputs only, in node order: the rows a loss reads. The
    output is then the full output's rows, from the last conv layer on formed
    for those rows alone (see _loss_rows), with the same dropout draws.
    """
    H = np.asarray(H0, dtype=np.float64)
    batch = kernels if isinstance(kernels, GraphBatch) else \
        GraphBatch.single(kernels, H.shape[0])
    layer_rows = _loss_rows(spec, batch, rows)
    drop = None
    if train and (input_dropout > 0 or kernel_dropout > 0):
        drop = _Dropout(rng, input_dropout, kernel_dropout, spec, H.shape[1], batch)
    if layer_rows[0] is not None and not isinstance(spec.layers[0], _CONV):
        H = H[layer_rows[0]]   # no conv layer: row-wise from the input on
    caches = []
    for layer, lp, sel in zip(spec.layers, params, layer_rows):
        H, cache = _layer_forward(layer, lp, H, batch, drop, sel)
        if isinstance(layer, ReadoutMeanMax):
            batch = batch.pooled()
        caches.append(cache)
    return H, caches


def _loss_rows(spec, batch, rows) -> list:
    """Per layer, the ascending node rows of its output that model_forward
    forms, None for all: the nodes of the mask rows from the last conv layer
    on, and from the first layer in a model without one. Every later layer is
    row-wise, so the rows no loss reads need no conv product beyond the last."""
    if rows is None:
        return [None] * len(spec.layers)
    rows = np.asarray(rows)
    if (len(batch.supports) != 1 or rows.dtype != bool or rows.shape != (batch.offsets[-1],)
            or any(isinstance(layer, ReadoutMeanMax) for layer in spec.layers)):
        raise ValueError("rows must be a boolean mask over the nodes of one graph "
                         "run through a node-level model")
    first = max((i for i, layer in enumerate(spec.layers) if isinstance(layer, _CONV)),
                default=0)
    return [None] * first + [np.flatnonzero(rows)] * (len(spec.layers) - first)


def model_backward(spec, params, caches, dout, into=None):
    """Reverse pass; returns per-layer gradients mirroring the parameters, or
    adds them layer by layer into `into` (such a list) and returns it. The
    gradient with respect to the model input is never formed, and each
    layer's cache is released (set to None) once the pass has gone through it."""
    grads = [None] * len(params) if into is None else into
    for i in range(len(params) - 1, -1, -1):
        dout, g = _layer_backward(spec.layers[i], params[i], caches[i], dout,
                                  input_grad=i > 0)
        caches[i] = None
        if into is None:
            grads[i] = g
        else:
            for a, b in zip(flatten_params([grads[i]]), flatten_params([g])):
                a += b
    return grads


# ---------------------------------------------------------------------------
# losses and metrics
# ---------------------------------------------------------------------------

def _check_labels(labels, n_classes: int, names, kind: str = "node") -> None:
    """Scored labels must be class indices: a -1 (unlabelled) would otherwise
    be scored as the last class, and any other outside value wrap or fail."""
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        j = bad[0]
        raise ValueError(f"{kind} {int(names[j])} has label {int(labels[j])}, "
                         f"outside the classes 0..{n_classes - 1}")


def softmax_cross_entropy(outputs, labels):
    """Mean cross-entropy of softmaxed outputs over every row given; returns
    (loss, grad)."""
    outputs = np.asarray(outputs, dtype=np.float64)
    labels = np.asarray(labels)
    n = outputs.shape[0]
    if n == 0:
        raise ValueError("no rows to score")
    _check_labels(labels, outputs.shape[1], np.arange(n))
    z = outputs - outputs.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(n), labels]
    loss = float(np.mean(logsum - picked))
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    softmax[np.arange(n), labels] -= 1.0
    return loss, softmax / n


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def binary_cross_entropy_tansig(outputs, targets):
    """Per-output binary cross-entropy of tansig-squashed outputs.

    Probabilities are p = (1 + tanh(z))/2 = sigmoid(2z); the loss is the mean
    over every (row, output) entry given. Returns (loss, grad).
    """
    z = np.asarray(outputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != z.shape:
        raise ValueError(f"targets shape {y.shape} != outputs {z.shape}")
    if z.shape[0] == 0:
        raise ValueError("no rows to score")
    # -log p = softplus(-2z), -log(1-p) = softplus(2z)
    loss = float(np.mean(y * _softplus(-2.0 * z) + (1.0 - y) * _softplus(2.0 * z)))
    p = 0.5 * (1.0 + np.tanh(z))
    return loss, 2.0 * (p - y) / z.size


LOSSES = {"softmax_ce": softmax_cross_entropy, "binary_ce": binary_cross_entropy_tansig}


def accuracy_multiclass(outputs, labels) -> float:
    labels = np.asarray(labels)
    if outputs.shape[0] == 0:
        raise ValueError("no rows to score")
    _check_labels(labels, outputs.shape[1], np.arange(labels.size))
    return float(np.mean(np.argmax(outputs, axis=1) == labels))


def micro_f1(outputs, targets) -> float:
    """Micro-averaged F1 with the tansig decision rule (output > 0)."""
    pred = outputs > 0
    true = np.asarray(targets) > 0.5
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

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m = None
        self._v = None

    def metadata(self) -> dict:
        """Name and constants, as recorded with a run's results."""
        return {"name": "adam", "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}

    def step(self, params: list, grads: list) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}")
        self.epoch, self.value = epoch, value

    def __reduce__(self):
        # args hold the message, not (epoch, value): rebuild from the fields,
        # so that an error raised in a fold worker reaches the caller intact
        return type(self), (self.epoch, self.value)


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
        # a bool is an Integral, but True is no epoch count or rate
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "weight_decay", "depthwise_decay",
                     "input_dropout", "kernel_dropout"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        for name in ("input_dropout", "kernel_dropout"):
            rate = getattr(self, name)
            if not 0 <= rate < 1:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.epochs < 0 or self.batch_size < 1 or self.seed < 0:
            raise ValueError("epochs and seed must be >= 0 and batch size >= 1")


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


@dataclass
class TrainResult:
    params: list
    metrics: list
    config: TrainConfig
    optimizer: dict


def train(
    spec: ModelSpec,
    kernelsets,
    data,
    config: TrainConfig,
    train_idx=None,
    val_idx=None,
    track_test: bool = False,
):
    """Train a model to a fixed epoch count; deterministic per config.seed.

    Inductive (MultiGraphDataset): kernelsets holds one KernelSet per graph,
    train_idx/val_idx select graphs, and the model ends in a meanmax readout.
    Transductive (SingleGraphDataset): kernelsets is the graph's KernelSet,
    the model has no readout, and the graph is a training set of one graph
    whose loss is masked over data.masks['train']; its training forward
    forms those rows' outputs only (see model_forward).

    Both run one loop: each epoch shuffles the training graphs (one graph
    draws nothing from the Generator), updates the model once per mini-batch
    with the gradient of the batch's mean loss, then scores train and val
    (transductive: one forward scored on each split, test too when asked).
    Mini-batches and evaluation sets run as consecutive chunks of stacked
    graphs (at most _CHUNK_ROWS node rows each, a larger graph alone) through
    the same layers; dropout masks are drawn graph by graph, as separate
    per-graph passes would draw them.

    A single graph trains with the softmax_ce loss on its node labels;
    binary_ce (one-hot graph labels, scored by micro-F1) is for graph sets.
    """
    if isinstance(data, SingleGraphDataset):
        if config.loss != "softmax_ce":
            raise ValueError(f"a single-graph run trains with softmax_ce, not {config.loss}")
        if not data.masks["train"].any():
            raise ValueError("the split has no train nodes")
        graphs, kernelsets, train_idx = (data.graph,), (kernelsets,), [0]
        y = data.labels
        masks = {name: data.masks[name]
                 for name in ("train", "val", "test")[:3 if track_test else 2]
                 if name == "train" or data.masks[name].any()}
        # refuse a scored label outside the output classes before any epoch runs
        rows = np.flatnonzero(np.logical_or.reduce(list(masks.values())))
        _check_labels(y[rows], spec.widths(data.graph.features.shape[1])[-1], rows)

        loss_rows = data.masks["train"]
        y_train = y[loss_rows]

        def chunk_loss(out, chunk):
            return softmax_cross_entropy(out, y_train)

        def epoch_scores(params):
            out, _ = model_forward(spec, params, data.graph.features, kernelsets[0])
            return {name: (softmax_cross_entropy(out[m], y[m])[0],
                           accuracy_multiclass(out[m], y[m])) for name, m in masks.items()}
    elif isinstance(data, MultiGraphDataset):
        if train_idx is None or val_idx is None:
            raise ValueError("multi-graph training needs train_idx and val_idx")
        graphs, chunk_loss = data.graphs, _graph_chunk_loss(data, config.loss)
        loss_rows = None

        def epoch_scores(params):
            return {name: evaluate_graphs(spec, params, kernelsets, data, idx, config.loss)
                    for name, idx in (("train", train_idx), ("val", val_idx))}
    else:
        raise TypeError(f"unsupported dataset type {type(data).__name__}")

    _check_readout(spec, graph_level=isinstance(data, MultiGraphDataset))
    adam = Adam(config.learning_rate)
    fit = _fit(spec, graphs, kernelsets, train_idx, chunk_loss, config, adam, loss_rows)
    params = next(fit)
    metrics = []
    # a non-finite loss is reported once, as TrainingDiverged: numpy's overflow
    # and invalid-value warnings on the way there would print several lines first
    with np.errstate(all="ignore"):
        for epoch, _ in enumerate(fit):
            row = {"epoch": epoch}
            for name, (loss, acc) in epoch_scores(params).items():
                row[f"{name}_loss"], row[f"{name}_acc"] = loss, acc
            metrics.append(row)
    return TrainResult(params=params, metrics=metrics, config=config, optimizer=adam.metadata())


def _fit(spec, graphs, kernelsets, train_idx, chunk_loss, config, adam, loss_rows=None):
    """The epoch loop of train and crossvalidate. Yields the parameters as
    initialised from config.seed, then again after each epoch's updates: the
    same list each time, updated in place by adam. Each epoch shuffles the
    training graphs and takes one step per mini-batch of config.batch_size
    of them (see _batch_gradients); loss_rows, the node mask that a single
    graph's loss reads, goes to its training forward (see model_forward)."""
    train_idx = np.asarray(train_idx, dtype=int)
    rng = np.random.default_rng(config.seed)
    params = init_parameters(spec, graphs[0].features.shape[1], len(kernelsets[0]), rng)
    yield params
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, config.batch_size):
            _, grads = _batch_gradients(spec, params, graphs, kernelsets,
                                        order[start : start + config.batch_size],
                                        chunk_loss, config, rng, epoch, loss_rows)
            add_decay_grads(grads, params, config.weight_decay, config.depthwise_decay)
            adam.step(flatten_params(params), flatten_params(grads))
            del grads   # else it stays alive beside the next batch's gradients
        yield params


def _check_readout(spec: ModelSpec, graph_level: bool) -> None:
    """A graph-level model pools each graph to one row with a meanmax readout
    that no graph convolution follows; a node-level model has no readout."""
    readout = [isinstance(layer, ReadoutMeanMax) for layer in spec.layers]
    if graph_level != any(readout):
        raise ValueError("a graph-level model needs a meanmax readout" if graph_level else
                         "a single-graph (node-level) model cannot contain a meanmax readout")
    if graph_level and any(isinstance(layer, _CONV) for layer in spec.layers[readout.index(True):]):
        raise ValueError("a graph convolution cannot follow the meanmax readout")


# Row bound of one chunk of stacked graphs. A chunk's caches and backward
# temporaries grow with its rows, so the bound keeps a mini-batch's memory at
# one chunk's whatever the batch size. On the ENZYMES-shaped G200x4 model
# (2-core x86, OpenBLAS) 192 rows ran within ~3 % of 256 rows' epoch time at
# about 2 MB less peak RSS; 128 rows cost ~20 % more time.
_CHUNK_ROWS = 192


def _chunks(ids, graphs):
    """Consecutive runs of the graphs ids (indices into graphs) whose node
    rows add up to at most _CHUNK_ROWS; a larger graph runs alone."""
    chunk, rows = [], 0
    for i in ids:
        if chunk and rows + graphs[i].n > _CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(i)
        rows += graphs[i].n
    if chunk:
        yield chunk


def _graph_loss(out, data: MultiGraphDataset, ids, loss_kind: str):
    """Mean loss over graph-level outputs (row j for graph ids[j]), its
    gradient, and the targets; labels outside the output classes are refused
    with the graph named."""
    labels = np.asarray(data.labels)[ids]
    if loss_kind == "softmax_ce":
        _check_labels(labels, out.shape[1], ids, kind="graph")
        target = labels
    else:
        _check_labels(labels, data.n_classes, ids, kind="graph")
        target = np.zeros((len(ids), data.n_classes))
        target[np.arange(len(ids)), labels] = 1.0
    loss, grad = LOSSES[loss_kind](out, target)
    return loss, grad, target


def _graph_chunk_loss(data: MultiGraphDataset, loss_kind: str):
    """The chunk loss of graph-level training: (mean loss, its gradient)."""
    return lambda out, chunk: _graph_loss(out, data, chunk, loss_kind)[:2]


def evaluate_graphs(spec, params, kernelsets, data, idx, loss_kind):
    """Mean loss and accuracy of graph-level predictions over a graph set,
    evaluated as consecutive chunks of stacked graphs."""
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        return float("nan"), float("nan")
    loss_sum = score_sum = 0.0
    for chunk in _chunks(idx, data.graphs):
        H0, batch = stack_graphs([data.graphs[i].features for i in chunk],
                                 [kernelsets[i] for i in chunk], chunk)
        out, _ = model_forward(spec, params, H0, batch)
        loss, _, target = _graph_loss(out, data, chunk, loss_kind)
        loss_sum += loss * len(chunk)
        if loss_kind == "softmax_ce":
            score_sum += float(np.sum(np.argmax(out, axis=1) == target))
        else:
            score_sum += sum(micro_f1(out[j:j + 1], target[j:j + 1]) for j in range(len(chunk)))
    return loss_sum / idx.size, score_sum / idx.size


def _batch_gradients(spec, params, graphs, kernelsets, batch_ids, chunk_loss,
                     config, rng, epoch, loss_rows=None):
    """(mean loss, its gradient) over one mini-batch of graphs, without
    decay: the training step, which the gradient check runs too. The batch
    runs as consecutive chunks of stacked graphs whose shares of the loss and
    gradient add up; chunk_loss(out, chunk) gives a chunk's mean loss and its
    gradient; dropout masks come from rng graph by graph, in batch order.
    loss_rows goes to model_forward."""
    loss_sum, grads = 0.0, None
    for chunk in _chunks(batch_ids, graphs):
        H0, batch = stack_graphs([graphs[i].features for i in chunk],
                                 [kernelsets[i] for i in chunk], chunk)
        out, caches = model_forward(
            spec, params, H0, batch, train=True, rng=rng,
            input_dropout=config.input_dropout, kernel_dropout=config.kernel_dropout,
            rows=loss_rows,
        )
        loss, dout = chunk_loss(out, chunk)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, loss)
        share = len(chunk) / len(batch_ids)
        loss_sum += share * loss
        dout *= share
        grads = model_backward(spec, params, caches, dout, into=grads)
    return loss_sum, grads


def save_checkpoint(params: Sequence[LayerParams], path) -> None:
    """Serialize trained parameters as JSON (nested lists per layer)."""
    import json

    doc = [{"weights": [w.tolist() for w in lp.weights],
            "depthwise": None if lp.depthwise is None else lp.depthwise.tolist(),
            "bias": None if lp.bias is None else lp.bias.tolist()} for lp in params]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> list:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [LayerParams(weights=[np.array(w, dtype=np.float64) for w in entry["weights"]],
                        depthwise=None if entry["depthwise"] is None
                        else np.array(entry["depthwise"], dtype=np.float64),
                        bias=None if entry["bias"] is None
                        else np.array(entry["bias"], dtype=np.float64))
            for entry in doc]


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

    Each fold runs train's epoch loop with the same seed, so its validation
    curve is train(...)'s val_acc column, but each epoch scores the fold's
    validation graphs only: the training-set scores, which the epoch rule
    never reads, are not computed.

    The folds of a repeat are independent, so they train side by side, one
    process per CPU this process may use and at most one per fold, each at
    one BLAS thread: this process trains folds 0, w, 2w, ... and w - 1
    forked children the others (see _folds_side_by_side). The curves are
    gathered in fold order, so the result is the in-process one. With one
    CPU, without fork, or where no OpenBLAS thread setter is loaded (nothing
    could pin BLAS, and the processes would oversubscribe the cores), the
    folds run here one after another.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    if folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {folds}")
    _check_readout(spec, graph_level=True)
    chunk_loss = _graph_chunk_loss(dataset, config.loss)

    def fold_curve(rep, fold_ids, f):
        tr = np.flatnonzero(fold_ids != f)
        va = np.flatnonzero(fold_ids == f)
        cfg = replace(config, seed=config.seed + 1000 * rep + f + 1)
        fit = _fit(spec, dataset.graphs, kernelsets, tr, chunk_loss, cfg, Adam(cfg.learning_rate))
        next(fit)   # the initial parameters are not scored
        return [evaluate_graphs(spec, params, kernelsets, dataset, va, cfg.loss)[1]
                for params in fit]

    processes = _fold_processes(folds)
    accs, best_epochs = [], []
    for rep in range(repeats):
        fold_ids = make_folds(dataset, folds, seed=config.seed + 7919 * rep)
        # as in train; fold workers inherit it through fork, else each would
        # print its own copies of the warnings, as many as timing lets it reach
        with np.errstate(all="ignore"):
            curves = _folds_side_by_side(partial(fold_curve, rep, fold_ids), folds, processes)
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


def _fold_processes(folds: int) -> int:
    """How many processes train a repeat's folds: one per CPU this process
    may use, at most one per fold; 1 where fork is not available or no
    OpenBLAS thread setter is loaded."""
    if not hasattr(os, "fork") or _blas._openblas_thread_functions() is None:
        return 1
    return min(folds, len(os.sched_getaffinity(0)))


def _folds_side_by_side(fold_curve, folds: int, processes: int) -> list:
    """[fold_curve(f) for f in range(folds)], trained by `processes`
    processes at one BLAS thread each, or here alone below 2.

    This process trains folds 0, w, 2w, ... (w = processes) and w - 1 forked
    children the others round-robin, each sending its curves back over a pipe
    once it is done with its share. fold_curve reaches the children through
    fork, so only the curves are pickled. A fork, not a thread or a Pool:
    Python threads would contend for the interpreter lock in the per-graph
    loops, and a Pool runs helper threads here and hangs on a result it
    cannot unpickle.

    Raises what the in-process loop would: the error of the lowest failing
    fold, a child's with its type and message, or ChildProcessError naming
    the exit code of a child that ended without sending its share. Every
    child has ended when this returns or raises."""
    if processes < 2:
        return [fold_curve(f) for f in range(folds)]
    import multiprocessing   # here, not at the top: only cross-validation forks

    context = multiprocessing.get_context("fork")
    curves, errors, children = {}, {}, []
    with _blas.one_thread():
        try:
            for k in range(1, processes):
                receiver, sender = context.Pipe(duplex=False)
                share = range(k, folds, processes)
                child = context.Process(target=_fold_worker, args=(fold_curve, share, sender))
                child.start()
                sender.close()
                children.append((child, receiver, share))
            _train_share(fold_curve, range(0, folds, processes), curves, errors)
            for child, receiver, share in children:
                if errors and min(errors) < share[0]:
                    continue   # the in-process loop would have stopped before this share
                try:
                    share_curves, share_errors = receiver.recv()
                except EOFError:
                    child.join()
                    share_curves, share_errors = {}, {share[0]: ChildProcessError(
                        f"fold worker exited with code {child.exitcode} without its folds")}
                curves.update(share_curves)
                errors.update(share_errors)
            if errors:
                raise errors[min(errors)]
        except BaseException:
            for child, _, _ in children:
                child.kill()
            raise
        finally:
            for child, receiver, _ in children:
                receiver.close()
                child.join()
    return [curves[f] for f in range(folds)]


def _train_share(fold_curve, share, curves: dict, errors: dict) -> None:
    """Puts fold_curve(f) into curves[f] for each fold f of share, in order,
    until one raises: its exception goes into errors[f]."""
    for f in share:
        try:
            curves[f] = fold_curve(f)
        except Exception as exc:
            errors[f] = exc
            return


def _fold_worker(fold_curve, share, sender) -> None:
    """A forked child's body: trains its share, up to the first fold that
    fails, and sends what _train_share gathered, ({fold: curve}, {fold:
    exception})."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C ends the parent, which ends this
    curves, errors = {}, {}
    _train_share(fold_curve, share, curves, errors)
    sender.send((curves, errors))
