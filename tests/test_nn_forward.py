import gc
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from specgconv import nn
from specgconv.filters import Tabulated
from specgconv.graphs import LaplacianKind, build_laplacian
from specgconv.kernels import design_kernel
from specgconv.nn import (
    Dense,
    accuracy_multiclass,
    DepthwiseSeparableConv,
    ModelSpec,
    MultiSupportConv,
    ReadoutMeanMax,
    init_parameters,
    model_backward,
    model_forward,
    param_count,
    parse_architecture,
    softmax_cross_entropy,
    _kernel_mask,
    _masked_product,
    _scaled,
)
from specgconv.spectral import decompose
from scaffold import count_parameters, layer_output, random_graph


def test_identity_conv_passes_through():
    H = np.random.default_rng(0).standard_normal((6, 3))
    out = layer_output(MultiSupportConv(out=3, activation="linear"), H, [np.eye(6)], [np.eye(3)])
    assert np.array_equal(out, H)


def test_fig1_style_layer_has_12_weights():
    spec = ModelSpec((MultiSupportConv(out=3, use_bias=False, activation="relu"),))
    params = init_parameters(spec, f0=2, n_supports=2, rng=np.random.default_rng(0))
    assert count_parameters(params) == 12


def test_multisupport_matches_spectral_side():
    rng = np.random.default_rng(1)
    g = random_graph(9, 0.4, seed=0)
    kind = LaplacianKind.SYM_NORMALIZED
    basis = decompose(build_laplacian(g, kind), kind)
    B = rng.standard_normal((9, 3))
    supports = [design_kernel(basis, Tabulated(values=B[:, s])) for s in range(3)]
    weights = [rng.standard_normal((4, 2)) for _ in range(3)]
    H = rng.standard_normal((9, 4))
    U = basis.eigenvectors
    spectral = np.zeros((9, 2))
    for j in range(2):
        for i in range(4):
            w = np.array([W[i, j] for W in weights])
            spectral[:, j] += U @ np.diag(B @ w) @ U.T @ H[:, i]
    out = layer_output(MultiSupportConv(out=2, activation="linear"), H, supports, weights)
    assert np.max(np.abs(out - spectral)) < 1e-10


def test_depthwise_fresh_init_collapses_to_first_support():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((8, 5))
    supports = [rng.standard_normal((8, 8)) for _ in range(3)]
    W = rng.standard_normal((5, 4))
    dw = np.zeros((3, 5))
    dw[0] = 1.0
    dsg = layer_output(DepthwiseSeparableConv(out=4, activation="linear"), H, supports, [W],
                       depthwise=dw)
    single = layer_output(MultiSupportConv(out=4, activation="linear"), H, supports[:1], [W])
    assert np.max(np.abs(dsg - single)) < 1e-14


def test_depthwise_single_support_unit_weights():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, 3))
    C = rng.standard_normal((6, 6))
    W = rng.standard_normal((3, 2))
    dsg = layer_output(DepthwiseSeparableConv(out=2, activation="linear"), H, [C], [W],
                       depthwise=np.ones((1, 3)))
    conv = layer_output(MultiSupportConv(out=2, activation="linear"), H, [C], [W])
    assert np.array_equal(dsg, conv)


def test_depthwise_matches_naive_loop():
    rng = np.random.default_rng(4)
    n, f_in, f_out, S = 7, 4, 3, 3
    H = rng.standard_normal((n, f_in))
    supports = [rng.standard_normal((n, n)) for _ in range(S)]
    dw = rng.standard_normal((S, f_in))
    W = rng.standard_normal((f_in, f_out))
    bias = rng.standard_normal(f_out)

    mixed = np.zeros((n, f_in))
    for s in range(S):
        filtered = supports[s] @ H
        for col in range(f_in):
            mixed[:, col] += dw[s, col] * filtered[:, col]
    want = np.tanh(mixed @ W + bias)
    got = layer_output(DepthwiseSeparableConv(out=f_out, use_bias=True, activation="tanh"),
                       H, supports, [W], depthwise=dw, bias=bias)
    assert np.max(np.abs(got - want)) < 1e-12


def _reference_pass(kind, params, H0, supports, dout, rng, dropout):
    """Two-layer conv model (relu, then linear) with the supports applied to
    the layer input first, P_s = C_s Hin, and the mixing after. Dropout masks
    are drawn per layer in the library's order: input mask, then one kernel
    mask per support. Returns (output, per-layer parameter gradients)."""
    H, caches = H0, []
    for i, lp in enumerate(params):
        mask, Cs = 1.0, list(supports)
        if rng is not None:
            keep = 1.0 - dropout
            mask = (rng.random(H.shape) < keep) / keep
            Cs = [C * ((rng.random(C.shape) < keep) / keep) for C in supports]
        Hin = H * mask
        PS = [C @ Hin for C in Cs]
        if kind == "dsg":
            M = sum(w * P for w, P in zip(lp.depthwise, PS))
            Z = M @ lp.weights[0] + lp.bias
        else:
            M = None
            Z = sum(P @ W for P, W in zip(PS, lp.weights)) + lp.bias
        caches.append((mask, Cs, PS, M, Z))
        H = np.maximum(Z, 0.0) if i == 0 else Z
    out, grads, d = H, [None, None], dout
    for i in (1, 0):
        mask, Cs, PS, M, Z = caches[i]
        lp = params[i]
        dZ = d * (Z > 0) if i == 0 else d
        g = {"bias": dZ.sum(axis=0)}
        if kind == "dsg":
            g["weights"] = [M.T @ dZ]
            dM = dZ @ lp.weights[0].T
            g["depthwise"] = np.stack([(dM * P).sum(axis=0) for P in PS])
            dHin = sum(C.T @ (dM * w) for w, C in zip(lp.depthwise, Cs))
        else:
            g["weights"] = [P.T @ dZ for P in PS]
            dHin = sum(C.T @ (dZ @ W.T) for C, W in zip(Cs, lp.weights))
        grads[i] = g
        d = dHin * mask
    return out, grads


@pytest.mark.parametrize("dropout", [0.0, 0.4])
@pytest.mark.parametrize("widths", [(9, 6, 2), (2, 5, 8)], ids=["narrowing", "widening"])
@pytest.mark.parametrize("kind", ["dsg", "multisupport"])
def test_conv_layers_match_input_first_reference(kind, widths, dropout):
    rng = np.random.default_rng(6)
    n, S = 11, 3
    f0, f1, f2 = widths
    H0 = rng.standard_normal((n, f0))
    supports = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(S)]
    dout = rng.standard_normal((n, f2))
    cls = DepthwiseSeparableConv if kind == "dsg" else MultiSupportConv
    spec = ModelSpec((cls(out=f1, use_bias=True, activation="relu"),
                      cls(out=f2, use_bias=True, activation="linear")))
    params = init_parameters(spec, f0, S, np.random.default_rng(7))
    for lp in params:
        lp.bias += rng.standard_normal(lp.bias.shape)
        if lp.depthwise is not None:
            lp.depthwise += rng.standard_normal(lp.depthwise.shape)

    seed = 8
    out, caches = model_forward(spec, params, H0, supports, train=dropout > 0,
                                rng=np.random.default_rng(seed),
                                input_dropout=dropout, kernel_dropout=dropout)
    grads = model_backward(spec, params, caches, dout)
    want_out, want_grads = _reference_pass(
        kind, params, H0, supports, dout,
        np.random.default_rng(seed) if dropout > 0 else None, dropout)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(out, want_out) < 1e-12
    for g, want in zip(grads, want_grads):
        assert rel(g.bias, want["bias"]) < 1e-12
        assert len(g.weights) == len(want["weights"])
        for gw, ww in zip(g.weights, want["weights"]):
            assert rel(gw, ww) < 1e-12
        if kind == "dsg":
            assert rel(g.depthwise, want["depthwise"]) < 1e-12


def _buffer_uint32(rng):
    rng.integers(0, 2**32, dtype=np.uint32)


@pytest.mark.parametrize("rows,cols,keep,before", [
    (nn._DROP_ROWS - 5, 30, 0.25, None),
    (3 * nn._DROP_ROWS + 7, 20, 0.9, None),
    (385, 33, 0.25, None),
    (385, 33, 0.9, _buffer_uint32),
    (300, 1433, 0.25, None),
], ids=["under-one-block", "ragged-blocks", "split-odd-rows", "split-buffered-uint32",
        "input-shaped"])
def test_dropped_is_the_masked_scaled_support_bit_for_bit(rows, cols, keep, before):
    """The kernel mask is the sequential draw rng.random(shape) < keep and
    leaves the Generator where that draw does; applied to the identity, the
    masked product gives the masked, scaled support itself."""
    C = np.random.default_rng(4).standard_normal((rows, cols))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    if before is not None:
        before(rng)
        before(twin)
    mask = _kernel_mask(rng, C.shape, keep)
    want = twin.random(C.shape) < keep
    assert mask.dtype == bool and mask.tobytes() == want.tobytes()
    assert rng.random() == twin.random()
    assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32),
                          twin.integers(0, 2**32, size=3, dtype=np.uint32))
    dropped = _scaled(C, want, keep)
    got, got_t = np.empty((rows, cols)), np.empty((cols, rows))
    _masked_product(C, mask, keep, np.eye(cols), got)
    _masked_product(C, mask, keep, np.eye(rows), got_t, transpose=True)
    assert np.array_equal(got, dropped) and np.array_equal(got_t, dropped.T)


def _scattered(n, k, seed=5):
    return np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))


@pytest.mark.parametrize("n,rows,before", [
    (300, _scattered(300, 40), None),
    (700, _scattered(700, 253), None),
    (300, np.arange(50, 150), None),
    (700, np.arange(9, 202), None),
    (300, np.arange(0), None),
    (191, np.arange(191), None),
    (700, np.arange(700), None),
    (300, _scattered(300, 40), _buffer_uint32),
    (700, _scattered(700, 253), _buffer_uint32),
], ids=["scattered", "scattered-split", "contiguous", "contiguous-split", "no-rows",
        "all-rows", "all-rows-split", "scattered-buffered-uint32",
        "split-buffered-uint32"])
def test_row_selected_mask_is_the_full_draws_rows(n, rows, before):
    """A mask drawn for some rows is bitwise those rows of the full draw
    rng.random(shape) < keep, and leaves the Generator bitwise where the full
    draw leaves it, its buffered 32-bit half included; applied to the
    identity, the masked product of those rows gives those rows of the
    masked, scaled support, and its transposed product writes every entry
    of out, zeros when no row is selected: both given the row slice C[rows]
    of the support, with the mask of those rows."""
    cols, keep = 29, 0.3
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    if before is not None:
        before(rng)
        before(twin)
    mask = _kernel_mask(rng, (n, cols), keep, rows)
    want = twin.random((n, cols)) < keep
    assert mask.dtype == bool and mask.tobytes() == want[rows].tobytes()
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
    assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32),
                          twin.integers(0, 2**32, size=3, dtype=np.uint32))
    C = np.random.default_rng(4).standard_normal((n, cols))
    got = np.empty((len(rows), cols))
    _masked_product(C[rows], mask, keep, np.eye(cols), got)
    assert np.array_equal(got, _scaled(C, want, keep)[rows])
    X = np.random.default_rng(6).standard_normal((len(rows), 3))
    want_t = _scaled(C, want, keep)[rows].T @ X
    got_t = np.full((cols, 3), np.nan)
    _masked_product(C[rows], mask, keep, X, got_t, transpose=True)
    assert np.max(np.abs(got_t - want_t)) <= 1e-12 * max(1.0, np.max(np.abs(want_t)))


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, None],
                         ids=["mt19937", "philox", "none"])
def test_dropout_refuses_a_generator_it_cannot_advance(bitgen):
    """Each graph's masks are placed in a PCG64 stream with advance(), so a
    training forward with either dropout refuses another bit generator, or
    no Generator, naming it; without dropout it needs none."""
    rng = None if bitgen is None else np.random.Generator(bitgen(9))
    spec = parse_architecture("DSG4-DSG2")
    params = init_parameters(spec, 3, 2, np.random.default_rng(0))
    H0, supports = np.ones((5, 3)), [np.eye(5)] * 2
    for input_dropout, kernel_dropout in ((0.5, 0.0), (0.0, 0.5)):
        with pytest.raises(ValueError, match=f"Generator on PCG64.*got {re.escape(repr(rng))}"):
            model_forward(spec, params, H0, supports, train=True, rng=rng,
                          input_dropout=input_dropout, kernel_dropout=kernel_dropout)
    out, _ = model_forward(spec, params, H0, supports, train=True, rng=rng)
    assert out.shape == (5, 2)


def test_dropped_supports_drawn_from_many_threads_at_once_keep_their_bits():
    """Callers on more threads than cores, switching often, each with its
    own Generator, get that Generator's sequential draw, of every row or of
    a row selection."""
    shape = (387, 17)
    rows = _scattered(shape[0], 232)
    want = [np.random.default_rng(s).random(shape) < 0.5 for s in range(6)]
    got = [[] for _ in want]

    def draw(seed):
        for i in range(6):
            got[seed].append(_kernel_mask(np.random.default_rng(seed), shape, 0.5,
                                          rows if i % 2 else None))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(len(want))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for masks, w in zip(got, want):
        assert len(masks) == 6 and all(m.tobytes() == (w[rows] if i % 2 else w).tobytes()
                                       for i, m in enumerate(masks))


def test_kernel_dropout_training_forward_starts_no_thread(monkeypatch):
    """A training forward with kernel and input dropout on a 400-node graph,
    whole and over loss rows, draws every mask on the calling thread."""
    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    n, f0, S = 400, 5, 2
    rng = np.random.default_rng(3)
    spec = parse_architecture("DSG6-DSG3")
    params = init_parameters(spec, f0, S, rng)
    supports = [rng.standard_normal((n, n)) for _ in range(S)]
    rows = np.zeros(n, dtype=bool)
    rows[_scattered(n, 250)] = True
    for loss_rows in (None, rows):
        out, caches = model_forward(spec, params, rng.standard_normal((n, f0)), supports,
                                    train=True, rng=rng, input_dropout=0.3,
                                    kernel_dropout=0.5, rows=loss_rows)
        model_backward(spec, params, caches, np.ones_like(out))


@pytest.mark.parametrize("n,width,apply_bytes,symmetric", [
    (1100, 6, None, True),          # the real block size: 953 rows, then 147
    (50, 6, 8 * 50 * 7, False),     # blocks of 7 rows, the last of one row
    (30, 6, None, False),           # one block wider than X: 1/keep scales the product
    (30, 40, None, False),          # one block no wider than X: 1/keep scales the block
], ids=["ragged-last-block", "one-row-last-block", "below-one-block", "narrower-than-x"])
def test_masked_products_match_the_dropped_support_product(n, width, apply_bytes, symmetric,
                                                           monkeypatch):
    """Forward and transposed products of a dropped support,
    formed block by block from C and its mask, against the products of the
    masked, scaled copy: within 1e-12 relative. A support of one block gives
    the one-GEMM products bit for bit at keep 0.25, whose 1/keep is exact,
    and at any keep when it is no wider than X, so that 1/keep scales the
    block as the copy does."""
    if apply_bytes is not None:
        monkeypatch.setattr(nn, "_APPLY_BYTES", apply_bytes)
    rng = np.random.default_rng(11)
    C = rng.standard_normal((n, n))
    if symmetric:
        C = C + C.T
    X = rng.standard_normal((n, width))
    one_block = nn._APPLY_BYTES >= 8 * n * n
    for keep in (0.3, 0.25):
        mask = rng.random((n, n)) < keep
        D = _scaled(C, mask, keep)
        for transpose in (False, True):
            want = (D.T if transpose else D) @ X
            got = np.empty_like(X)
            _masked_product(C, mask, keep, X, got, transpose=transpose)
            if one_block and (keep == 0.25 or n <= width):
                assert got.tobytes() == want.tobytes()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,width,apply_bytes", [
    (0, 3, None),
    (1, 3, None),
    (15, 3, 8 * 15 * 7),        # blocks of 7, 7 and 1 rows; C wider than X
    (15, 20, 8 * 15 * 7),       # the same blocks; C no wider than X
], ids=["0-node", "1-node", "one-row-last-block", "one-row-last-block-wide-x"])
def test_transposed_masked_product_writes_every_entry_of_out(n, width, apply_bytes,
                                                             monkeypatch):
    """C^T X is summed from its first row block on, so no entry of out may be
    left as it was: a NaN-filled out is overwritten, and an all-false mask
    writes zeros. C is not symmetric, so a product with C in place of C^T
    would show."""
    if apply_bytes is not None:
        monkeypatch.setattr(nn, "_APPLY_BYTES", apply_bytes)
    rng = np.random.default_rng(17)
    C = rng.standard_normal((n, n))
    X = rng.standard_normal((n, width))
    for mask in (rng.random((n, n)) < 0.6, np.zeros((n, n), dtype=bool)):
        want = _scaled(C, mask, 0.6).T @ X
        got = np.full((n, width), np.nan)
        _masked_product(C, mask, 0.6, X, got, transpose=True)
        scale = np.max(np.abs(want), initial=1.0)
        assert not np.isnan(got).any()
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    assert not got.any()


def test_kernel_dropout_on_an_empty_graph_gives_an_empty_output():
    spec = parse_architecture("DSG4-DSG2")
    params = init_parameters(spec, 3, 2, np.random.default_rng(0))
    out, _ = model_forward(spec, params, np.zeros((0, 3)), [np.zeros((0, 0))] * 2, train=True,
                           rng=np.random.default_rng(0), input_dropout=0.5, kernel_dropout=0.5)
    assert out.shape == (0, 2)


def test_propagate_applies_each_graphs_own_masks():
    """_propagate over a two-graph batch with kernel dropout uses graph g's
    mask of support s on graph g's rows, forward and transposed. A graph
    given the row slices C[rows] of its supports, with or without the masks'
    same rows, forms those rows of the full product, and its transposed
    product reads X as the values at those rows."""
    rng = np.random.default_rng(12)
    sizes = (5, 8)
    Cs = [[rng.standard_normal((m, m)) for _ in range(2)] for m in sizes]
    masks = [[rng.random((m, m)) < 0.5 for _ in range(2)] for m in sizes]
    offsets = np.array([0, 5, 13])
    X = rng.standard_normal((13, 3))
    for transpose in (False, True):
        want = np.concatenate([
            (_scaled(C[1], M[1], 0.5).T if transpose else _scaled(C[1], M[1], 0.5))
            @ X[a:b] for C, M, a, b in zip(Cs, masks, offsets[:-1], offsets[1:])])
        got = nn._propagate(Cs, 1, X, transpose=transpose, dropout=(masks, 0.5))
        assert got.tobytes() == want.tobytes()

    rows = np.array([0, 2, 3, 7])
    C, M = Cs[1][1], masks[1][1]   # support 1 of the 8-node graph
    sliced = [[c[rows] for c in Cs[1]]]
    X = rng.standard_normal((8, 3))
    at_rows = np.zeros_like(X)
    at_rows[rows] = X[rows]
    for D, dropout in ((C, None), (_scaled(C, M, 0.5), ([[m[rows] for m in masks[1]]], 0.5))):
        got = nn._propagate(sliced, 1, X, dropout=dropout)
        got_t = nn._propagate(sliced, 1, X[rows], transpose=True, dropout=dropout)
        assert got.shape == (len(rows), 3) and got_t.shape == (8, 3)
        for g, w in ((got, (D @ X)[rows]), (got_t, D.T @ at_rows)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_dropout_state_is_freed_when_the_forward_returns(monkeypatch):
    """Nothing of one training forward's dropout outlives it in a reference
    cycle, which only the cyclic collector would free."""
    alive = []

    class Recorded(nn._Dropout):
        def __init__(self, *args):
            super().__init__(*args)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(nn, "_Dropout", Recorded)
    rng = np.random.default_rng(0)
    spec = parse_architecture("DSG4-DSG2")
    params = init_parameters(spec, 3, 2, rng)
    supports = [np.eye(5), np.ones((5, 5)) / 5]
    gc.disable()
    try:
        model_forward(spec, params, rng.standard_normal((5, 3)), supports, train=True,
                      rng=rng, input_dropout=0.5, kernel_dropout=0.5)
        assert len(alive) == 1 and alive[0]() is None
    finally:
        gc.enable()


def _arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _arrays(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _arrays(v)


def test_input_dropout_caches_the_input_and_its_mask_not_a_scaled_copy():
    """With input dropout, the only float array of the input's shape in a
    DSG layer's cache is the input itself; the backward rebuilds the scaled
    input from it and the boolean mask."""
    rng = np.random.default_rng(2)
    spec = parse_architecture("DSG4-DSG2")
    H0 = rng.standard_normal((30, 9))
    supports = [np.eye(30), rng.standard_normal((30, 30))]
    params = init_parameters(spec, 9, 2, rng)
    _, caches = model_forward(spec, params, H0, supports, train=True,
                              rng=np.random.default_rng(3), input_dropout=0.5,
                              kernel_dropout=0.5)
    same_shape = [a for a in _arrays(caches[0]) if a.shape == H0.shape and a.dtype.kind == "f"]
    assert len(same_shape) == 1 and same_shape[0] is H0
    assert any(a.shape == H0.shape and a.dtype == bool for a in _arrays(caches[0]))


def test_scaled_input_and_kernel_masks_are_never_alive_together(monkeypatch):
    """A conv layer lets go of its scaled input before it draws its kernel
    masks, and its backward lets go of the masks before it rebuilds the
    scaled input, whether it narrows (DSG2) or widens (G16) its 9 inputs."""
    n, f0, S = 12, 9, 3
    real_scaled, real_mask = nn._scaled, nn._kernel_mask

    def alive(refs):
        return any(r() is not None for r in refs)

    for arch in ("DSG2", "G16"):
        scaled, kernel_masks, overlaps = [], [], []

        def recorded_scaled(x, mask, keep):
            out = real_scaled(x, mask, keep)
            if out.shape == (n, f0):
                overlaps.append(alive(kernel_masks))
                scaled.append(weakref.ref(out))
            return out

        def recorded_mask(rng, shape, keep, rows=None):
            out = real_mask(rng, shape, keep, rows)
            if shape == (n, n):
                overlaps.append(alive(scaled))
                kernel_masks.append(weakref.ref(out))
            return out

        monkeypatch.setattr(nn, "_scaled", recorded_scaled)
        monkeypatch.setattr(nn, "_kernel_mask", recorded_mask)
        rng = np.random.default_rng(4)
        spec = parse_architecture(arch)
        params = init_parameters(spec, f0, S, rng)
        supports = [rng.standard_normal((n, n)) for _ in range(S)]
        out, caches = model_forward(spec, params, rng.standard_normal((n, f0)), supports,
                                    train=True, rng=rng, input_dropout=0.5, kernel_dropout=0.5)
        model_backward(spec, params, caches, np.ones_like(out))
        assert (len(scaled), len(kernel_masks), any(overlaps)) == (2, S, False), arch


def _step_case(arch, n=500, f0=12, S=3, seed=21):
    rng = np.random.default_rng(seed)
    spec = parse_architecture(arch)
    params = init_parameters(spec, f0, S, rng)
    for lp in params:
        if lp.depthwise is not None:
            lp.depthwise += 0.3 * rng.standard_normal(lp.depthwise.shape)
        if lp.bias is not None:
            lp.bias += 0.1 * rng.standard_normal(lp.bias.shape)
    supports = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(S)]
    c = spec.widths(f0)[-1]
    y = rng.integers(0, c, size=n)
    return spec, params, rng.standard_normal((n, f0)), supports, y


def _step(spec, params, H0, supports, y, rows, seed, loss_rows):
    """One dual-dropout training step: (output rows, loss, gradients, Generator)."""
    rng = np.random.default_rng(seed)
    out, caches = model_forward(spec, params, H0, supports, train=True, rng=rng,
                                input_dropout=0.4, kernel_dropout=0.6,
                                rows=rows if loss_rows else None)
    if loss_rows:
        value, dout = softmax_cross_entropy(out, y[rows])
    else:
        value, g = softmax_cross_entropy(out[rows], y[rows])
        dout = np.zeros_like(out)
        dout[rows] = g
        out = out[rows]
    return out, value, model_backward(spec, params, caches, dout), rng


@pytest.mark.parametrize("arch", ["DSG8-DSG3", "G3-G8", "DSG16-D7", "D6-D4"],
                         ids=["narrowing", "widening", "dense-after-conv", "no-conv"])
@pytest.mark.parametrize("k", [37, 260], ids=["few-rows", "rows-above-split"])
def test_loss_rows_training_step_matches_the_masked_full_step(arch, k, monkeypatch):
    """A training step whose forward forms only the loss rows from the last
    conv layer on gives the loss and gradients of the step over all rows
    with the loss masked, within 1e-12 relative, and leaves the Generator
    where that step leaves it. 100-row blocks make the products of both
    paths span several blocks."""
    monkeypatch.setattr(nn, "_APPLY_BYTES", 8 * 500 * 100)
    spec, params, H0, supports, y = _step_case(arch)
    rows = np.zeros(H0.shape[0], dtype=bool)
    rows[_scattered(H0.shape[0], k)] = True
    out, value, grads, rng = _step(spec, params, H0, supports, y, rows, 3, True)
    want_out, want_value, want_grads, twin = _step(spec, params, H0, supports, y, rows, 3, False)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert out.shape == want_out.shape and rel(out, want_out) <= 1e-12
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    for g, w in zip(nn.flatten_params(grads), nn.flatten_params(want_grads)):
        assert rel(g, w) <= 1e-12
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)


def test_last_conv_layer_draws_its_masks_for_the_loss_rows_only(monkeypatch):
    """With loss rows, the last conv layer draws (rows, n) kernel masks and
    no (n, n) one, and a dense layer after it a (rows, width) input mask;
    earlier layers and the conv layer's input keep whole masks."""
    n, f0, S, k = 40, 6, 3, 9
    drawn = []
    real_mask = nn._kernel_mask

    def recorded_mask(rng, shape, keep, rows=None):
        out = real_mask(rng, shape, keep, rows)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(nn, "_kernel_mask", recorded_mask)
    rng = np.random.default_rng(8)
    spec = parse_architecture("DSG5-DSG4-D3")
    params = init_parameters(spec, f0, S, rng)
    supports = [rng.standard_normal((n, n)) for _ in range(S)]
    rows = np.zeros(n, dtype=bool)
    rows[_scattered(n, k)] = True
    out, caches = model_forward(spec, params, rng.standard_normal((n, f0)), supports,
                                train=True, rng=rng, input_dropout=0.5, kernel_dropout=0.5,
                                rows=rows)
    model_backward(spec, params, caches, np.ones_like(out))
    assert out.shape == (k, 3)
    assert drawn == [(n, f0)] + [(n, n)] * S + [(n, 5)] + [(k, n)] * S + [(k, 4)]


def test_loss_rows_need_a_node_mask_of_one_graph():
    spec = parse_architecture("DSG4-DSG2")
    params = init_parameters(spec, 3, 1, np.random.default_rng(0))
    H0, batch = nn.stack_graphs([np.ones((4, 3)), np.ones((5, 3))],
                                [[np.eye(4)], [np.eye(5)]])
    for rows, kernels, h in ((np.ones(9, dtype=bool), batch, H0),
                             (np.arange(4), [np.eye(4)], H0[:4]),
                             (np.ones(5, dtype=bool), [np.eye(4)], H0[:4])):
        with pytest.raises(ValueError, match="boolean mask over the nodes of one graph"):
            model_forward(spec, params, h, kernels, rows=rows)


def test_param_count_cora_table_model():
    assert param_count(parse_architecture("DSG160-DSG7"), f0=1433, n_supports=4) == 236772
    assert param_count(parse_architecture("G160-G7"), f0=1433, n_supports=4) == 921600


def test_param_count_single_support_difference():
    def spec(cls):
        return ModelSpec((cls(out=6), cls(out=4), cls(out=2, activation="linear")))

    f0 = 5
    widths_sum = f0 + 6 + 4  # conv input widths
    multi = param_count(spec(MultiSupportConv), f0, n_supports=1)
    sep = param_count(spec(DepthwiseSeparableConv), f0, n_supports=1)
    assert sep - multi == widths_sum


def test_param_count_matches_enumerated_storage():
    rng = np.random.default_rng(5)
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        S = int(rng.integers(1, 5))
        f0 = int(rng.integers(1, 9))
        kind = rng.choice(["G", "DSG", "D"])
        cls = {"G": MultiSupportConv, "DSG": DepthwiseSeparableConv, "D": Dense}[kind]
        layers = []
        for d in range(depth):
            layers.append(cls(out=int(rng.integers(1, 9)), use_bias=bool(rng.integers(2)),
                              activation="relu"))
        spec = ModelSpec(tuple(layers))
        params = init_parameters(spec, f0, S, np.random.default_rng(0))
        assert param_count(spec, f0, S) == count_parameters(params)


def test_param_count_with_readout_pipeline():
    spec = parse_architecture("G200-G200-meanmax-D100-D2")
    f0, S = 3, 2
    params = init_parameters(spec, f0, S, np.random.default_rng(0))
    assert param_count(spec, f0, S) == count_parameters(params)
    assert spec.widths(f0) == [3, 200, 200, 400, 100, 2]


def test_readout_concatenates_mean_and_max():
    spec = ModelSpec((ReadoutMeanMax(),))
    params = init_parameters(spec, 3, 1, np.random.default_rng(0))
    H = np.array([[1.0, -2.0, 0.0], [3.0, 4.0, -1.0]])
    out, _ = model_forward(spec, params, H, [])
    assert out.shape == (1, 6)
    assert np.array_equal(out[0, :3], H.mean(axis=0))
    assert np.array_equal(out[0, 3:], H.max(axis=0))


def test_softmax_cross_entropy_values():
    # near-one-hot prediction: loss approaches zero from above
    logits = np.array([[30.0, 0.0, 0.0]])
    loss, _ = softmax_cross_entropy(logits, np.array([0]))
    assert 0 < loss < 1e-12
    # uniform prediction over 7 classes
    loss7, _ = softmax_cross_entropy(np.zeros((4, 7)), np.zeros(4, dtype=int))
    assert loss7 == pytest.approx(np.log(7.0), abs=1e-12)


def test_softmax_cross_entropy_empty_mask():
    """The loss and the accuracy refuse the rows an empty mask selects: there
    is no mean."""
    none = np.zeros(3, bool)
    outputs = np.zeros((3, 2))
    with pytest.raises(ValueError, match="^no rows to score$"):
        softmax_cross_entropy(outputs[none], np.zeros(3, dtype=int)[none])
    with pytest.raises(ValueError, match="^no rows to score$"):
        accuracy_multiclass(outputs[none], np.zeros(3, dtype=int)[none])


def test_parse_architecture_tokens():
    spec = parse_architecture("DSG160-DSG7")
    assert [type(l).__name__ for l in spec.layers] == ["DepthwiseSeparableConv"] * 2
    assert spec.layers[0].activation == "relu" and spec.layers[1].activation == "linear"
    assert spec.layers[0].use_bias is False and spec.layers[1].use_bias is True

    spec2 = parse_architecture("G200-G200-meanmax-D100-D2")
    kinds = [type(l).__name__ for l in spec2.layers]
    assert kinds == ["MultiSupportConv", "MultiSupportConv", "ReadoutMeanMax", "Dense", "Dense"]
    assert spec2.layers[-1].activation == "linear"

    spec3 = parse_architecture("DSG16-DSG3", output_activation="relu")
    assert spec3.layers[-1].activation == "relu"


def test_parse_architecture_errors():
    with pytest.raises(ValueError):
        parse_architecture("")
    with pytest.raises(ValueError):
        parse_architecture("Q16")
    with pytest.raises(ValueError):
        parse_architecture("meanmax")
    with pytest.raises(ValueError):
        parse_architecture("G0")


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec((MultiSupportConv(out=3, activation="softmax"),))
    with pytest.raises(ValueError):
        ModelSpec(())
    # layers given once, as an iterator, are kept, not used up by the checks
    layers = (MultiSupportConv(out=3), ReadoutMeanMax())
    assert ModelSpec(iter(layers)).layers == layers
    # a layer that is no LayerSpec is refused when the spec is made, not when it is used
    for layer in (object(), "G4", None):
        with pytest.raises(TypeError, match="not a LayerSpec"):
            ModelSpec((MultiSupportConv(out=3), layer))


def test_unlabelled_scored_node_is_refused():
    # a -1 label used to be scored as the last class (loss 0.013 here)
    with pytest.raises(ValueError, match="node 0 has label -1"):
        softmax_cross_entropy(np.array([[0.0, 0.0, 5.0]]), np.array([-1]))
    # a refusal names the row among the rows given
    outputs = np.zeros((4, 3))
    labels = np.array([0, 2, -1, 3])
    rows = np.array([False, True, True, False])
    with pytest.raises(ValueError, match="node 1 has label -1"):
        accuracy_multiclass(outputs[rows], labels[rows])
    rows = np.array([True, False, False, True])
    with pytest.raises(ValueError, match="node 1 has label 3, outside the classes 0..2"):
        softmax_cross_entropy(outputs[rows], labels[rows])
    # rows not given may stay unlabelled
    rows = np.array([True, True, False, False])
    loss, grad = softmax_cross_entropy(outputs[rows], labels[rows])
    assert abs(loss - np.log(3.0)) < 1e-12 and grad.shape == (2, 3)
    assert accuracy_multiclass(outputs[:1], labels[:1]) == 1.0
