"""Operation counts computed from shapes.

The counts model the layer code of specgconv.nn as it stands when the
benchmark was written: every matrix product costs 2*m*k*n floating-point
operations, element-wise work is not counted. Dropout draws one uniform number
per input entry (input dropout) and per support entry (kernel dropout) in each
training forward pass. These numbers repeat exactly; they describe the seed
algorithm on a workload, so ``nn.gflop_per_s`` (this count over measured time)
rising above ``machine.gemm_gflop_per_s`` shows that the program now does
fewer operations than the seed algorithm did.
"""
from __future__ import annotations


def _mm(m: int, k: int, n: int) -> int:
    return 2 * m * k * n


def layer_flops(kind: str, n: int, f_in: int, f_out: int, s: int) -> tuple:
    """(forward, backward) matrix-product FLOPs of one layer on an n-node graph.

    kind is "G" (multi-support), "DSG" (depthwise separable), "D" (dense, applied
    to n rows) or "meanmax" (readout, no products).
    """
    if kind == "G":
        fwd = s * _mm(n, n, f_in) + s * _mm(n, f_in, f_out)
        bwd = s * _mm(f_in, n, f_out) + s * (_mm(n, f_out, f_in) + _mm(n, n, f_in))
    elif kind == "DSG":
        fwd = s * _mm(n, n, f_in) + _mm(n, f_in, f_out)
        bwd = _mm(f_in, n, f_out) + _mm(n, f_out, f_in) + s * _mm(n, n, f_in)
    elif kind == "D":
        fwd = _mm(n, f_in, f_out)
        bwd = _mm(f_in, n, f_out) + _mm(n, f_out, f_in)
    elif kind == "meanmax":
        fwd = bwd = 0
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    return fwd, bwd


def _layers(arch: str, f0: int):
    """(kind, f_in, f_out) per layer of a dash-separated architecture string."""
    width = f0
    for tok in arch.split("-"):
        if tok == "meanmax":
            yield "meanmax", width, 2 * width
            width *= 2
            continue
        kind = tok.rstrip("0123456789")
        out = int(tok[len(kind):])
        yield kind, width, out
        width = out


def graph_pass(arch: str, f0: int, s: int, n: int) -> dict:
    """Counts for one graph: forward FLOPs, backward FLOPs and, for a training
    forward pass, dropout draws (input and kernel dropout both on)."""
    fwd = bwd = draws = 0
    rows = n
    for kind, f_in, f_out in _layers(arch, f0):
        f, b = layer_flops(kind, rows, f_in, f_out, s)
        fwd, bwd = fwd + f, bwd + b
        if kind == "meanmax":
            rows = 1
            continue
        draws += rows * f_in
        if kind in ("G", "DSG"):
            draws += s * rows * rows
    return {"forward": fwd, "backward": bwd, "draws": draws}


def transductive_epoch(arch: str, f0: int, s: int, n: int) -> dict:
    """One transductive epoch: a training forward, a backward, an eval forward."""
    p = graph_pass(arch, f0, s, n)
    return {"flops": 2 * p["forward"] + p["backward"], "draws": p["draws"]}


def inductive_epoch(arch: str, f0: int, s: int, train_sizes, eval_sizes) -> dict:
    """One inductive epoch: forward+backward per training graph, then an eval
    forward per graph in eval_sizes (the training graphs again, plus validation)."""
    flops = draws = 0
    for n in train_sizes:
        p = graph_pass(arch, f0, s, n)
        flops += p["forward"] + p["backward"]
        draws += p["draws"]
    for n in eval_sizes:
        flops += graph_pass(arch, f0, s, n)["forward"]
    return {"flops": flops, "draws": draws}
