"""Spatial convolution supports: designed, Chebyshev, GCN and sampled GAT.

A designed support realizes a chosen spectral response F through
C = U diag(F(lambda)) U^T, so applying C in the node domain filters exactly
with F in the frequency domain. Chebyshev and GCN supports are built from
their structural definitions and analyzed elsewhere by back-calculation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filters import ChebBasis, FilterDesign, evaluate
from .graphs import Graph, _scatter
from .spectral import SpectralBasis, _synthesize


@dataclass(frozen=True)
class KernelSet:
    """Ordered dense n x n supports of one graph; a sequence of the supports."""

    supports: tuple

    def __post_init__(self):
        if len(self.supports) < 1:
            raise ValueError("a kernel set needs at least one support")
        n = self.supports[0].shape[0]
        for C in self.supports:
            if C.shape != (n, n):
                raise ValueError(f"support shapes differ: {C.shape} vs ({n}, {n})")
        object.__setattr__(self, "supports", tuple(self.supports))

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        return iter(self.supports)

    @property
    def n_kernels(self) -> int:
        return len(self.supports)


def design_kernel(basis: SpectralBasis, design: FilterDesign) -> np.ndarray:
    """Support with the designed spectral response: U diag(F(lambda)) U^T,
    exactly symmetric."""
    return _synthesize(basis.eigenvectors, evaluate(design, basis))


def design_kernelset(basis: SpectralBasis, designs: Sequence[FilterDesign]) -> KernelSet:
    return KernelSet(tuple(design_kernel(basis, d) for d in designs))


def cheb_kernels(L: np.ndarray, lambda_max: float, n_kernels: int) -> KernelSet:
    """First S Chebyshev supports: C1 = I, C2 = 2L/lambda_max - I, then
    C_k = 2 C2 C_{k-1} - C_{k-2}."""
    if lambda_max <= 0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    L = np.asarray(L, dtype=np.float64)
    n = L.shape[0]
    ChebBasis(k=n_kernels).check_graph(n)
    supports = [np.eye(n)]
    if n_kernels >= 2:
        supports.append(2.0 * L / lambda_max - np.eye(n))
    for _ in range(n_kernels - 2):
        supports.append(2.0 * supports[1] @ supports[-1] - supports[-2])
    return KernelSet(tuple(supports))


def gcn_kernel(g: Graph) -> np.ndarray:
    """Renormalized single support (A+I with symmetric degree normalization),
    exactly symmetric: (dinv_i dinv_j) w_ij off the diagonal and dinv_i^2 on
    it, for dinv = 1/sqrt(d + 1), formed in its output array alone."""
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    i, j = g.edges.T
    return _scatter(g, dinv[i] * dinv[j] * g.weights, dinv * dinv)


# width of the attention projection W of a sampled GAT kernel
GAT_ATT_DIM = 8


def gat_sample_kernel(g: Graph, seed: int) -> np.ndarray:
    """Sample one attention support with random weights (no training).

    W (f0 x GAT_ATT_DIM) and then a (2*GAT_ATT_DIM,) are drawn from a
    standard normal seeded with seed. Scores are LeakyReLU (slope 0.2) of
    a . [W h_i || W h_j] over the closed neighborhood of each node (itself and
    its neighbours along edges of positive weight), then
    row-softmaxed over that support set; rows sum to 1 exactly where the
    neighborhood is nonempty (always, since it includes the node itself).
    """
    if g.features.size == 0:
        raise ValueError("GAT sampling needs a nonempty feature matrix")
    rng = np.random.default_rng(seed)
    support = _scatter(g, g.weights > 0, True)
    W = rng.standard_normal((g.features.shape[1], GAT_ATT_DIM))
    a = rng.standard_normal(2 * GAT_ATT_DIM)
    WH = g.features @ W
    scores = (WH @ a[:GAT_ATT_DIM])[:, None] + (WH @ a[GAT_ATT_DIM:])[None, :]
    scores = np.where(scores > 0, scores, 0.2 * scores)
    scores = np.where(support, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)
