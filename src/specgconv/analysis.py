"""Back-calculated frequency profiles of spatial supports.

Any n x n support C has a full profile U^T C U in a given spectral basis;
its diagonal (the standard profile) is the response each eigenvector sees of
itself. Designed supports recover their design exactly; structural supports
(GCN, attention samples) are analyzed against theoretical approximations.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import load_matrix_csv, save_matrix_csv
from .graphs import Graph
from .kernels import gat_sample_kernel
from .spectral import SpectralBasis

PROFILE_HEADER = ("lambda", "standard")


@dataclass(frozen=True)
class FrequencyProfile:
    """Full spectral response U^T C U of one support, with its eigenvalues.

    The standard profile is the diagonal of the full profile, by definition
    and by construction here.
    """

    lam: np.ndarray
    full: np.ndarray

    @property
    def standard(self) -> np.ndarray:
        return np.diagonal(self.full).copy()


def profile(C: np.ndarray, basis: SpectralBasis) -> FrequencyProfile:
    """Back-calculate the frequency profile of a support in the given basis."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (basis.n, basis.n):
        raise ValueError(f"support shape {C.shape} does not match basis size {basis.n}")
    U = basis.eigenvectors
    return FrequencyProfile(lam=basis.eigenvalues.copy(), full=U.T @ C @ U)


def profile_deviation(p: FrequencyProfile, oracle: np.ndarray) -> dict:
    """Elementwise deviation of the standard profile from a reference vector."""
    oracle = np.asarray(oracle, dtype=np.float64)
    std = p.standard
    if oracle.shape != std.shape:
        raise ValueError(f"oracle length {oracle.shape} != profile length {std.shape}")
    diff = std - oracle
    return {
        "max_abs": float(np.max(np.abs(diff))),
        "rms": float(np.sqrt(np.mean(diff**2))),
    }


def gat_profile_stats(g: Graph, trials: int, seed: int, basis: SpectralBasis) -> dict:
    """Elementwise mean/std of profiles, in basis, over sampled attention
    kernels of g.

    Trial t draws its kernel from seed + t, so runs are deterministic and
    trials could be distributed without changing the result.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = g.n
    sum_full = np.zeros((n, n))
    sumsq_full = np.zeros((n, n))
    for t in range(trials):
        full = profile(gat_sample_kernel(g, seed + t), basis).full
        sum_full += full
        sumsq_full += full**2
    mean_full = sum_full / trials
    var_full = np.maximum(sumsq_full / trials - mean_full**2, 0.0)
    std_full = np.sqrt(var_full)
    return {
        "lambda": basis.eigenvalues.copy(),
        "mean_standard": np.diagonal(mean_full).copy(),
        "std_standard": np.diagonal(std_full).copy(),
        "mean_full": mean_full,
        "std_full": std_full,
        "trials": trials,
        "seed": seed,
    }


def export_profile(p: FrequencyProfile, path, absolute: bool = False) -> None:
    """Write a profile as CSV with header ``lambda,standard``, and its full
    matrix to ``<path stem>_full.csv``.

    Values are written with 17 significant digits and round-trip bitwise
    through the CSV loaders. absolute=True exports |standard| and |full| (a
    plotting convention); the stored profile itself is never rectified.
    """
    std = np.abs(p.standard) if absolute else p.standard
    save_matrix_csv(path, np.column_stack([p.lam, std]), header=PROFILE_HEADER)
    stem, ext = os.path.splitext(os.fspath(path))
    full = np.abs(p.full) if absolute else p.full
    save_matrix_csv(stem + "_full" + (ext or ".csv"), full)


def load_profile_csv(path) -> tuple:
    """Read back an exported standard profile as (lambda, standard)."""
    m = load_matrix_csv(path, header=PROFILE_HEADER)
    return m[:, 0], m[:, 1]
