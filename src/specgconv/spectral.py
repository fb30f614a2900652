"""Deterministic symmetric eigendecomposition of graph Laplacians.

The basis fixes an ascending eigenvalue sort and a sign convention (the
largest-magnitude entry of each eigenvector, smallest index on ties, is made
nonnegative) so that repeated decompositions of the same matrix are
bit-identical and exported frequency profiles are reproducible.
"""
from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass

import numpy as np

from .graphs import LaplacianKind

ORTHO_TOL = 1e-8
SYM_TOL = 1e-10
# Bytes of the row block in which _asymmetry forms M[a:b] - M[:, a:b]^T (48
# rows at Cora's n = 2708). On a 2-core x86 box a 2708^2 check took 65-72 ms
# with blocks of 0.25-1 MB, against 110-117 ms for the whole-array |M - M^T|.
_ASYM_BYTES = 1 << 20
# part of every cache key, with the specgconv and numpy versions: change it with
# the sign rule, the eigenvalue order or the entry layout, so that entries
# written before miss instead of serving stale bases
_CACHE_VERSION = 1


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Laplacian."""

    eigenvalues: np.ndarray     # (n,)
    eigenvectors: np.ndarray    # (n, n), eigenvector s in column s
    kind: LaplacianKind

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _apply_sign_rule(U: np.ndarray) -> np.ndarray:
    """Flip, in place, each column of U whose pivot entry is negative; returns U.
    A column's pivot is its largest entry or its smallest, whichever is larger
    in magnitude; only where they tie (+a and -a) is the first |a| looked up."""
    hi, lo = U.max(axis=0), U.min(axis=0)
    flip = -lo > hi
    tied = np.flatnonzero(hi == -lo)
    flip[tied] = U[np.argmax(np.abs(U[:, tied]), axis=0), tied] < 0
    U *= np.where(flip, -1.0, 1.0)
    return U


def _synthesize(U: np.ndarray, f: np.ndarray) -> np.ndarray:
    """U diag(f) U^T as P P^T - N N^T, where P and N are the columns of
    V = U sqrt(|f|) with f > 0 and f < 0.

    numpy computes X @ X.T with a BLAS syrk, half the flops of a general
    product, and mirrors its upper triangle, so the result is exactly
    symmetric.
    """
    V = U * np.sqrt(np.abs(f))
    neg = f < 0
    if not neg.any():
        return V @ V.T
    P, N = V[:, f > 0], V[:, neg]
    del V   # P and N are copies: free V before the two n x n products
    C = P @ P.T
    C -= N @ N.T
    return C


def _asymmetry(M: np.ndarray, what: str) -> float:
    """max |M - M^T| of a square M (0 when it is empty), formed a row block
    at a time, so no n x n temporary is made. Raises ValueError naming `what`
    when M has an entry that is not finite: such an entry makes its own
    difference NaN, which a comparison with a tolerance passes, or infinite,
    which it reads as asymmetry."""
    n = M.shape[0]
    step = max(1, _ASYM_BYTES // (8 * max(n, 1)))
    worst = 0.0
    with np.errstate(invalid="ignore"):     # inf - inf: refused below
        for a in range(0, n, step):
            block = np.subtract(M[a : a + step], M[:, a : a + step].T)
            block_max = float(np.abs(block, out=block).max())
            if not block_max < np.inf:      # NaN or inf
                raise ValueError(f"{what} has an entry that is not finite")
            worst = max(worst, block_max)
    return worst


def _validate(basis: SpectralBasis, L: np.ndarray) -> None:
    """Check the basis invariants. Each residual is formed in the array of
    its one product (identity and L subtracted, abs taken in place), so its
    maximum, and the verdict, is bitwise that of the plain expression. Each
    check is written to pass only what it accepts, so a NaN fails it."""
    U, lam = basis.eigenvectors, basis.eigenvalues
    n = L.shape[0]
    gram = U.T @ U
    gram.reshape(-1)[:: n + 1] -= 1.0
    if not np.max(np.abs(gram, out=gram)) <= ORTHO_TOL:
        raise ArithmeticError("eigenvector matrix is not orthonormal within 1e-8")
    del gram    # before the reconstruction's two n x n arrays
    recon = (U * lam) @ U.T
    recon -= L
    if not np.max(np.abs(recon, out=recon)) <= ORTHO_TOL:
        raise ArithmeticError("eigendecomposition does not reconstruct L within 1e-8")
    if not np.all(np.diff(lam) >= 0):
        raise ArithmeticError("eigenvalues are not sorted ascending")
    if basis.kind is LaplacianKind.SYM_NORMALIZED:
        if not (-ORTHO_TOL <= lam[0] <= ORTHO_TOL):
            raise ArithmeticError(f"lambda_1 = {lam[0]} outside [-1e-8, 1e-8]")
        if not lam[-1] <= 2 + ORTHO_TOL:
            raise ArithmeticError(f"lambda_max = {lam[-1]} exceeds 2")


def decompose(L: np.ndarray, kind: LaplacianKind, cache_dir=None) -> SpectralBasis:
    """Eigendecompose a symmetric Laplacian into a validated SpectralBasis.

    L must be finite and symmetric within 1e-10. With cache_dir set, each
    basis is stored as one ``<key>.npy`` file holding the (n+1) x n array
    [lambda; U], keyed by a hash of the cache version, the specgconv and numpy
    versions, the kind and the bytes of L. Every hit is validated; an entry
    that is unreadable, of the wrong shape or fails the basis invariants is
    discarded and recomputed.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    asymmetry = _asymmetry(L, "Laplacian")
    if asymmetry > SYM_TOL:
        raise ValueError("Laplacian is not symmetric within 1e-10")

    if cache_dir is not None:
        cached = _cache_load(cache_dir, L, kind)
        if cached is not None:
            return cached

    # an exactly symmetric L is its own symmetrized copy, bit for bit; eigh
    # returns the eigenvalues ascending, which _validate checks. U is made
    # column-major, as a cache entry holds it: the BLAS products that read U
    # (profiles, checks) take their last bits from its layout.
    lam, U = np.linalg.eigh(L if asymmetry == 0 else 0.5 * (L + L.T))
    U = _apply_sign_rule(np.asfortranarray(U))
    basis = SpectralBasis(eigenvalues=lam, eigenvectors=U, kind=kind)
    _validate(basis, L)

    if cache_dir is not None:
        _cache_store(cache_dir, L, kind, basis)
    return basis


def fourier(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform U^T x of a length-n signal."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != basis.n:
        raise ValueError(f"signal length {x.shape[0]} != basis size {basis.n}")
    return basis.eigenvectors.T @ x


def inverse_fourier(basis: SpectralBasis, x_ft: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform U x_ft."""
    x_ft = np.asarray(x_ft, dtype=np.float64)
    if x_ft.shape[0] != basis.n:
        raise ValueError(f"spectrum length {x_ft.shape[0]} != basis size {basis.n}")
    return basis.eigenvectors @ x_ft


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------

def _cache_key(L: np.ndarray, kind: LaplacianKind) -> str:
    from . import __version__   # the package's, looked up when the key is made
    h = hashlib.sha256()
    h.update(f"v{_CACHE_VERSION} {__version__} numpy {np.__version__}".encode())
    h.update(str(L.shape).encode())
    h.update(kind.value.encode())
    h.update(np.ascontiguousarray(L).tobytes())
    return h.hexdigest()[:32]


def _cache_load(cache_dir, L, kind):
    """The cached basis of L, or None. An entry that cannot be read as a
    float64 [lambda; U] array (never unpickled) or fails the basis invariants
    is removed; an entry another process removed first counts as a miss."""
    path = os.path.join(cache_dir, _cache_key(L, kind) + ".npy")
    n = L.shape[0]
    try:
        with open(path, "rb") as fh:
            entry = np.lib.format.read_array(fh, allow_pickle=False)
        if entry.dtype != np.float64 or entry.shape != (n + 1, n):
            raise ValueError(f"cache entry of {entry.dtype} {entry.shape}")
        basis = SpectralBasis(eigenvalues=entry[0], eigenvectors=entry[1:], kind=kind)
        _validate(basis, L)
        return basis
    except FileNotFoundError:
        return None
    except (ValueError, ArithmeticError):
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return None


def _cache_store(cache_dir, L, kind, basis) -> None:
    """Write the entry under a temporary name in the cache directory, then
    rename it into place, so no reader ever sees a half-written entry."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_key(L, kind) + ".npy")
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.vstack([basis.eigenvalues, basis.eigenvectors]), allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
