import os
import pickle
import tracemalloc

import numpy as np
import pytest

from specgconv import spectral
from specgconv.graphs import LaplacianKind, build_laplacian, make_ring
from specgconv.spectral import (
    SpectralBasis, _apply_sign_rule, _asymmetry, _validate, decompose, fourier, inverse_fourier,
)
from scaffold import random_graph

SYM = LaplacianKind.SYM_NORMALIZED
COMB = LaplacianKind.COMBINATORIAL


def ring_basis(n, kind=SYM):
    g = make_ring(n)
    return decompose(build_laplacian(g, kind), kind)


def test_edgeless_graph_zero_laplacian():
    basis = decompose(np.zeros((5, 5)), COMB)
    assert np.allclose(basis.eigenvalues, 0.0, atol=0)
    assert np.allclose(basis.eigenvectors.T @ basis.eigenvectors, np.eye(5), atol=1e-12)
    # sign rule: the dominant entry of each column is nonnegative
    pivot = np.argmax(np.abs(basis.eigenvectors), axis=0)
    assert np.all(basis.eigenvectors[pivot, np.arange(5)] >= 0)


def test_two_node_hand_eigendecomposition():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    basis = decompose(L, COMB)
    assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
    s = 1 / np.sqrt(2)
    assert np.allclose(basis.eigenvectors[:, 0], [s, s], atol=1e-12)
    assert np.allclose(basis.eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_ring_1001_lambda_max_near_two():
    basis = ring_basis(1001)
    # exact value for an odd cycle is 1 + cos(pi/n); "2" only approximately
    assert basis.lambda_max == pytest.approx(1 + np.cos(np.pi / 1001), abs=1e-10)
    assert abs(basis.lambda_max - 2.0) < 1e-5


def test_orthonormality_and_reconstruction():
    g = random_graph(30, 0.2, seed=1)
    L = build_laplacian(g, SYM)
    basis = decompose(L, SYM)
    n = g.n
    assert np.max(np.abs(basis.eigenvectors.T @ basis.eigenvectors - np.eye(n))) < 1e-8
    recon = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
    assert np.max(np.abs(recon - L)) < 1e-8
    assert -1e-8 <= basis.eigenvalues[0] <= 1e-8
    assert basis.lambda_max <= 2 + 1e-8


def test_fourier_unit_vector_and_zero():
    basis = ring_basis(8)
    for s in (0, 3, 7):
        spectrum = fourier(basis, basis.eigenvectors[:, s])
        e = np.zeros(8)
        e[s] = 1.0
        assert np.allclose(spectrum, e, atol=1e-12)
    assert np.allclose(fourier(basis, np.zeros(8)), 0.0, atol=0)


def test_fourier_roundtrip_and_parseval():
    basis = ring_basis(16)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(16)
        back = inverse_fourier(basis, fourier(basis, x))
        assert np.max(np.abs(back - x)) < 1e-10
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(fourier(basis, x)), abs=1e-10)


def test_fourier_length_mismatch():
    basis = ring_basis(8)
    with pytest.raises(ValueError):
        fourier(basis, np.zeros(9))
    with pytest.raises(ValueError):
        inverse_fourier(basis, np.zeros(7))


def test_repeatability_bit_identical():
    g = random_graph(20, 0.3, seed=5)
    L = build_laplacian(g, SYM)
    a = decompose(L, SYM)
    b = decompose(L, SYM)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigenvectors_are_column_major_fresh_and_cached(tmp_path):
    """Each eigenvector is contiguous in memory, whether decomposed or read
    from the cache: the BLAS products that read U take their last bits from
    its layout."""
    L = build_laplacian(random_graph(20, 0.3, seed=5), SYM)
    fresh = decompose(L, SYM, cache_dir=tmp_path)
    hit = decompose(L, SYM, cache_dir=tmp_path)
    assert fresh.eigenvectors.flags.f_contiguous
    assert hit.eigenvectors.strides[0] == fresh.eigenvectors.itemsize


def test_sign_rule_flips_in_place_as_the_copying_rule_did():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((30, 30))
    U[:, 3] = -np.abs(U[:, 3])
    U[0, 5], U[1, 5] = -9.0, 9.0   # a tie: the smallest index is the pivot, so it flips
    U[2, 7], U[4, 7] = 9.0, -9.0    # and here it does not
    want = U.copy()
    pivot = np.argmax(np.abs(want), axis=0)
    flip = want[pivot, np.arange(30)] < 0
    assert flip[3] and flip[5] and not flip[7]
    want[:, flip] *= -1.0
    got = _apply_sign_rule(U)
    assert got is U
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_non_symmetric_rejected():
    L = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        decompose(L, COMB)
    with pytest.raises(ValueError, match=r"^Laplacian must be square, got shape \(2, 3\)$"):
        decompose(np.zeros((2, 3)), COMB)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_laplacian_is_refused_by_the_symmetry_check(bad, where):
    """A NaN would pass a tolerance comparison and an infinity would read as
    asymmetry; either is refused as what it is, before eigh."""
    L = build_laplacian(make_ring(6), SYM)
    L[where] = bad
    with pytest.raises(ValueError, match="^Laplacian has an entry that is not finite$"):
        decompose(L, SYM)


@pytest.mark.parametrize("n", [0, 1, 7, 50])
def test_asymmetry_is_the_plain_maximum(n, monkeypatch):
    """Formed in row blocks (here of 3 rows, the last one ragged), the
    maximum is that of |M - M^T|, bit for bit, on C- and F-ordered input."""
    monkeypatch.setattr(spectral, "_ASYM_BYTES", 8 * n * 3)
    M = np.random.default_rng(n).standard_normal((n, n))
    M = M + M.T + 1e-9 * np.random.default_rng(n + 1).standard_normal((n, n))
    for m in (M, np.asfortranarray(M)):
        assert _asymmetry(m, "M") == np.max(np.abs(m - m.T), initial=0.0)


@pytest.mark.parametrize("perturb", ["eigenvectors", "eigenvalues"])
def test_validate_verdicts_turn_at_the_plain_residuals(perturb, monkeypatch):
    """Each residual, formed in place in its product, has the maximum of the
    plain expression bit for bit: the check passes at a tolerance equal to
    that maximum and fails at the next float below it."""
    L = build_laplacian(random_graph(40, 0.2, seed=5), COMB)
    basis = decompose(L, COMB)
    U, lam = basis.eigenvectors.copy(), basis.eigenvalues.copy()
    if perturb == "eigenvectors":
        U[:, 0] *= 1 + 1e-6     # lambda_1 = 0: L is still reconstructed
    else:
        lam[3] += 1e-6
    gram = np.max(np.abs(U.T @ U - np.eye(40)))
    recon = np.max(np.abs((U * lam) @ U.T - L))
    worst, message = ((gram, "orthonormal") if perturb == "eigenvectors" else
                      (recon, "reconstruct"))
    assert worst == max(gram, recon) > 1e-12
    bad = SpectralBasis(eigenvalues=lam, eigenvectors=U, kind=COMB)
    monkeypatch.setattr(spectral, "ORTHO_TOL", worst)
    _validate(bad, L)
    monkeypatch.setattr(spectral, "ORTHO_TOL", np.nextafter(worst, 0.0))
    with pytest.raises(ArithmeticError, match=message):
        _validate(bad, L)


def test_decompose_allocates_its_outputs_and_two_n_by_n_temporaries():
    """decompose at n = 500 allocates at most its outputs, U diag(lambda) and
    the product of the reconstruction check (one GEMM, so that its residual
    keeps its bits), plus 2 % of an n x n array for small arrays. The
    symmetry check, the symmetrized copy of an exactly symmetric L, and the
    residuals' identity, difference and absolute value take no n x n array."""
    n = 500
    L = build_laplacian(random_graph(n, 0.02, seed=3), SYM)
    tracemalloc.start()
    try:
        basis = decompose(L, SYM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = basis.eigenvectors.nbytes + basis.eigenvalues.nbytes
    assert peak <= outputs + 2.02 * 8 * n * n


def _entry_path(cache_dir, L, kind=SYM):
    from specgconv.spectral import _cache_key

    return os.path.join(str(cache_dir), _cache_key(L, kind) + ".npy")


def _save_entry(path, entry, allow_pickle=False):
    with open(path, "wb") as fh:
        np.save(fh, entry, allow_pickle=allow_pickle)


def test_cache_roundtrip_and_corruption(tmp_path):
    g = random_graph(12, 0.4, seed=2)
    L = build_laplacian(g, SYM)
    fresh = decompose(L, SYM, cache_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [os.path.basename(_entry_path(tmp_path, L))]
    hit = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(hit.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(hit.eigenvectors, fresh.eigenvectors)

    # corrupt the eigenvectors: the hit must be discarded and recomputed
    path = _entry_path(tmp_path, L)
    entry = np.load(path, allow_pickle=False)
    entry[1] = 1.0
    _save_entry(path, entry)
    again = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)


@pytest.mark.parametrize("kind", [SYM, COMB])
@pytest.mark.parametrize("where", ["eigenvector", "interior_eigenvalue"])
def test_cache_entry_holding_nan_is_discarded_and_recomputed(tmp_path, kind, where):
    """A NaN compares False with every bound, so each basis check is written
    to fail on it: an entry with one NaN in U, or in an interior lambda,
    never reaches a caller."""
    L = build_laplacian(random_graph(12, 0.4, seed=2), kind)
    fresh = decompose(L, kind, cache_dir=tmp_path)
    path = _entry_path(tmp_path, L, kind)
    with open(path, "rb") as fh:
        whole = fh.read()
    entry = np.load(path, allow_pickle=False)
    if where == "eigenvector":
        entry[1 + 4, 5] = np.nan
    else:
        entry[0, 5] = np.nan
    _save_entry(path, entry)
    again = decompose(L, kind, cache_dir=tmp_path)
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)
    with open(path, "rb") as fh:
        assert fh.read() == whole


def _eigh_in_reverse(monkeypatch):
    """Make np.linalg.eigh return its eigenpairs in descending order."""
    eigh = np.linalg.eigh

    def reverse(M):
        lam, U = eigh(M)
        return lam[::-1].copy(), U[:, ::-1].copy()

    monkeypatch.setattr(np.linalg, "eigh", reverse)


@pytest.mark.parametrize("kind", [SYM, COMB])
def test_eigenpairs_out_of_order_are_refused(kind, monkeypatch):
    """decompose takes eigh's ascending order as it comes; pairs in any
    other order fail the basis checks rather than being sorted."""
    L = build_laplacian(random_graph(12, 0.4, seed=2), kind)
    _eigh_in_reverse(monkeypatch)
    with pytest.raises(ArithmeticError, match="eigenvalues are not sorted ascending"):
        decompose(L, kind)


def test_truncated_cache_entry_is_recomputed_and_rewritten(tmp_path):
    L = build_laplacian(random_graph(15, 0.4, seed=4), SYM)
    fresh = decompose(L, SYM, cache_dir=tmp_path)
    path = _entry_path(tmp_path, L)
    with open(path, "rb") as fh:
        whole = fh.read()
    with open(path, "wb") as fh:
        fh.write(whole[: len(whole) // 2])   # a writer cut off mid-array
    again = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)
    with open(path, "rb") as fh:
        assert fh.read() == whole
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]


class _MakesDirectoryWhenUnpickled:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.makedirs, (self.path,))


@pytest.mark.parametrize("bad", ["pickle", "object_array", "zip_prefix", "garbage",
                                 "empty", "lambda_missing", "float32"])
def test_unreadable_cache_entry_is_discarded_never_unpickled(tmp_path, bad):
    L = build_laplacian(random_graph(9, 0.5, seed=7), SYM)
    cache = tmp_path / "cache"
    fresh = decompose(L, SYM, cache_dir=cache)
    path = _entry_path(cache, L)
    with open(path, "rb") as fh:
        whole = fh.read()
    marker = str(tmp_path / "unpickled")
    payload = _MakesDirectoryWhenUnpickled(marker)
    entry = np.load(path, allow_pickle=False)
    if bad == "pickle":
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
    elif bad == "object_array":
        _save_entry(path, np.array([payload], dtype=object), allow_pickle=True)
    elif bad == "lambda_missing":
        _save_entry(path, entry[1:])
    elif bad == "float32":
        _save_entry(path, entry.astype(np.float32))
    else:
        with open(path, "wb") as fh:
            fh.write({"zip_prefix": b"PK\x03\x04" + bytes(64), "garbage": b"not an array\n",
                      "empty": b""}[bad])
    again = decompose(L, SYM, cache_dir=cache)
    assert not os.path.exists(marker)
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)
    with open(path, "rb") as fh:
        assert fh.read() == whole


@pytest.mark.parametrize("module,name,value", [
    ("specgconv.spectral", "_CACHE_VERSION", 99),
    ("numpy", "__version__", "0.0.1"),
    ("specgconv", "__version__", "0.0.1"),
], ids=["_CACHE_VERSION", "numpy.__version__", "specgconv.__version__"])
def test_cache_key_changes_with_cache_version(tmp_path, monkeypatch, module, name, value):
    """An entry written under another cache version, numpy or specgconv
    release is never read."""
    import importlib

    L = build_laplacian(random_graph(8, 0.5, seed=8), SYM)
    decompose(L, SYM, cache_dir=tmp_path)
    old = _entry_path(tmp_path, L)
    monkeypatch.setattr(importlib.import_module(module), name, value)
    new = _entry_path(tmp_path, L)
    assert new != old
    # an entry written under another version is never read: this is a miss
    decompose(L, SYM, cache_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        os.path.basename(p) for p in (old, new))


def test_discarding_entry_tolerates_file_already_removed(tmp_path, monkeypatch):
    from specgconv import spectral

    L = build_laplacian(random_graph(10, 0.5, seed=5), SYM)
    decompose(L, SYM, cache_dir=tmp_path)
    path = _entry_path(tmp_path, L)
    entry = np.load(path, allow_pickle=False)
    entry[0] = -entry[0]   # eigenvalues out of order: the entry fails validation
    _save_entry(path, entry)
    real_read = np.lib.format.read_array

    def read_then_lose(fh, **kwargs):
        read = real_read(fh, **kwargs)
        os.remove(path)   # another process discards the same entry first
        return read

    monkeypatch.setattr(np.lib.format, "read_array", read_then_lose)
    assert spectral._cache_load(str(tmp_path), L, SYM) is None
    assert not os.path.exists(path)


def test_interrupted_store_leaves_no_file_under_final_name(tmp_path, monkeypatch):
    L = build_laplacian(random_graph(10, 0.5, seed=6), SYM)

    def write_half_then_fail(fh, m, **kwargs):
        fh.write(b"\x93NUMPY\x01\x00")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        decompose(L, SYM, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
