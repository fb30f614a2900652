import os

import numpy as np
import pytest

from specgconv.graphs import LaplacianKind, build_laplacian, make_ring, random_graph
from specgconv.spectral import decompose, fourier, inverse_fourier

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


def test_non_symmetric_rejected():
    L = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        decompose(L, COMB)


def test_cache_roundtrip_and_corruption(tmp_path):
    g = random_graph(12, 0.4, seed=2)
    L = build_laplacian(g, SYM)
    fresh = decompose(L, SYM, cache_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 2
    hit = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(hit.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(hit.eigenvectors, fresh.eigenvectors)

    # corrupt the eigenvector file: the hit must be discarded and recomputed
    u_file = next(p for p in tmp_path.iterdir() if p.name.endswith(".U.csv"))
    lines = u_file.read_text().splitlines()
    lines[1] = ",".join(["1.0"] * len(lines[1].split(",")))
    u_file.write_text("\n".join(lines) + "\n")
    again = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)


def _cache_files(cache_dir, L):
    from specgconv.spectral import _cache_key, _cache_paths

    return _cache_paths(str(cache_dir), _cache_key(L, SYM))


def test_truncated_cache_entry_is_recomputed_and_rewritten(tmp_path):
    L = build_laplacian(random_graph(15, 0.4, seed=4), SYM)
    fresh = decompose(L, SYM, cache_dir=tmp_path)
    _, u_path = _cache_files(tmp_path, L)
    with open(u_path, "r", encoding="utf-8") as fh:
        whole = fh.read()
    with open(u_path, "w", encoding="utf-8") as fh:
        fh.write(whole[: len(whole) // 2])   # a writer cut off mid-row
    again = decompose(L, SYM, cache_dir=tmp_path)
    assert np.array_equal(again.eigenvectors, fresh.eigenvectors)
    with open(u_path, "r", encoding="utf-8") as fh:
        assert fh.read() == whole
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        os.path.basename(p) for p in _cache_files(tmp_path, L))


def test_discarding_entry_tolerates_file_already_removed(tmp_path, monkeypatch):
    from specgconv import spectral

    L = build_laplacian(random_graph(10, 0.5, seed=5), SYM)
    decompose(L, SYM, cache_dir=tmp_path)
    lam_path, u_path = _cache_files(tmp_path, L)
    with open(u_path, "a", encoding="utf-8") as fh:
        fh.write("not,a,number\n")
    real_load = spectral.load_matrix_csv

    def lose_lambda_then_load(path):
        if path == u_path:
            os.remove(lam_path)   # another process discards the same entry first
        return real_load(path)

    monkeypatch.setattr(spectral, "load_matrix_csv", lose_lambda_then_load)
    assert spectral._cache_load(str(tmp_path), L, SYM) is None
    assert not os.path.exists(u_path) and not os.path.exists(lam_path)


def test_interrupted_store_leaves_no_file_under_final_name(tmp_path, monkeypatch):
    from specgconv import spectral

    L = build_laplacian(random_graph(10, 0.5, seed=6), SYM)

    def write_half_then_fail(path, m):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("c0,c1\n0.5,")
        raise OSError("disk full")

    monkeypatch.setattr(spectral, "save_matrix_csv", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        decompose(L, SYM, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
