import numpy as np
import pytest

from specgconv.data import save_matrix_csv
from specgconv.filters import (
    AllPass,
    BandPass,
    CayleyBasis,
    ChebBasis,
    ExpLowPass,
    FAMILIES,
    HighPass,
    LowPass,
    OneMinusRatio,
    Tabulated,
    cayley_bmatrix,
    cayley_theta,
    coverage,
    design_bmatrix,
    evaluate,
    evaluate_on,
    format_design,
    gcn_cutoff,
    gcn_theoretical_profile,
    parse_design,
)
from specgconv.graphs import LaplacianKind, build_laplacian
from specgconv.spectral import decompose
from scaffold import random_graph

SYM = LaplacianKind.SYM_NORMALIZED


@pytest.fixture(scope="module")
def basis():
    g = random_graph(14, 0.35, seed=11)
    return decompose(build_laplacian(g, SYM), SYM)


def test_lowpass_zero_at_lambda_max(basis):
    vals = evaluate(LowPass(eta=1.0), basis)
    assert vals[-1] == 0.0
    assert vals[0] == pytest.approx(1.0, abs=1e-12)


def test_cheb2_printed_values():
    lam = np.array([0.0, 1.0, 2.0])
    assert np.allclose(evaluate_on(ChebBasis(k=2), lam, 2.0), [-1.0, 0.0, 1.0], atol=0)


def test_bandpass_peak_at_center(basis):
    lam = np.array([0.5 * basis.lambda_max])
    out = evaluate_on(BandPass(center=0.5, gamma=0.25), lam, basis.lambda_max)
    assert out[0] == 1.0


def test_chebyshev_recursion_matches_trigonometric_identity(basis):
    # independent oracle: T_{k-1}(2 lam/lam_max - 1) via cos((k-1) arccos x)
    x = 2.0 * basis.eigenvalues / basis.lambda_max - 1.0
    x = np.clip(x, -1.0, 1.0)
    for k in range(1, 9):
        oracle = np.cos((k - 1) * np.arccos(x))
        got = evaluate(ChebBasis(k=k), basis)
        assert np.max(np.abs(got - oracle)) < 1e-9, f"k={k}"


def test_all_designs_finite_on_spectrum(basis):
    designs = [
        LowPass(eta=5.0), HighPass(), BandPass(center=0.25, gamma=0.25),
        BandPass(center=0.75, gamma=4.0), AllPass(), ExpLowPass(tau=10.0),
        OneMinusRatio(), ChebBasis(k=5), CayleyBasis(s=4, h=1.0, r=3),
        Tabulated(values=np.linspace(-1, 1, basis.n)),
    ]
    for d in designs:
        assert np.all(np.isfinite(evaluate(d, basis))), d


def test_cayley_theta_special_values():
    assert cayley_theta(0.0) == pytest.approx(-np.pi, abs=1e-15)
    assert cayley_theta(1.0) == pytest.approx(-np.pi / 2, abs=1e-15)
    # large-argument limit approaches 0 from below like -2/x
    t = cayley_theta(1e9)
    assert -3e-9 < t < 0
    assert t == pytest.approx(-2e-9, rel=1e-3)
    assert -2 * np.pi < cayley_theta(-1e12) < 0


def test_cayley_bmatrix_first_column_and_width(basis):
    B = cayley_bmatrix(basis, h=1.0, r=3)
    assert B.shape == (basis.n, 7)
    assert np.allclose(B[:, 0], 1.0, atol=0)


def test_cayley_reassembly_matches_complex_form(basis):
    # oracle: direct complex evaluation of c0 + 2 Re(sum c_k ((h lam - i)/(h lam + i))^k)
    rng = np.random.default_rng(42)
    lam = basis.eigenvalues
    for _ in range(100):
        r = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 3.0))
        c0 = rng.standard_normal()
        a = rng.standard_normal(r)
        b = rng.standard_normal(r)
        ratio = (h * lam - 1j) / (h * lam + 1j)
        acc = np.zeros(lam.shape[0], dtype=complex)
        for k in range(1, r + 1):
            ck = (a[k - 1] + 1j * b[k - 1]) / 2.0
            acc += ck * ratio**k
        oracle = c0 + 2.0 * np.real(acc)

        B = cayley_bmatrix(basis, h=h, r=r)
        coeffs = np.empty(2 * r + 1)
        coeffs[0] = c0
        coeffs[1::2] = a
        coeffs[2::2] = b
        assert np.max(np.abs(B @ coeffs - oracle)) < 1e-10


def test_gcn_profile_and_cutoff():
    assert gcn_theoretical_profile(2.0, np.array([1.5]))[0] == pytest.approx(0.0, abs=1e-15)
    assert gcn_cutoff(2.0) == pytest.approx(1.5, abs=1e-15)
    assert gcn_cutoff(2.77) == pytest.approx(1.361, abs=5e-4)
    assert gcn_theoretical_profile(7.3, np.array([0.0]))[0] == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        LowPass(eta=0.0)
    with pytest.raises(ValueError):
        BandPass(center=1.5, gamma=1.0)
    with pytest.raises(ValueError):
        BandPass(center=0.5, gamma=-1.0)
    with pytest.raises(ValueError):
        ExpLowPass(tau=0.0)
    with pytest.raises(ValueError):
        ChebBasis(k=0)
    with pytest.raises(ValueError):
        CayleyBasis(s=8, h=1.0, r=3)


def test_ratio_designs_reject_zero_lambda_max():
    lam = np.zeros(3)
    for d in (LowPass(eta=1.0), HighPass(), OneMinusRatio(), ChebBasis(k=2),
              BandPass(center=0.5, gamma=1.0)):
        with pytest.raises(ValueError, match="lambda_max"):
            evaluate_on(d, lam, 0.0)


def test_tabulated_length_checked(basis):
    with pytest.raises(ValueError, match="tabulated"):
        evaluate(Tabulated(values=np.ones(basis.n + 1)), basis)


def test_parse_format_roundtrip():
    texts = [
        "lowpass(eta=5)", "highpass", "bandpass(c=0.5,gamma=0.25)", "allpass",
        "explowpass(tau=10)", "oneminus", "cheb(k=3)", "cayley(s=4,h=1,r=3)",
    ]
    for t in texts:
        d = parse_design(t)
        assert parse_design(format_design(d)) == d
    # a family added without a text form fails here
    assert {type(parse_design(t)) for t in texts} == set(FAMILIES.values()) - {Tabulated}


def test_parse_design_errors():
    with pytest.raises(ValueError, match="unknown filter design"):
        parse_design("boxcar")
    with pytest.raises(ValueError, match="missing argument"):
        parse_design("lowpass")
    with pytest.raises(ValueError, match="unknown arguments"):
        parse_design("highpass(eta=2)")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_design("low pass(eta")


@pytest.mark.parametrize("text,message", [
    ("lowpass(eta=5,eta=3)", "design 'lowpass' repeats argument 'eta'"),
    ("bandpass(c=0.5,gamma=1,c=0.2)", "design 'bandpass' repeats argument 'c'"),
    ("cheb(k=1.5)", "design 'cheb' argument 'k': invalid literal for int() with base 10: '1.5'"),
    ("lowpass(eta=fast)", "design 'lowpass' argument 'eta': could not convert string to float"),
])
def test_parse_design_refuses_a_repeated_or_unreadable_argument(text, message):
    """Each argument is given once, so none silently overrides another, and
    a value that does not convert is named with its design and argument."""
    with pytest.raises(ValueError) as info:
        parse_design(text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text", [
    "lowpass(eta=nan)", "lowpass(eta=inf)", "bandpass(c=0.5,gamma=nan)",
    "explowpass(tau=nan)", "cayley(s=2,h=nan,r=1)",
])
def test_non_finite_parameters_rejected(text):
    # every `x <= 0` domain check is false for nan, so finiteness is its own check
    with pytest.raises(ValueError, match="must be finite") as info:
        parse_design(text)
    assert text in str(info.value)


def test_parse_tabulated_file(tmp_path, basis):
    vals = np.linspace(0, 1, basis.n)
    save_matrix_csv(tmp_path / "resp.csv", vals[:, None])
    d = parse_design("tabulated(file=resp.csv)", base_dir=tmp_path)
    assert np.array_equal(evaluate(d, basis), vals)


def test_tabulated_file_with_two_columns_is_refused(tmp_path, basis):
    # n/2 rows of two values must not be read as n values
    save_matrix_csv(tmp_path / "resp.csv", np.linspace(0, 1, basis.n).reshape(-1, 2))
    with pytest.raises(ValueError, match=r"resp\.csv has 2 columns"):
        parse_design("tabulated(file=resp.csv)", base_dir=tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tabulated_non_finite_value_is_refused(tmp_path, basis, bad):
    vals = np.linspace(0, 1, basis.n)
    vals[3] = bad
    with pytest.raises(ValueError, match=r"^design tabulated\(n=\d+\): entry 3 is .*not finite$"):
        Tabulated(values=vals)
    save_matrix_csv(tmp_path / "resp.csv", vals[:, None])
    with pytest.raises(ValueError, match=r"^tabulated response file .*resp\.csv: .*entry 3"):
        parse_design("tabulated(file=resp.csv)", base_dir=tmp_path)


def test_coverage_diagnostic(basis):
    # full design set from the transductive experiments covers the spectrum
    full = [LowPass(eta=5.0), BandPass(center=0.25, gamma=0.25),
            BandPass(center=0.5, gamma=0.25), BandPass(center=0.75, gamma=0.25)]
    assert coverage(full, basis) > 0.01
    # one narrow band leaves most of the spectrum uncovered
    assert coverage([BandPass(center=0.5, gamma=500.0)], basis) < 0.01
    # tabulated designs are interpolated onto the grid
    assert coverage([Tabulated(values=np.full(basis.n, 0.5))], basis) == pytest.approx(0.5)


def test_chebyshev_index_is_bounded_by_the_node_count(basis):
    # by Cayley-Hamilton, orders above n add nothing; check_graph refuses them,
    # while evaluate still gives the (redundant) response on a small graph
    ChebBasis(k=basis.n).check_graph(basis.n)
    with pytest.raises(ValueError, match=r"design cheb\(k=15\): Chebyshev index above the node count 14"):
        ChebBasis(k=basis.n + 1).check_graph(basis.n)
    AllPass().check_graph(1)
    B = design_bmatrix(basis, [ChebBasis(k=k) for k in range(1, basis.n + 3)])
    assert np.linalg.matrix_rank(B) == basis.n


def test_tabulated_design_fits_graphs_of_its_length_only(basis):
    """A tabulated design holds one value per eigenvalue of one graph:
    check_graph refuses any other node count, and coverage, like every
    evaluation, refuses it on a basis of another size, naming both counts."""
    Tabulated(values=np.ones(basis.n)).check_graph(basis.n)
    short = Tabulated(values=np.ones(4))
    for n in (3, basis.n):
        with pytest.raises(ValueError, match=rf"^design tabulated\(n=4\): 4 values for a graph "
                                             rf"of {n} nodes$"):
            short.check_graph(n)
    with pytest.raises(ValueError, match=f"tabulated design has 4 values for {basis.n} eigenvalues"):
        coverage([AllPass(), short], basis)


def test_design_bmatrix_columns(basis):
    designs = [AllPass(), HighPass()]
    B = design_bmatrix(basis, designs)
    assert B.shape == (basis.n, 2) and B.dtype == np.float64
    assert np.array_equal(B[:, 1], evaluate(HighPass(), basis))
    assert not B.flags.writeable
    # a B matrix has at least one column
    with pytest.raises(ValueError):
        design_bmatrix(basis, [])
