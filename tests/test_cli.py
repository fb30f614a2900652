import gc
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from specgconv.analysis import load_profile_csv
from specgconv import _blas, cli, nn
from specgconv.cli import main
from specgconv.filters import ChebBasis, evaluate
from specgconv.graphs import LaplacianKind, build_laplacian, make_ring
from specgconv.spectral import decompose


def write_toy_dataset(root, n=24, seed=0):
    rng = np.random.default_rng(seed)
    root.mkdir(exist_ok=True)
    feats = rng.standard_normal((n, 3))
    labels = (feats[:, 0] > 0).astype(int)
    feats[:, 0] += np.where(labels, 0.6, -0.6)
    with open(root / "edges.csv", "w") as fh:
        fh.write("src,dst\n")
        for i in range(n):
            fh.write(f"{i},{(i + 1) % n}\n")
    with open(root / "features.csv", "w") as fh:
        fh.write("c0,c1,c2\n")
        for row in feats:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    (root / "labels.csv").write_text("label\n" + "\n".join(map(str, labels)) + "\n")
    with open(root / "split.csv", "w") as fh:
        fh.write("node,role\n")
        for i in range(n):
            role = "train" if i % 2 == 0 else ("val" if i % 4 == 1 else "test")
            fh.write(f"{i},{role}\n")


def write_toy_config(tmp_path, **overrides):
    write_toy_dataset(tmp_path / "toyds")
    cfg = {
        "dataset": {"path": "toyds", "kind": "single"},
        "laplacian": "sym",
        "designs": ["lowpass(eta=3)", "highpass", "allpass"],
        "architecture": "DSG8-DSG2",
        "train": {"learning_rate": 0.02, "epochs": 12, "seed": 1},
        "output_dir": "run",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("kernel", ["design:allpass", "gcn"])
def test_analyze_comb_on_an_edgeless_graph_writes_no_cutoff(tmp_path, kernel):
    d = tmp_path / "edgeless"
    d.mkdir()
    (d / "edges.csv").write_text("src,dst\n")
    (d / "features.csv").write_text("c0\n1\n2\n3\n")
    (d / "labels.csv").write_text("label\n0\n1\n0\n")
    (d / "split.csv").write_text("node,role\n0,train\n")
    out = tmp_path / "a"
    assert main(["analyze", "--graph", str(d), "--laplacian", "comb", "--kernel", kernel,
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["average_degree"] == 0.0 and summary["gcn_cutoff_predicted"] is None
    lam, std = load_profile_csv(out / "standard_1.csv")
    assert np.array_equal(lam, np.zeros(3)) and np.allclose(std, 1.0)


def test_analyze_ring1001_gcn_cutoff(tmp_path):
    out = tmp_path / "a"
    assert main(["analyze", "--graph", "ring1001", "--kernel", "gcn",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["gcn_cutoff_predicted"] - 1.5) < 1e-6
    assert summary["n"] == 1001
    lam, std = load_profile_csv(out / "standard_1.csv")
    assert lam.shape == (1001,)


def test_analyze_cheb_profiles_match_recursion(tmp_path):
    out = tmp_path / "c"
    assert main(["analyze", "--graph", "ring32", "--kernel", "cheb:3",
                 "--out", str(out)]) == 0
    kind = LaplacianKind.SYM_NORMALIZED
    basis = decompose(build_laplacian(make_ring(32), kind), kind)
    for k in (1, 2, 3):
        lam, std = load_profile_csv(out / f"standard_{k}.csv")
        assert np.max(np.abs(std - evaluate(ChebBasis(k=k), basis))) < 1e-9


def test_analyze_design_allpass_constant(tmp_path):
    out = tmp_path / "d"
    assert main(["analyze", "--graph", "ring16", "--kernel", "design:allpass",
                 "--out", str(out)]) == 0
    _, std = load_profile_csv(out / "standard_1.csv")
    assert np.max(np.abs(std - 1.0)) < 1e-10


def test_analyze_abs_flag(tmp_path):
    out = tmp_path / "e"
    assert main(["analyze", "--graph", "ring16", "--kernel", "design:cheb(k=2)",
                 "--abs", "--out", str(out)]) == 0
    _, std = load_profile_csv(out / "standard_1.csv")
    assert np.min(std) >= 0.0


def test_analyze_exports_kernel_matrices(tmp_path):
    from specgconv.data import load_matrix_csv
    from specgconv.kernels import gcn_kernel

    out = tmp_path / "k"
    assert main(["analyze", "--graph", "ring8", "--kernel", "gcn",
                 "--export-kernels", "--out", str(out)]) == 0
    C = load_matrix_csv(out / "kernel_1.csv")
    assert np.array_equal(C, gcn_kernel(make_ring(8)))


def test_analyze_gat_stats(tmp_path):
    out = tmp_path / "g"
    assert main(["analyze", "--graph", "ring12", "--kernel", "gat:5",
                 "--trials", "4", "--out", str(out)]) == 0
    for name in ("gat_mean_standard.csv", "gat_std_standard.csv",
                 "gat_mean_full.csv", "gat_std_full.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("trials", ["1", "2"])
@pytest.mark.parametrize("kernel", ["gat", "gat:", "gatfoo", "gat:x", "gat:5:1"])
def test_analyze_gat_without_integer_seed_is_config_error(tmp_path, capsys, kernel, trials):
    out = tmp_path / "g"
    assert main(["analyze", "--graph", "ring12", "--kernel", kernel, "--trials", trials,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("**/gat_*.csv"))


@pytest.mark.parametrize("kernel,message", [
    ("foo", "unknown kernel spec 'foo'"),
    ("gcn:1", "unknown kernel spec 'gcn:1'"),
    ("cheb:x", "cheb kernel needs an integer order, cheb:<k>; got 'cheb:x'"),
    ("cheb:0", "cheb kernel needs an order of at least 1; got 'cheb:0'"),
    ("gat:-1", "gat kernel needs a non-negative seed, gat:<seed>; got 'gat:-1'"),
    ("cayley:1", "cayley kernel needs a scale and an integer order, cayley:<h>:<r>; "
                 "got 'cayley:1'"),
    ("cayley:1:0", "cayley kernel needs an order of at least 1; got 'cayley:1:0'"),
    ("cayley:0:1", "Cayley scale must be positive, got 0.0"),
    ("design:", "design: needs at least one filter expression"),
    ("design:lowpass(eta=5);bogus", "unknown filter design 'bogus'"),
])
def test_analyze_bad_kernel_spec_is_refused_before_any_decomposition(tmp_path, capsys,
                                                                     monkeypatch, kernel,
                                                                     message):
    """The spec's grammar is parsed before the eigendecomposition and before
    --out is made, so a bad spec costs nothing and leaves no directory."""
    def no_decompose(*args, **kwargs):
        raise AssertionError("decomposed before the kernel spec was parsed")

    monkeypatch.setattr(cli, "decompose", no_decompose)
    out = tmp_path / "a"
    assert main(["analyze", "--graph", "ring12", "--kernel", kernel, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_analyze_failed_eigendecomposition_is_a_numerical_failure(tmp_path, capsys,
                                                                   monkeypatch):
    """LinAlgError is a ValueError, yet it exits 3 as a numerical failure,
    not 2 as a config error, with one line."""
    def failed_decompose(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "decompose", failed_decompose)
    argv = ["analyze", "--graph", "ring8", "--kernel", "gcn", "--out", str(tmp_path / "a")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_analyze_out_that_cannot_be_a_directory_is_refused_before_any_decomposition(
        tmp_path, capsys, monkeypatch, under_file):
    """An --out path that is a file, or lies under one, exits 2 with one line
    before the graph is decomposed."""
    def no_decompose(*args, **kwargs):
        raise AssertionError("decomposed before --out was checked")

    monkeypatch.setattr(cli, "decompose", no_decompose)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "a" if under_file else blocker
    assert main(["analyze", "--graph", "ring12", "--kernel", "gcn", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {str(out)!r}: {str(blocker)!r} exists and is not a directory\n"


def test_analyze_makes_a_relative_out_only_after_the_decomposition(tmp_path, monkeypatch):
    """A relative --out is checked from the working directory, and made only
    once the decomposition has succeeded, so a failed one leaves none."""
    def failed_decompose(*args, **kwargs):
        raise FloatingPointError("decomposition failed")

    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "--graph", "ring8", "--kernel", "gcn", "--out", "new/sub"]
    with monkeypatch.context() as m:
        m.setattr(cli, "decompose", failed_decompose)
        assert main(argv) == 3
    assert not (tmp_path / "new").exists()
    assert main(argv) == 0
    assert (tmp_path / "new" / "sub" / "summary.json").exists()


def test_analyze_graph_spec_is_a_ring_only_when_it_is_ring_and_digits(tmp_path, capsys,
                                                                     monkeypatch):
    """A dataset directory whose path starts with "ring" is read as one; a
    spec of "ring" and anything but digits is neither a ring nor a directory."""
    (tmp_path / "rings").mkdir()
    write_toy_dataset(tmp_path / "rings" / "cora")
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--graph", "rings/cora", "--kernel", "gcn", "--out", "a"]) == 0
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["n"] == 24
    for spec in ("ring", "ring-5", "ring 12", "ringx"):
        assert main(["analyze", "--graph", spec, "--kernel", "gcn", "--out", "b"]) == 2
        assert capsys.readouterr().err == (f"config error: graph {spec!r} is neither "
                                           "ring<N> nor a dataset directory\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("kernel", ["gcn", "cheb:3", "design:allpass", "cayley:1:1"])
def test_analyze_trials_above_one_needs_a_gat_kernel(tmp_path, capsys, kernel):
    out = tmp_path / "a"
    assert main(["analyze", "--graph", "ring12", "--kernel", kernel, "--trials", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: --trials applies to gat:<seed> kernels "
                                       f"only; got --trials 5 with --kernel {kernel}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--abs", "--export-kernels"])
def test_analyze_trials_above_one_refuses_single_kernel_flags(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "decompose", lambda *a, **k: pytest.fail("decomposed"))
    out = tmp_path / "a"
    assert main(["analyze", "--graph", "ring12", "--kernel", "gat:5", "--trials", "3", flag,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: {flag} applies to single-kernel "
                                       "profiles only; got it with --trials 3\n")
    assert not out.exists()


def test_analyze_on_dataset_directory(tmp_path):
    write_toy_dataset(tmp_path / "toyds")
    out = tmp_path / "o"
    assert main(["analyze", "--graph", str(tmp_path / "toyds"), "--kernel", "gcn",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 24
    assert summary["average_degree"] == 2.0


def test_analyze_unknown_graph_is_config_error(tmp_path):
    assert main(["analyze", "--graph", str(tmp_path / "nope"), "--kernel", "gcn",
                 "--out", str(tmp_path / "x")]) == 2


def test_analyze_non_finite_design_is_config_error(tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["analyze", "--graph", "ring16", "--kernel", "design:lowpass(eta=nan)",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lowpass(eta=nan)" in err and len(err.strip().splitlines()) == 1
    assert not (out / "standard_1.csv").exists()


@pytest.mark.parametrize("kernel,k", [("cheb:17", 17), ("cheb:40", 40),
                                      ("design:cheb(k=17)", 17),
                                      ("design:tabulated(file=vals.csv)", None)])
def test_analyze_chebyshev_order_above_node_count_is_config_error(
        tmp_path, capsys, monkeypatch, kernel, k):
    """A kernel that does not fit the graph, a Chebyshev order k above its
    node count or a tabulated file of another length, is refused on one line
    before the decomposition and before --out is made."""
    decomposed = []
    monkeypatch.setattr(cli, "decompose", lambda *a, **kw: decomposed.append(1))
    monkeypatch.chdir(tmp_path)   # a tabulated file is read from the working directory
    (tmp_path / "vals.csv").write_text("value\n1\n0.5\n0.25\n0\n")
    out = tmp_path / "c"
    assert main(["analyze", "--graph", "ring16", "--kernel", kernel, "--out", str(out)]) == 2
    message = ("design tabulated(n=4): 4 values for a graph of 16 nodes" if k is None else
               f"design cheb(k={k}): Chebyshev index above the node count 16")
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
    assert decomposed == []


@pytest.mark.parametrize("name,text,message", [
    ("labels.csv", "label\n" + "0\n" * 23 + "inf\n",
     "labels.csv line 25: expected an integer, got 'inf'"),
    ("edges.csv", "src,dst,weight\n0,1,1\n1,2,inf\n",
     "{dir}: edge 1 (1, 2): weight inf; edge weights must be finite and nonnegative"),
    ("features.csv", "c0\n" + "1\n" * 23 + "-inf\n",
     "{dir}: feature entries must be finite; node 23 has one that is not"),
    ("features.csv", "", "{dir}/features.csv: empty CSV"),
])
def test_analyze_non_finite_dataset_cell_is_config_error(tmp_path, capsys, name, text, message):
    write_toy_dataset(tmp_path / "toyds")
    (tmp_path / "toyds" / name).write_text(text)
    assert main(["analyze", "--graph", str(tmp_path / "toyds"), "--kernel", "gcn",
                 "--out", str(tmp_path / "a")]) == 2
    message = message.format(dir=tmp_path / "toyds")
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_analyze_trials_below_one_is_config_error(tmp_path, capsys, trials):
    out = tmp_path / "g"
    assert main(["analyze", "--graph", "ring12", "--kernel", "gat:5", "--trials", trials,
                 "--out", str(out)]) == 2
    assert "--trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_uses_cache_dir(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPECGCONV_CACHE", str(cache))
    assert main(["analyze", "--graph", "ring16", "--kernel", "gcn",
                 "--out", str(tmp_path / "o1")]) == 0
    cached = [p.name for p in cache.iterdir()]
    assert len(cached) == 1 and cached[0].endswith(".npy")
    assert main(["analyze", "--graph", "ring16", "--kernel", "gcn",
                 "--out", str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "standard_1.csv").read_text()
    b = (tmp_path / "o2" / "standard_1.csv").read_text()
    assert a == b


def test_train_transductive_run(tmp_path):
    cfg = write_toy_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    run = tmp_path / "run"
    result = json.loads((run / "result.json").read_text())
    assert 0.0 <= result["test_accuracy"] <= 1.0
    metrics = (run / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("epoch,train_loss,train_acc,val_loss,val_acc")
    assert len(metrics) == 1 + 12
    prov = json.loads((run / "provenance.json").read_text())
    assert prov["resolved_seed"] == 1
    assert "lambda_max" in prov and "version" in prov


def test_train_cli_overrides(tmp_path):
    cfg = write_toy_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--epochs", "3", "--lr", "0.0",
                 "--seed", "7", "--out", str(tmp_path / "run0")]) == 0
    metrics = (tmp_path / "run0" / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 3
    prov = json.loads((tmp_path / "run0" / "provenance.json").read_text())
    assert prov["resolved_seed"] == 7


def test_train_eta_sweep(tmp_path):
    cfg = write_toy_config(tmp_path, sweep_eta=[1, 3], output_dir="sweep")
    assert main(["train", "--config", str(cfg)]) == 0
    doc = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert doc["criterion"] == "min_val_loss"
    assert doc["selected_eta"] in (1, 3)
    assert len(doc["sweep"]) == 2


def test_train_eta_sweep_without_val_nodes(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, sweep_eta=[1, 3], output_dir="sweep")
    split = tmp_path / "toyds" / "split.csv"
    split.write_text(split.read_text().replace(",val", ",test"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "sweep_eta" in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.json").exists()


def test_train_eta_sweep_without_a_lowpass_design_is_refused_before_any_decomposition(
        tmp_path, capsys, monkeypatch):
    """sweep_eta varies the lowpass design's eta; with no lowpass design every
    η would train the same model, so the run exits 2 before any set-up."""
    def no_decompose(*args, **kwargs):
        raise AssertionError("decomposed before sweep_eta was checked")

    monkeypatch.setattr(cli, "decompose", no_decompose)
    cfg = write_toy_config(tmp_path, sweep_eta=[1, 3], designs=["highpass", "allpass"],
                           output_dir="sweep")
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: sweep_eta varies the eta of a lowpass design, "
                   "but designs has none\n")
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("kind", ["single", "tu"])
def test_train_refuses_what_only_the_other_dataset_kind_runs_before_loading(
        tmp_path, capsys, monkeypatch, kind):
    """binary_ce scores one-hot graph labels and sweep_eta re-trains one
    graph, so a single dataset refuses the one and a tu dataset the other,
    on one line and before the dataset is loaded or any graph decomposed."""
    decomposed = []
    monkeypatch.setattr(cli, "decompose", lambda *a, **k: decomposed.append(1))
    for loader in ("load_single_graph", "load_tu_dataset"):
        monkeypatch.setattr(cli, loader, lambda *a, **k: pytest.fail("dataset loaded"))
    if kind == "single":
        path = write_toy_config(tmp_path, train={"epochs": 2, "loss": "binary_ce"})
        message = ("config error: loss binary_ce applies to tu datasets only; "
                   "a single dataset trains with softmax_ce\n")
    else:
        path = write_tu_config(tmp_path, sweep_eta=[1, 3])
        message = ("config error: sweep_eta applies to single datasets only; "
                   "a tu dataset runs cross-validation\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert decomposed == []


@pytest.mark.parametrize("kind", ["single", "tu"])
def test_train_refuses_a_tabulated_design_that_cannot_fit_before_any_decomposition(
        tmp_path, capsys, monkeypatch, kind):
    """A tabulated design holds one value per eigenvalue of one graph: a
    single dataset refuses one of another length before the decomposition,
    and a tu dataset refuses any before it is loaded."""
    decomposed = []
    monkeypatch.setattr(cli, "decompose", lambda *a, **k: decomposed.append(1))
    (tmp_path / "vals.csv").write_text("value\n1\n0.5\n0.25\n0\n")
    designs = ["tabulated(file=vals.csv)", "lowpass(eta=2)"]
    if kind == "single":
        write_toy_dataset(tmp_path / "ring6", n=6)
        path = write_toy_config(tmp_path, designs=designs,
                                dataset={"path": "ring6", "kind": "single"})
        message = "config error: design tabulated(n=4): 4 values for a graph of 6 nodes\n"
    else:
        monkeypatch.setattr(cli, "load_tu_dataset", lambda *a, **k: pytest.fail("dataset loaded"))
        path = write_tu_config(tmp_path, designs=designs)
        message = ("config error: a tabulated design applies to single datasets only; "
                   "its values belong to one graph's eigenvalues\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert decomposed == []


@pytest.mark.parametrize("cv,loaded,message", [
    ({"folds": 1}, False, "cross-validation needs at least 2 folds, got 1"),
    ({"folds": 3, "repeats": 0}, False, "cross-validation needs at least 1 repeat, got 0"),
    ({"folds": 13}, True, "cross-validation cannot make 13 folds out of 12 graphs"),
])
def test_train_refuses_cross_validation_it_cannot_run_before_any_decomposition(
        tmp_path, capsys, monkeypatch, cv, loaded, message):
    """Fold and repeat counts that need no dataset are refused before it is
    loaded, and more folds than graphs before any graph is decomposed."""
    decomposed, loads = [], []
    monkeypatch.setattr(cli, "decompose", lambda *a, **k: decomposed.append(1))
    load = cli.load_tu_dataset
    monkeypatch.setattr(cli, "load_tu_dataset", lambda *a, **k: loads.append(1) or load(*a, **k))
    path = write_tu_config(tmp_path, cv=cv)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
    assert decomposed == [] and len(loads) == loaded


def test_tu_run_trains_with_binary_ce(tmp_path):
    path = write_tu_config(tmp_path, train={"epochs": 2, "batch_size": 4, "loss": "binary_ce"})
    assert main(["train", "--config", str(path)]) == 0
    result = json.loads((tmp_path / "cvrun" / "result.json").read_text())
    assert 0.0 <= result["cv_mean_accuracy"] <= 1.0


def test_analyze_exits_3_on_eigenpairs_out_of_order(tmp_path, capsys, monkeypatch):
    from test_spectral import _eigh_in_reverse

    monkeypatch.delenv("SPECGCONV_CACHE", raising=False)
    _eigh_in_reverse(monkeypatch)
    out = tmp_path / "an"
    assert main(["analyze", "--graph", "ring12", "--kernel", "gcn", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: eigenvalues are not sorted "
                                       "ascending\n")
    assert not out.exists()


def test_train_without_val_nodes_reports_no_best_val_epoch(tmp_path):
    """A split with no val nodes has no val scores: result.json gives null
    for the best-val epoch and the test accuracy there, not epoch 0."""
    cfg = write_toy_config(tmp_path)
    split = tmp_path / "toyds" / "split.csv"
    split.write_text(split.read_text().replace(",val", ",test"))
    assert main(["train", "--config", str(cfg), "--epochs", "5"]) == 0
    run = tmp_path / "run"
    result = json.loads((run / "result.json").read_text())
    assert result["best_val_epoch"] is None and result["test_accuracy_at_best_val"] is None
    assert 0.0 <= result["test_accuracy"] <= 1.0
    rows = [line.split(",") for line in (run / "metrics.csv").read_text().splitlines()]
    assert len(rows) == 1 + 5 and all(row[3:5] == ["", ""] for row in rows[1:])


def test_train_without_train_nodes_is_refused_before_any_decomposition(tmp_path, capsys,
                                                                       monkeypatch):
    """A split with no train node has nothing to train on: one line, before
    the graph is decomposed, and no output directory."""
    decomposed = []
    monkeypatch.setattr(cli, "decompose", lambda *a, **k: decomposed.append(1))
    cfg = write_toy_config(tmp_path)
    split = tmp_path / "toyds" / "split.csv"
    split.write_text(split.read_text().replace(",train", ",val"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: the split has no train nodes\n"
    assert not out.exists()
    assert decomposed == []


@pytest.mark.parametrize("where", ["config", "cli"])
def test_train_zero_epochs_is_config_error(tmp_path, capsys, where):
    if where == "config":
        cfg = write_toy_config(tmp_path, train={"learning_rate": 0.02, "epochs": 0})
        argv = ["train", "--config", str(cfg)]
    else:
        argv = ["train", "--config", str(write_toy_config(tmp_path)), "--epochs", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "epochs" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("node", [-1, 24])
def test_train_split_node_out_of_range(tmp_path, capsys, node):
    cfg = write_toy_config(tmp_path)
    split = tmp_path / "toyds" / "split.csv"
    # the last row names node 23; -1 must not silently stand for it
    split.write_text(split.read_text().replace("\n23,test\n", f"\n{node},test\n"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "split.csv line 25" in capsys.readouterr().err


def test_train_unlabelled_val_node_is_config_error(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    labels = tmp_path / "toyds" / "labels.csv"
    rows = labels.read_text().splitlines()
    rows[2] = "-1"   # node 1, a val node
    labels.write_text("\n".join(rows) + "\n")
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "node 1 has label -1" in err and len(err.strip().splitlines()) == 1


def test_train_architecture_class_mismatch(tmp_path):
    cfg = write_toy_config(tmp_path, architecture="DSG8-DSG5")
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_bad_architecture(tmp_path):
    cfg = write_toy_config(tmp_path, architecture="XYZ9")
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_empty_designs(tmp_path):
    cfg = write_toy_config(tmp_path, designs=[])
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_bad_design_expression(tmp_path):
    cfg = write_toy_config(tmp_path, designs=["lowpass(eta=-3)"])
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_missing_config_file(tmp_path):
    assert main(["train", "--config", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("where,message", [
    ("config", "Is a directory"),
    ("out", "config.json' exists and is not a directory"),
])
def test_train_path_that_is_not_a_directory_is_one_line_config_error(tmp_path, capsys,
                                                                      monkeypatch, where,
                                                                      message):
    """A directory given as the config file, or an output path under a file,
    exits 2 with one line, before any decomposition or training."""
    def no_decompose(*args, **kwargs):
        raise AssertionError("set-up ran before the path was refused")

    monkeypatch.setattr(cli, "decompose", no_decompose)
    cfg = write_toy_config(tmp_path)
    argv = ["train", "--config", str(tmp_path)] if where == "config" else \
        ["train", "--config", str(cfg), "--out", str(cfg / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_train_unknown_dataset_kind(tmp_path):
    cfg = write_toy_config(tmp_path, dataset={"path": "toyds", "kind": "parquet"})
    assert main(["train", "--config", str(cfg)]) == 2


def write_tu_dir(root, n_graphs=12):
    d = root / "TOY"
    d.mkdir()
    edges, indicator, node_labels = [], [], []
    offset = 0
    glabels = []
    for k in range(n_graphs):
        cls = k % 2
        n = 5 if cls == 0 else 6
        for i in range(n):
            indicator.append(k + 1)
            node_labels.append(i % 2)
            a, b = offset + i + 1, offset + (i + 1) % n + 1
            edges.append((a, b))
            edges.append((b, a))
        glabels.append(cls + 1)
        offset += n
    (d / "TOY_A.txt").write_text("\n".join(f"{a}, {b}" for a, b in edges) + "\n")
    (d / "TOY_graph_indicator.txt").write_text("\n".join(map(str, indicator)) + "\n")
    (d / "TOY_graph_labels.txt").write_text("\n".join(map(str, glabels)) + "\n")
    (d / "TOY_node_labels.txt").write_text("\n".join(map(str, node_labels)) + "\n")
    return d


def test_train_tu_crossvalidation(tmp_path):
    tu = write_tu_dir(tmp_path)
    cfg = {
        "dataset": {"path": str(tu), "kind": "tu"},
        "designs": ["allpass", "highpass"],
        "architecture": "G6-meanmax-D2",
        "train": {"learning_rate": 0.02, "epochs": 4, "batch_size": 4, "seed": 0},
        "cv": {"folds": 3, "repeats": 2},
        "output_dir": "cvrun",
    }
    path = tmp_path / "tu.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0
    result = json.loads((tmp_path / "cvrun" / "result.json").read_text())
    assert 0.0 <= result["cv_mean_accuracy"] <= 1.0
    assert result["std_defined"] is True
    assert len(result["repeat_accuracies"]) == 2


def test_tu_chebyshev_index_is_bounded_by_the_largest_graph(tmp_path, capsys):
    # the toy set's graphs have 5 or 6 nodes: cheb(k=6) is redundant on the
    # 5-node graphs only, and trains; cheb(k=7) is redundant on every graph
    path = write_tu_config(tmp_path, designs=["allpass", "cheb(k=6)"])
    with pytest.warns(UserWarning, match="cover the spectrum poorly"):
        assert main(["train", "--config", str(path)]) == 0
    path.write_text(path.read_text().replace("cheb(k=6)", "cheb(k=7)"))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r7")]) == 2
    assert capsys.readouterr().err == ("config error: design cheb(k=7): Chebyshev index "
                                       "above the node count 6\n")
    assert not (tmp_path / "r7").exists()


def write_tu_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"path": str(write_tu_dir(tmp_path)), "kind": "tu"},
        "designs": ["allpass", "highpass"],
        "architecture": "G6-meanmax-D2",
        "train": {"learning_rate": 0.02, "epochs": 2, "batch_size": 4, "seed": 0},
        "cv": {"folds": 3},
        "output_dir": "cvrun",
    }
    cfg.update(overrides)
    path = tmp_path / "tu.json"
    path.write_text(json.dumps(cfg))
    return path


def test_tu_set_up_error_names_the_graph(tmp_path, capsys):
    path = write_tu_config(tmp_path)
    a_txt = tmp_path / "TOY" / "TOY_A.txt"
    # graph 3 holds the TU nodes 12..16; dropping node 14's edges isolates its node 2
    rows = [r for r in a_txt.read_text().splitlines() if "14" not in r.split(", ")]
    a_txt.write_text("\n".join(rows) + "\n")
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("config error: graph 3: symmetric-normalized Laplacian "
                                       "undefined: node 14 has degree 0\n")


def test_single_graph_with_an_isolated_node_is_config_error(tmp_path, capsys):
    """A single graph whose node 3 has no edge has no sym Laplacian: one
    line naming the node, and no output directory."""
    path = write_toy_config(tmp_path)
    write_toy_dataset(tmp_path / "toyds", n=4)
    (tmp_path / "toyds" / "edges.csv").write_text("src,dst\n0,1\n1,2\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: symmetric-normalized Laplacian "
                                       "undefined: node 3 has degree 0\n")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["inf", "nan", "1e999"])
def test_train_non_finite_tu_attribute_is_config_error_naming_file_and_line(
        tmp_path, capsys, cell):
    path = write_tu_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["dataset"]["use_attributes"] = True
    path.write_text(json.dumps(cfg))
    cells = ["0.5"] * 66     # the toy set's 12 graphs hold 66 nodes
    cells[20] = cell         # line 21: node 4 of graph 4
    (tmp_path / "TOY" / "TOY_node_attributes.txt").write_text("\n".join(cells) + "\n")
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == ("config error: TOY_node_attributes.txt line 21: "
                                       f"expected a finite number, got {cell!r}\n")
    assert not (tmp_path / "cvrun").exists()


@pytest.mark.parametrize("kind,arch,message", [
    ("single", "DSG8-meanmax-D2", "single-graph (node-level) model cannot contain a meanmax"),
    ("tu", "G6-D2", "graph-level model needs a meanmax readout"),
    ("tu", "G6-meanmax-G4-D2", "graph convolution cannot follow the meanmax readout"),
    ("tu", "G6-meanmax-D3", "ends with width 3, dataset has 2 classes"),
    ("tu", "G6-meanmax-D1", "ends with width 1, dataset has 2 classes"),
])
def test_train_model_that_does_not_fit_the_problem(tmp_path, capsys, monkeypatch, kind, arch,
                                                   message):
    """Refused in one line before any graph is decomposed."""
    decomposed = []
    monkeypatch.setattr(cli, "decompose",
                        lambda *a, **k: decomposed.append(1) or decompose(*a, **k))
    write = write_toy_config if kind == "single" else write_tu_config
    assert main(["train", "--config", str(write(tmp_path, architecture=arch))]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*/result.json"))
    assert decomposed == []


@pytest.mark.parametrize("kind,overrides,message", [
    ("single", None, "config must be a JSON object, got [1, 2]"),
    ("single", {"dataset": "toyds"}, 'dataset must be an object, got "toyds"'),
    ("single", {"train": [1]}, "train must be an object, got [1]"),
    ("tu", {"cv": 3}, "cv must be an object, got 3"),
    ("single", {"sweep_eta": "3"}, 'sweep_eta must be a list, got "3"'),
    ("single", {"sweep_eta": [1, None]}, "sweep_eta must be a list of numbers"),
    ("single", {"output_dir": 5}, "output_dir must be a string, got 5"),
    ("single", {"dataset": {"path": "toyds/edges.csv"}}, "edges.csv' is not a directory"),
    ("single", {"designs": ["allpass", 3]}, "designs must be a list of strings"),
    ("single", {"architecture": 7}, "architecture must be a string, got 7"),
    ("single", {"laplacian": ["sym"]}, 'laplacian must be a string, got ["sym"]'),
    ("single", {"laplacian": "rw"}, "unknown Laplacian kind 'rw' (use sym or comb)"),
    ("single", {"train": {"epochs": 2.5}}, "epochs must be an integer, got 2.5"),
    ("single", {"train": {"epochs": 2, "seed": "a"}}, "seed must be an integer, got 'a'"),
    ("single", {"train": {"epochs": 2, "weight_decay": "x"}}, "weight_decay must be a number"),
    ("tu", {"cv": {"folds": 2.5}}, "folds must be an integer, got 2.5"),
    ("tu", {"cv": {"folds": 1}}, "needs at least 2 folds, got 1"),
    ("single", {"output_dir": "toyds/edges.csv"}, "edges.csv' exists and is not a directory"),
    ("single", {"train": {"epochs": True}}, "epochs must be an integer, got True"),
    ("single", {"train": {"epochs": 2, "learning_rate": True}},
     "learning_rate must be a number, got True"),
    ("single", {"sweep_eta": [1, True]}, "sweep_eta must be a list of numbers, got [1, true]"),
    ("tu", {"cv": {"folds": True}}, "folds must be an integer, got true"),
    ("tu", {"cv": {"repeats": True}}, "repeats must be an integer, got true"),
    ("single", {"designs": ["lowpass(5)"]}, "malformed design argument '5' (expected key=value)"),
    ("single", {"designs": ["cayley(s=1,h=1,r=0)"]}, "Cayley order must be >= 1, got 0"),
])
def test_train_malformed_config_is_one_line_error(tmp_path, capsys, kind, overrides, message):
    write = write_toy_config if kind == "single" else write_tu_config
    cfg = write(tmp_path, **(overrides or {}))
    if overrides is None:
        cfg.write_text("[1, 2]")
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*/result.json"))


@pytest.mark.parametrize("kind,overrides", [
    ("single", {"architecture": "DSG4-DSG5"}),            # found after loading
    ("single", {"sweep_eta": [1, None]}),                 # found by the run itself
    ("single", {"architecture": "DSG8-meanmax-D2"}),      # found by train
    ("tu", {"cv": {"folds": 100}}),                       # found after loading
])
def test_refused_train_run_leaves_no_output_directory(tmp_path, kind, overrides):
    write = write_toy_config if kind == "single" else write_tu_config
    cfg = write(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg)]) == 2
    assert not (tmp_path / json.loads(cfg.read_text())["output_dir"]).exists()


def test_train_divergence_exits_3(tmp_path):
    cfg = write_toy_config(tmp_path)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg), "--lr", "1e308",
                     "--epochs", "40"]) == 3


# Runs the CLI on argv[2:], on one CPU where argv[1] is "serial", and prints
# the worker processes still alive when it returns.
RUN_CLI = """
import multiprocessing, os, sys
from specgconv.cli import main
if sys.argv[1] == "serial":
    os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
code = main(sys.argv[2:])
print(multiprocessing.active_children())
sys.exit(code)
"""


def test_tu_divergence_exits_3_with_the_line_of_an_in_process_run(tmp_path):
    """A cross-validation run whose folds diverge ends as an in-process run
    does: exit 3 with the same one `numerical failure` line and no worker
    left. Each run is a process of its own, so stderr is what the CLI and
    its fold workers print."""
    cfg = write_tu_config(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    err = []
    for run in ("side", "serial"):
        done = subprocess.run([sys.executable, "-c", RUN_CLI, run, "train", "--config", str(cfg),
                               "--lr", "1e308", "--epochs", "40", "--out", str(tmp_path / run)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (3, "[]\n")
        err.append(done.stderr)
    assert err[0] == err[1]
    assert err[0].startswith("numerical failure: non-finite loss ") and err[0].count("\n") == 1


def test_side_by_side_folds_give_the_in_process_result(tmp_path, monkeypatch):
    """3 folds x 2 repeats with dropout on the toy TU set: the CVResult of
    folds trained side by side is bitwise the in-process one."""
    if nn._fold_processes(3) < 2:
        pytest.skip("this host trains folds in-process only")
    cfg = write_tu_config(tmp_path, cv={"folds": 3, "repeats": 2},
                          train={"learning_rate": 0.02, "epochs": 4, "batch_size": 4, "seed": 0,
                                 "input_dropout": 0.2, "kernel_dropout": 0.2})
    results, processes = [], []
    crossvalidate, side_by_side = cli.crossvalidate, nn._folds_side_by_side
    monkeypatch.setattr(cli, "crossvalidate",
                        lambda *a, **k: results.append(crossvalidate(*a, **k)) or results[-1])
    monkeypatch.setattr(nn, "_folds_side_by_side",
                        lambda job, folds, n: processes.append(n) or side_by_side(job, folds, n))
    for run in ("side", "serial"):
        if run == "serial":
            monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
    assert processes[2:] == [1, 1] and min(processes[:2]) >= 2
    side, serial = results
    assert repr(side) == repr(serial)
    assert ((tmp_path / "side" / "result.json").read_bytes()
            == (tmp_path / "serial" / "result.json").read_bytes())


def test_train_writes_checkpoint(tmp_path):
    from specgconv.nn import load_checkpoint

    cfg = write_toy_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--epochs", "2"]) == 0
    params = load_checkpoint(tmp_path / "run" / "checkpoint.json")
    assert len(params) == 2
    assert params[0].depthwise is not None


def test_train_warns_on_poor_spectrum_coverage(tmp_path):
    # a single narrow band leaves most of the spectrum uncovered
    cfg = write_toy_config(tmp_path, designs=["bandpass(c=0.5,gamma=500)"])
    with pytest.warns(UserWarning, match="cover the spectrum"):
        assert main(["train", "--config", str(cfg), "--epochs", "2"]) == 0


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "all cases pass" in out
    assert "FAIL" not in out


def test_gradcheck_failure_exits_4(monkeypatch, capsys):
    import specgconv.cli as cli

    monkeypatch.setattr(cli, "gradcheck_suite",
                        lambda seed=0: [("dsg/broken", 3.2e-4), ("dense/ok", 1e-9)])
    assert main(["gradcheck"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and "dsg/broken" in out


def test_strict_repro_flag_accepted(tmp_path):
    assert main(["--strict-repro", "analyze", "--graph", "ring8",
                 "--kernel", "gcn", "--out", str(tmp_path / "s")]) == 0


def test_strict_repro_pins_openblas_without_threadpoolctl(tmp_path, capsys, monkeypatch):
    """--strict-repro runs the command at one BLAS thread and restores the old
    count after it. Where no OpenBLAS thread setter is loaded it refuses in
    one line, before the command runs."""
    seen = []
    real = cli.cmd_analyze
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args) or real(args))
    argv = ["--strict-repro", "analyze", "--graph", "ring8", "--kernel", "gcn",
            "--out", str(tmp_path / "s")]
    with monkeypatch.context() as m:
        m.setattr(_blas, "_openblas_thread_functions", lambda: None)
        assert main(argv) == 2
    assert capsys.readouterr().err == ("config error: cannot pin BLAS threads: numpy has no "
                                       "OpenBLAS thread setter loaded in this process\n")
    assert seen == [] and not (tmp_path / "s").exists()

    functions = _blas._openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy has no OpenBLAS loaded in this process")
    set_threads, get_threads = functions
    old = get_threads()
    try:
        monkeypatch.setattr(cli, "cmd_analyze",
                            lambda args: seen.append(get_threads()) or real(args))
        assert main(argv) == 0
        assert seen == [1] and get_threads() == old
    finally:
        set_threads(old)


def test_strict_repro_writes_the_bytes_of_a_one_thread_run(tmp_path, monkeypatch):
    """A --strict-repro run at the default BLAS thread count writes, byte for
    byte, what a run in a one-thread process writes. The Cora-shaped graph of
    perfbench's cora-dsg canary is large enough for OpenBLAS to split its
    products over threads, which changes their bits; smaller ones do not."""
    if _blas._openblas_thread_functions() is None:
        pytest.skip("numpy has no OpenBLAS loaded in this process")
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_gen", gen)   # dataclasses look it up
    spec.loader.exec_module(gen)
    gen.write_single_graph(tmp_path / "cora", gen.make_single_graph(gen.scaled_cora(240, 300), 0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"path": "cora", "kind": "single"},
        "designs": ["lowpass(eta=5)", "bandpass(c=0.25,gamma=0.25)",
                    "bandpass(c=0.5,gamma=0.25)", "bandpass(c=0.75,gamma=0.25)"],
        "architecture": "DSG160-DSG7",
        "train": {"learning_rate": 0.01, "epochs": 3, "weight_decay": 3e-4,
                  "depthwise_decay": 3e-3, "input_dropout": 0.75, "kernel_dropout": 0.75,
                  "seed": 0},
    }))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPECGCONV_CACHE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    for out, flags, threads in (("pinned", ["--strict-repro"], {}),
                                ("one", [], {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run([sys.executable, "-m", "specgconv.cli", *flags, "train",
                        "--config", str(config), "--out", str(tmp_path / out)],
                       env={**env, **threads}, check=True, capture_output=True, timeout=300)
    pinned, one = tmp_path / "pinned", tmp_path / "one"
    files = sorted(p.name for p in pinned.iterdir())
    assert files == sorted(p.name for p in one.iterdir())
    assert {"checkpoint.json", "metrics.csv", "result.json"} <= set(files)
    for name in files:
        assert (pinned / name).read_bytes() == (one / name).read_bytes(), name


def test_result_and_provenance_name_the_same_optimizer(tmp_path):
    cfg = write_toy_config(tmp_path, train={"learning_rate": 0.02, "epochs": 2, "seed": 1})
    assert main(["train", "--config", str(cfg)]) == 0
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    prov = json.loads((tmp_path / "run" / "provenance.json").read_text())
    assert result["optimizer"] == prov["optimizer"] == {
        "name": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def write_run_config(tmp_path, kind):
    """The config of a toy run of each kind: a plain transductive run, a
    two-point eta sweep, and a cross-validation run on the toy TU set."""
    if kind == "plain":
        return write_toy_config(tmp_path)
    if kind == "sweep":
        return write_toy_config(tmp_path, sweep_eta=[1, 3], output_dir="sweep")
    return write_tu_config(tmp_path, cv={"folds": 3, "repeats": 2},
                           train={"learning_rate": 0.02, "epochs": 4, "batch_size": 4, "seed": 0})


def assert_same_numbers(got, want):
    """got has want's structure, and each float equal within 1e-10 relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same_numbers(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_numbers(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
    else:
        assert got == want


_ADAM = {"name": "adam", "beta1": 0.9, "beta2": 0.999, "eps": 1e-08}
_PLAIN_METRICS = """\
0,0.7099129374939719,0.4166666666666667,0.7264442232941407,0.6666666666666666,0.731673254582306,0.5
1,0.6885697864025645,0.6666666666666666,0.721083880055212,0.3333333333333333,0.734324070692983,0.3333333333333333
2,0.6726388190463441,0.5833333333333334,0.7228107314387846,0.3333333333333333,0.7386014340526085,0.5
3,0.6594929568431559,0.5833333333333334,0.7268396475690014,0.3333333333333333,0.7473135048776619,0.5
4,0.6490168073129771,0.5833333333333334,0.7334671089148581,0.3333333333333333,0.7590615571559588,0.5
5,0.6405816468650498,0.5833333333333334,0.7420542541642026,0.3333333333333333,0.7731909841821621,0.5
6,0.6314032501162146,0.5833333333333334,0.7506304993525789,0.3333333333333333,0.7903101346099898,0.5
7,0.6211995197121997,0.5833333333333334,0.758361583329224,0.3333333333333333,0.8098076250099856,0.5
8,0.6096743528991643,0.5833333333333334,0.7647202786159623,0.3333333333333333,0.8315333070490328,0.5
9,0.5962969355427997,0.5833333333333334,0.7689664563098805,0.3333333333333333,0.8552806414463406,0.5
10,0.5807313306024942,0.5833333333333334,0.770549724817469,0.3333333333333333,0.8813370103642703,0.5
11,0.5630836288117421,0.6666666666666666,0.7696288305828913,0.3333333333333333,0.9109582176314118,0.5
"""


def test_train_outputs_of_the_toy_runs_are_pinned(tmp_path):
    """The numbers of a plain run, a two-point sweep and a TU cross-validation
    run, pinned within 1e-10 relative, so a change to the set-up or the
    writers that moves any of them is seen."""
    assert main(["train", "--config", str(write_run_config(tmp_path, "plain"))]) == 0
    final = {"epoch": 11, "train_loss": 0.5630836288117421, "train_acc": 0.6666666666666666,
             "val_loss": 0.7696288305828913, "val_acc": 0.3333333333333333,
             "test_loss": 0.9109582176314118, "test_acc": 0.5}
    assert_same_numbers(json.loads((tmp_path / "run" / "result.json").read_text()), {
        "test_accuracy": 0.5, "test_accuracy_at_best_val": 0.5, "best_val_epoch": 0,
        "final": final, "coverage": 1.6151011601872582, "optimizer": _ADAM})
    header, *rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert header == "epoch,train_loss,train_acc,val_loss,val_acc,test_loss,test_acc"
    assert_same_numbers([[float(x) for x in row.split(",")] for row in rows],
                        [[float(x) for x in row.split(",")] for row in _PLAIN_METRICS.split()])

    assert main(["train", "--config", str(write_run_config(tmp_path, "sweep"))]) == 0
    assert_same_numbers(json.loads((tmp_path / "sweep" / "sweep.json").read_text()), {
        "sweep": [{"eta": 1, "min_val_loss": 0.6463597572668143,
                   "max_val_acc": 0.6666666666666666},
                  {"eta": 3, "min_val_loss": 0.721083880055212,
                   "max_val_acc": 0.6666666666666666}],
        "selected_eta": 1, "criterion": "min_val_loss"})

    assert main(["train", "--config", str(write_run_config(tmp_path, "tu"))]) == 0
    assert_same_numbers(json.loads((tmp_path / "cvrun" / "result.json").read_text()), {
        "cv_mean_accuracy": 0.5833333333333333, "cv_std_accuracy": 0.08333333333333331,
        "std_defined": True, "repeat_accuracies": [0.6666666666666666, 0.5],
        "best_epochs": [0, 0], "coverage": 1.0, "optimizer": _ADAM})


@pytest.mark.parametrize("kind,out,calls", [("plain", "run", 1), ("sweep", "sweep", 1),
                                            ("tu", "cvrun", 12)])
def test_train_decomposes_each_graph_once_and_records_it(tmp_path, monkeypatch, kind, out,
                                                         calls):
    """Each run decomposes each graph once, the sweep's too, and its
    provenance.json records lambda_max and average_degree (one value per
    graph of a TU set) and the coverage on the first graph."""
    seen = []

    def counted_decompose(*args, **kwargs):
        seen.append(decompose(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "decompose", counted_decompose)
    assert main(["train", "--config", str(write_run_config(tmp_path, kind))]) == 0
    assert len(seen) == calls
    prov = json.loads((tmp_path / out / "provenance.json").read_text())
    lambda_max, degrees = [b.lambda_max for b in seen], [2.0] * calls
    if kind != "tu":
        lambda_max, degrees = lambda_max[0], degrees[0]
    assert prov["lambda_max"] == lambda_max and prov["average_degree"] == degrees
    assert prov["coverage"] == pytest.approx(1.0 if kind == "tu" else 1.6151011601872582,
                                             rel=1e-10)


@pytest.mark.parametrize("kind", ["plain", "tu"])
def test_train_holds_no_basis_while_it_trains(tmp_path, monkeypatch, kind):
    """A run without sweep_eta drops every eigenbasis before train or
    crossvalidate runs: on a Cora-sized graph U alone is tens of MB."""
    bases = []

    def tracked_decompose(*args, **kwargs):
        basis = decompose(*args, **kwargs)
        bases.append(weakref.ref(basis))
        return basis

    def no_basis_alive(run):
        def checked(*args, **kwargs):
            gc.collect()
            assert bases and all(ref() is None for ref in bases), "a basis is still alive"
            return run(*args, **kwargs)
        return checked

    monkeypatch.setattr(cli, "decompose", tracked_decompose)
    monkeypatch.setattr(cli, "train", no_basis_alive(cli.train))
    monkeypatch.setattr(cli, "crossvalidate", no_basis_alive(cli.crossvalidate))
    assert main(["train", "--config", str(write_run_config(tmp_path, kind))]) == 0
