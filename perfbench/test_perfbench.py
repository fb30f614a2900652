"""Tests of the benchmark itself: generated shapes, computed counts, the
tracer, the output checks and the metric lists.

    python3 -m pytest -q perfbench
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import counts  # noqa: E402
import gen  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from specgconv import cli, data, graphs, nn  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def test_cora_shape_statistics():
    d = gen.make_single_graph(gen.CORA, seed=3)
    n, f0 = d["features"].shape
    assert (n, f0) == (2708, 1433)
    assert len(d["edges"]) == 5278
    assert len({tuple(e) for e in d["edges"]}) == 5278 and np.all(d["edges"][:, 0] < d["edges"][:, 1])
    assert 0.011 <= d["features"].mean() <= 0.015
    assert set(np.unique(d["features"])) == {0.0, 1.0}
    degree = np.bincount(d["edges"].ravel(), minlength=n)
    assert degree.min() >= 1                                   # no isolated node
    assert sorted(np.unique(d["labels"])) == list(range(7))
    roles = d["roles"]
    assert [int(np.sum(roles == r)) for r in ("train", "val", "test")] == [140, 500, 1000]
    assert np.all(np.bincount(d["labels"][roles == "train"], minlength=7) == 20)


def test_enzymes_shape_statistics():
    d = gen.make_tu(gen.ENZYMES, seed=3)
    sizes = np.array([g["node_labels"].size for g in d["graphs"]])
    assert sizes.size == 600 and sizes.min() >= 10 and sizes.max() <= 60
    n_edges = sum(len(g["edges"]) for g in d["graphs"])
    assert 1.85 <= n_edges / sizes.sum() <= 1.95
    for g in d["graphs"]:
        n = g["node_labels"].size
        assert np.bincount(g["edges"].ravel(), minlength=n).min() >= 1
    assert np.all(np.bincount(d["graph_labels"]) == 100)
    assert set(np.concatenate([g["node_labels"] for g in d["graphs"]])) == {0, 1, 2}


def test_generators_are_seeded():
    a, b = gen.make_single_graph(gen.CORA, 5), gen.make_single_graph(gen.CORA, 5)
    assert np.array_equal(a["edges"], b["edges"]) and np.array_equal(a["features"], b["features"])
    assert not np.array_equal(a["edges"], gen.make_single_graph(gen.CORA, 6)["edges"])
    t1, t2 = gen.make_tu(gen.ENZYMES, 5), gen.make_tu(gen.ENZYMES, 5)
    assert all(np.array_equal(g["edges"], h["edges"]) for g, h in zip(t1["graphs"], t2["graphs"]))


def test_written_files_load_through_the_program(tmp_path):
    shape = gen.scaled_cora(300, 250)
    d = gen.make_single_graph(shape, 1)
    gen.write_single_graph(tmp_path / "g", d)
    ds = data.load_single_graph(tmp_path / "g")
    assert np.array_equal(ds.graph.features, d["features"])
    assert ds.graph.adjacency.sum() == 2 * len(d["edges"])
    assert int(ds.masks["train"].sum()) == shape.train_per_class * shape.n_classes
    graphs.build_laplacian(ds.graph, graphs.LaplacianKind.SYM_NORMALIZED)   # no isolated node

    t = gen.make_tu(gen.TUShape(18, 10, 20, 1.9, 3, 6), 1)
    gen.write_tu(tmp_path / "ENZ", t)
    tu = data.load_tu_dataset(tmp_path / "ENZ")
    assert len(tu) == 18 and tu.n_classes == 6
    assert [g.n for g in tu.graphs] == [g["node_labels"].size for g in t["graphs"]]
    assert tu.graphs[0].features.shape[1] == 3


# ---------------------------------------------------------------------------
# computed counts against hand counts
# ---------------------------------------------------------------------------

def test_counts_match_hand_count_dsg():
    # DSG3-DSG2, f0=4, n=5, S=2.
    # forward:  L1 2*(2*5*5*4) + 2*5*4*3 = 520;  L2 2*(2*5*5*3) + 2*5*3*2 = 360
    # backward: L1 2*4*5*3 + 2*5*3*4 + 2*(2*5*5*4) = 640;  L2 2*3*5*2 + 2*5*2*3 + 2*(2*5*5*3) = 420
    # epoch = 2 forwards + 1 backward; draws: L1 5*4 + 2*25, L2 5*3 + 2*25
    c = counts.transductive_epoch("DSG3-DSG2", f0=4, s=2, n=5)
    assert c == {"flops": 2 * 880 + 1060, "draws": 70 + 65}


def test_counts_match_hand_count_inductive():
    # G2-meanmax-D3, f0=1, S=2, one training graph of n=3 and eval on n=3 and n=4.
    # G2 on n: fwd 2*(2*n*n*1) + 2*(2*n*1*2) = 4n^2 + 8n; bwd 2*(2*1*n*2) + 2*(2*n*2*1 + 2*n*n*1) = 16n + 4n^2
    # D3 on one row of width 4: fwd 2*4*3 = 24; bwd 24 + 24
    # train n=3: fwd 36+24+24 = 84, bwd 48+36+48 = 132; eval n=3: 84, eval n=4: 64+32+24 = 120
    # draws n=3: G2 3*1 + 2*9 = 21, D3 1*4 = 4
    c = counts.inductive_epoch("G2-meanmax-D3", f0=1, s=2, train_sizes=[3], eval_sizes=[3, 4])
    assert c == {"flops": 84 + 132 + 84 + 120, "draws": 25}


def test_cora_epoch_count():
    c = counts.transductive_epoch("DSG160-DSG7", 1433, 4, 2708)
    assert 284e9 < c["flops"] < 286e9
    assert c["draws"] == 2708 * 1433 + 2708 * 160 + 2 * 4 * 2708 * 2708


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_and_uncovered_share():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    wleaf = tr.wrap("leaf", leaf)

    def outer():
        clock.t += 1.0
        wleaf()
        wleaf()
        clock.t += 3.0

    wouter = tr.wrap("outer", outer)
    start = clock.t
    wouter()
    clock.t += 4.0                         # untraced glue inside the region
    s = tr.summary()
    assert s["outer"] == {"count": 1, "total": 8.0, "self": 4.0}
    assert s["leaf"] == {"count": 2, "total": 4.0, "self": 4.0}
    assert tr.uncovered([(start, clock.t)]) == pytest.approx(4.0 / 12.0)
    assert [sp.parent for sp in tr.spans] == [-1, 0, 0]


def test_install_replaces_and_restores_every_reference():
    originals = (nn.train, cli.train, nn.LOSSES["softmax_ce"], np.linalg.eigh, nn.Adam.step,
                 data.save_matrix_csv, cli.save_matrix_csv)
    tr = Tracer()
    tr.install()
    try:
        assert nn.train is not originals[0] and cli.train is nn.train
        assert nn.LOSSES["softmax_ce"] is nn.softmax_cross_entropy
        assert nn.softmax_cross_entropy is not originals[2]
        assert np.linalg.eigh is not originals[3]
    finally:
        tr.uninstall()
    assert (nn.train, cli.train, nn.LOSSES["softmax_ce"], np.linalg.eigh, nn.Adam.step,
            data.save_matrix_csv, cli.save_matrix_csv) == originals


# ---------------------------------------------------------------------------
# workloads at tiny shapes, output checks, self-test
# ---------------------------------------------------------------------------

class TinyCora(workloads.CoraDSG):
    shape = gen.scaled_cora(150, 200)


class TinyEnzymes(workloads.EnzymesCV):
    shape = gen.TUShape(n_graphs=18, min_nodes=10, max_nodes=14, edges_per_node=1.9,
                        n_node_labels=3, n_classes=6)


class TinyAnalyze(workloads.AnalyzeGAT):
    shape = gen.scaled_cora(60, 40)
    trials = 3


def _plain(cls, tmp_path):
    wl = cls(str(tmp_path), 4)
    wl.setup_reps = 2
    wl.prepare()
    ledger = workloads.Ledger()
    metrics = bench.plain_run(wl, ledger, 0.0, {"setup_s": [], "step_s": []})
    return wl, ledger, metrics


@pytest.mark.parametrize("cls", [TinyCora, TinyEnzymes, TinyAnalyze])
def test_tiny_workloads_pass_their_checks(cls, tmp_path):
    wl, ledger, metrics = _plain(cls, tmp_path)
    assert ledger.failed == 0, ledger.errors
    assert ledger.attempted == 2 * wl.setup_ops + 1
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canary_matches_reference(name, tmp_path):
    got = workloads.WORKLOADS[name](str(tmp_path), 0).canary(str(tmp_path))
    assert workloads.check_reference(name, got) is None


def test_corrupted_training_output_counts_as_failure(tmp_path, monkeypatch):
    original = nn.train

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        result.metrics[-1]["val_loss"] *= 1.0 + 1e-9
        return result

    monkeypatch.setattr(nn, "train", corrupted)
    got = TinyCora(str(tmp_path), 0).canary(str(tmp_path))
    assert "val_loss" in workloads.check_reference("cora-dsg", got)

    calls = []

    def second_call_differs(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            result.metrics[0]["train_loss"] = float("nan")
        return result

    monkeypatch.setattr(nn, "train", second_call_differs)
    wl = TinyCora(str(tmp_path), 1)
    wl.prepare()
    ledger = workloads.Ledger()
    state = wl.setup()
    for _ in range(2):
        ledger.check("step", wl.check_step(wl.step(state)))
    assert ledger.failed == 1 and "non-finite" in ledger.errors[0]


def test_corrupted_warm_output_counts_as_failure(tmp_path):
    wl = TinyAnalyze(str(tmp_path), 2)
    wl.prepare()
    wl.before_setup()
    assert wl.check_setup(wl.setup()) == [None]
    wl.before_step()
    rc = wl.step(None)
    path = os.path.join(wl._out, "gat_mean_full.csv")
    with open(path, "r+b") as fh:
        fh.seek(-3, os.SEEK_END)
        digit = fh.read(1)
        fh.seek(-3, os.SEEK_END)
        fh.write(b"7" if digit != b"7" else b"3")
    problems = wl.check_step(rc)
    assert problems[0] and "gat_mean_full.csv" in problems[0]


def test_gat_output_check_rejects_a_wrong_profile(tmp_path):
    wl = TinyAnalyze(str(tmp_path), 2)
    wl.prepare()
    wl.before_setup()
    assert wl.setup() == 0
    full = workloads._csv(wl._out, "gat_mean_full.csv")
    full[0, -1] += 1e-3
    data.save_matrix_csv(os.path.join(wl._out, "gat_mean_full.csv"), full)
    assert workloads.check_gat_outputs(wl._out, wl.dir, wl.trials) is not None


def test_failed_setup_stops_the_run_and_counts_every_operation(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(workloads.spectral, "decompose", broken)
    wl, ledger, metrics = _plain(TinyEnzymes, tmp_path)
    assert ledger.failed == ledger.attempted == wl.setup_ops
    assert "setup_s" not in metrics


# ---------------------------------------------------------------------------
# metric lists
# ---------------------------------------------------------------------------

def test_metric_lists_agree():
    b = _benchmark_json()
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as fh:
        layers = json.load(fh)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == bench.END_TO_END_UNITS
    assert set(layers["end_to_end"]) - {"fail_ratio"} == set(bench.END_TO_END_UNITS)
    assert [m["name"] for m in b["per_layer"]] == list(layers["per_layer"])
    for m in b["per_layer"]:
        entry = layers["per_layer"][m["name"]]
        assert (m["unit"], m["better"]) == (entry["unit"], entry["better"])
        assert entry["kind"] in ("timed", "counted", "computed")
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("cls", [TinyCora, TinyEnzymes, TinyAnalyze])
def test_traced_run_reports_every_per_layer_metric(cls, tmp_path):
    wl = cls(str(tmp_path), 1)
    wl.prepare()
    ledger = workloads.Ledger()
    record = {}
    metrics = bench.traced_run(wl, ledger, {"gemm_gflop_per_s": 1.0, "py_loop_mops": 1.0}, record)
    assert ledger.failed == 0, ledger.errors
    b = _benchmark_json()
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in b["per_layer"]}
    assert metrics["trace.spans"]["value"] == len(record["spans"]) > 0
    assert 0 <= metrics["trace.uncovered_share"]["value"] < 0.5
    if cls is TinyAnalyze:
        assert metrics["spectral.cache_hit_ratio"]["value"] == 0.5
        assert metrics["data.bytes_written"]["value"] > 0
        assert metrics["nn.forward_calls"]["value"] == 0
    else:
        assert metrics["nn.forward_calls"]["value"] > 0 and metrics["nn.epoch_gflop"]["value"] > 0
        assert metrics["spectral.decompose_calls"]["value"] == wl.setup_ops
