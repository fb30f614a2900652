import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "canary_hash.py"
_SPEC = importlib.util.spec_from_file_location("canary_hash", _PATH)
canary_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(canary_hash)


def test_equal_bits_are_bitwise_and_any_other_difference_is_reported():
    loss = [1.25, 0.5, 0.125]
    assert canary_hash.deviation(loss, list(loss)) == "bitwise"
    assert canary_hash.deviation([[1.0, 2.0]], [[1.0, 2.0]]) == "bitwise"
    ulp = [1.25, float(np.nextafter(0.5, 1.0)), 0.125]
    assert canary_hash.deviation(loss, ulp) == f"max relative deviation {2.0**-53 / 1.25:.3e}"
    assert canary_hash.deviation([0.0], [-0.0]) == "max absolute deviation 0.000e+00"
    assert canary_hash.deviation([0.0, 0.0], [0.0, 1e-3]) == "max absolute deviation 1.000e-03"
    assert canary_hash.deviation(loss, loss[:2]) == "shape (2,) != (3,)"
    assert canary_hash.deviation(loss, None) == "missing"


def test_compare_reports_every_workload_and_key_of_either_run():
    parent = {"cora-dsg": {"train_loss": [1.0, 0.5], "val_loss": [2.0]},
              "enzymes-cv": {"best_epochs": [0]}}
    lines, same = canary_hash.compare(parent, {k: dict(v) for k, v in parent.items()})
    assert same and lines == ["cora-dsg train_loss: bitwise", "cora-dsg val_loss: bitwise",
                              "enzymes-cv best_epochs: bitwise"]
    change = {"cora-dsg": {"train_loss": [1.0, 0.75], "test_loss": [3.0]},
              "enzymes-cv": {"best_epochs": [0]}}
    lines, same = canary_hash.compare(parent, change)
    assert not same
    assert lines == ["cora-dsg train_loss: max relative deviation 2.500e-01",
                     "cora-dsg val_loss: missing",
                     "cora-dsg test_loss: only in change",
                     "enzymes-cv best_epochs: bitwise"]


def test_exit_status_follows_the_comparison(monkeypatch, capsys):
    runs = {"a": {"cora-dsg": {"train_loss": [1.0]}}, "b": {"cora-dsg": {"train_loss": [1.0]}},
            "c": {"cora-dsg": {"train_loss": [1.5]}}}
    calls = []

    def fake_run(checkout, workloads):
        calls.append((checkout, list(workloads)))
        return runs[checkout]

    monkeypatch.setattr(canary_hash, "run_canaries", fake_run)
    assert canary_hash.main(["a", "b", "--workload", "cora-dsg"]) == 0
    assert calls == [("a", ["cora-dsg"]), ("b", ["cora-dsg"])]
    assert capsys.readouterr().out == "cora-dsg train_loss: bitwise\n"
    assert canary_hash.main(["a", "c"]) == 1
    assert calls[-1] == ("c", [])
    assert "max relative deviation 5.000e-01" in capsys.readouterr().out
