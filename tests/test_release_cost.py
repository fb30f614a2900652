import importlib.util
import multiprocessing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("release_cost", ROOT / "tools" / "release_cost.py")
release_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(release_cost)


def test_estimate_arithmetic_and_report_on_fixed_numbers():
    rows = [release_cost.estimate("10a", 8, 4.96, 9.84),
            release_cost.estimate("10b", 20, 12.0, 24.0)]
    assert rows[0]["unit"] == "epoch" and rows[0]["release_units"] == 8000
    assert rows[0]["wall_s/unit"] == pytest.approx(0.62)
    assert rows[0]["cpu_h"] == pytest.approx(1.23 * 8000 / 3600)
    assert rows[1]["unit"] == "fold-epoch" and rows[1]["release_units"] == 25000
    assert rows[1]["wall_h"] == pytest.approx(0.6 * 25000 / 3600)
    lines = release_cost.report(rows)
    assert [line.split() for line in lines] == [
        ["check", "unit", "timed", "wall_s/unit", "cpu_s/unit", "release_units", "wall_h",
         "cpu_h"],
        ["10a", "epoch", "8", "0.620", "1.230", "8000", "1.38", "2.73"],
        ["10b", "fold-epoch", "20", "0.600", "1.200", "25000", "4.17", "8.33"],
        ["total", "5.54", "11.07"],
    ]


def _files(directory):
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*"))


def test_tiny_shapes_are_timed_in_child_processes():
    """Both checks run at their exact configurations on tiny shapes, each in a
    child that leaves no process behind and writes nothing under perfbench/."""
    before = _files(ROOT / "perfbench")
    gen = release_cost.load_gen()
    tu = gen.TUShape(n_graphs=60, min_nodes=6, max_nodes=10, edges_per_node=1.9,
                     n_node_labels=3, n_classes=6)
    rows = release_cost.measure(gen, gen.scaled_cora(60, 40), tu, seeds=2, epochs=1, cv_epochs=1)
    assert multiprocessing.active_children() == []
    assert _files(ROOT / "perfbench") == before
    assert [(r["check"], r["timed"]) for r in rows] == [("10a", 2), ("10b", 10)]
    for r in rows:
        assert r["wall_s/unit"] > 0 and r["cpu_s/unit"] > 0
        assert r["wall_h"] == pytest.approx(r["wall_s/unit"] * r["release_units"] / 3600)
        assert r["cpu_h"] == pytest.approx(r["cpu_s/unit"] * r["release_units"] / 3600)
    assert len(release_cost.report(rows)) == 4


def test_a_failing_check_names_itself():
    with pytest.raises(RuntimeError, match=r"^int failed: ValueError: invalid literal"):
        release_cost.in_child(int, "x")


def test_cpu_of_waited_for_children_is_counted():
    """A check's CPU seconds include those of the processes it waited for,
    such as fold workers: a child that only waits on a busy grandchild
    reports the grandchild's CPU."""
    def busy():
        def spin():
            total = 0
            for k in range(3_000_000):
                total += k
        process = multiprocessing.get_context("fork").Process(target=spin)
        return release_cost._timed(lambda: (process.start(), process.join()))

    wall, cpu = release_cost.in_child(busy)
    assert cpu > 0.5 * wall > 0
