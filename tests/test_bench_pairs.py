import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(parent, change, workload="cora-dsg"):
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"side": side, "workload": workload, "seed": 100 + k, "first": "parent",
                         "failed": 0, "attempted": 3, "setup_s": 1.0, "step_s": value,
                         "peak_rss_mb": 50.0})
    return runs


def test_summary_arithmetic_on_fixed_numbers():
    parent = [2.0, 2.2, 1.8, 2.4, 2.0]
    change = [1.5, 2.2, 1.6, 2.5, 1.0]   # lower, tie, lower, higher, lower
    s = bench_pairs.summarize(_runs(parent, change))["cora-dsg"]
    step = s["step_s"]
    assert step["pairs"] == 5
    assert step["parent_median"] == 2.0 and step["change_median"] == 1.6
    # weibull quartiles of five values sit at ranks 1.5 and 4.5
    assert step["parent_quartiles"] == pytest.approx([1.9, 2.3])
    assert step["change_quartiles"] == pytest.approx([1.25, 2.35])
    assert step["parent_iqr"] == pytest.approx(0.4)
    assert step["change_lower_in"] == 3         # the tie counts for neither side
    assert step["rel_change"] == pytest.approx(-0.2)
    assert step["parent"] == parent and step["change"] == change
    assert s["setup_s"]["change_lower_in"] == 0          # every pair tied
    assert s["failed"] == {"parent": 0, "change": 0, "attempted_parent": 15,
                           "attempted_change": 15}
    assert not bench_pairs.claim_holds(step)            # 3 of 5 pairs


def _step_stats(parent, change):
    return bench_pairs.summarize(_runs(parent, change))["cora-dsg"]["step_s"]


def test_claim_rule_needs_nine_in_ten_and_a_gap_above_the_parent_iqr():
    parent = [2.0 + 0.01 * k for k in range(10)]
    change = [p - 0.5 for p in parent]
    assert bench_pairs.claim_holds(_step_stats(parent, change))
    assert bench_pairs.claim_holds(_step_stats(parent, change[:9] + parent[9:]))      # one tie
    assert not bench_pairs.claim_holds(_step_stats(parent, change[:8] + parent[8:]))  # two
    near = _step_stats(parent, [p - 0.05 for p in parent])   # gap 0.05, parent IQR 0.055
    assert near["change_lower_in"] == 10 and not bench_pairs.claim_holds(near)


def test_unpaired_runs_are_left_out_of_the_summary():
    runs = _runs([2.0, 2.1], [1.0, 1.1])
    runs.append({"side": "parent", "workload": "cora-dsg", "seed": 999, "first": "parent",
                 "failed": 1, "attempted": 3, "step_s": 9.0})
    s = bench_pairs.summarize(runs)["cora-dsg"]
    assert s["step_s"]["pairs"] == 2 and s["failed"]["parent"] == 0


def test_no_regression_verdict_reads_the_bound_of_each_metric(tmp_path):
    doc = {"end_to_end": [{"name": "setup_s", "bound": 0.25, "better": "lower"},
                          {"name": "step_s", "bound": 0.1, "better": "lower"}]}
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(doc))
    before = path.read_text()
    bounds = bench_pairs.read_bounds(path)
    assert bounds == {"setup_s": (0.25, "lower"), "step_s": (0.1, "lower")}
    assert path.read_text() == before
    parent = [2.0] * 10
    assert bench_pairs.within_bound(_step_stats(parent, [2.19] * 10), 0.1)   # +9.5 %
    assert not bench_pairs.within_bound(_step_stats(parent, [2.21] * 10), 0.1)
    assert bench_pairs.within_bound(_step_stats(parent, [1.0] * 10), 0.1)
    # a higher-is-better metric regresses when its median falls
    assert not bench_pairs.within_bound(_step_stats(parent, [1.7] * 10), 0.1, better="higher")
    assert bench_pairs.within_bound(_step_stats(parent, [2.5] * 10), 0.1, better="higher")


def test_report_prints_both_verdicts_per_metric():
    summary = bench_pairs.summarize(_runs([2.0] * 10, [2.3] * 10))
    lines = bench_pairs.report(summary, {"step_s": (0.1, "lower"),
                                         "peak_rss_mb": (0.1, "lower")}).splitlines()
    step = next(line for line in lines if " step_s: " in line)
    assert step.endswith("claim does not hold; no regression fails (bound 10%)")
    rss = next(line for line in lines if " peak_rss_mb: " in line)
    assert rss.endswith("claim does not hold; no regression holds (bound 10%)")
    setup = next(line for line in lines if " setup_s: " in line)
    assert setup.endswith("claim does not hold")       # no bound given for it
    assert "no regression" not in bench_pairs.report(summary)


def test_no_regression_is_unresolved_when_the_parent_spread_exceeds_the_bound():
    parent = [1.5, 1.8, 2.0, 2.2, 2.5] * 2          # IQR 0.55, 27.5 % of the median 2.0
    wide = _step_stats(parent, [p + 0.01 for p in parent])
    assert bench_pairs.within_bound(wide, 0.25)
    assert bench_pairs.no_regression(wide, 0.25) == "unresolved"
    assert bench_pairs.no_regression(wide, 0.35) == "holds"        # bound above the spread
    assert bench_pairs.no_regression(_step_stats(parent, [3.0] * 10), 0.25) == "fails"
    # every change run below every parent run settles it
    assert bench_pairs.no_regression(_step_stats(parent, [1.4] * 10), 0.25) == "holds"
    assert bench_pairs.no_regression(_step_stats(parent, [1.4] * 9 + [1.5]), 0.25) == \
        "unresolved"                                                # a tie with the best
    assert bench_pairs.no_regression(_step_stats(parent, [2.6] * 10), 0.25,
                                     better="higher") == "holds"
    line = bench_pairs.report(bench_pairs.summarize(_runs(parent, [p + 0.01 for p in parent])),
                              {"step_s": (0.25, "lower")}).splitlines()[1]
    assert line.endswith("no regression unresolved (bound 25%)")


def test_extending_a_file_with_runs_of_another_commit_is_refused(tmp_path, monkeypatch):
    """A BENCH file records the parent and change revisions of its runs; a
    checkout at another revision is refused before any run, with one line,
    and the file is left as it was. So is a checkout that is no git
    repository, whose revision is unknown."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    out = tmp_path / "BENCH_1.json"
    out.write_text(json.dumps({"parent": "aaa1111", "change": "bbb2222", "runs": []}))
    before = out.read_text()
    revisions = {str(parent): "aaa1111", str(change): "ccc3333"}
    monkeypatch.setattr(bench_pairs, "_revision", lambda checkout: revisions[str(checkout)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a benchmark ran"))
    argv = [str(parent), str(change), "--workload", "cora-dsg", "--seeds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert str(info.value) == f"{out} holds change runs of bbb2222, but {change} is at ccc3333"
    assert out.read_text() == before
    revisions[str(change)] = None                  # not a git checkout
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert str(info.value) == (f"{change} is not a git checkout, so its runs would name no "
                               "revision; make it with git clone, not git archive")
    assert out.read_text() == before
    out.unlink()                                   # nor does a new file name it
    with pytest.raises(SystemExit):
        bench_pairs.main(argv)
    assert not out.exists()


def test_a_directory_outside_git_has_no_revision(tmp_path):
    assert bench_pairs._revision(tmp_path) is None


def test_run_record_keeps_the_host_calibration():
    """The "perfbench" line before the result carries the host's calibration;
    the run record keeps both figures beside the metrics it measured."""
    fingerprint = {"workload": "enzymes-cv", "seed": 5, "fingerprint": {"cpu": "x"},
                   "calibration": {"gemm_gflop_per_s": 61.5, "py_loop_mops": 22.25},
                   "setup_s": [0.7], "step_s": [1.1, 1.2]}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"setup_s": {"value": 0.7, "unit": "s"},
                          "step_s": {"value": 1.15, "unit": "s"},
                          "peak_rss_mb": {"value": 98.5, "unit": "MB"},
                          "machine.gemm_gflop_per_s": {"value": 61.5, "unit": "GFLOP/s"}}}
    lines = ["a progress line", json.dumps({"perfbench": fingerprint}), json.dumps(result)]
    record = bench_pairs.read_record(lines)
    assert record == {"failed": 0, "attempted": 4, "setup_s": 0.7, "step_s": 1.15,
                      "peak_rss_mb": 98.5,
                      "calibration": {"gemm_gflop_per_s": 61.5, "py_loop_mops": 22.25}}
    with pytest.raises(IndexError):
        bench_pairs.read_record(lines[-1:])       # no line before the result
    runs = _runs([2.0, 2.1], [1.0, 1.1])
    for run in runs:
        run["calibration"] = record["calibration"]
    assert set(bench_pairs.summarize(runs)["cora-dsg"]) == {*bench_pairs.METRICS, "failed"}
