"""Property: any `train` config, and any `analyze` run on a malformed
single-graph dataset or with malformed arguments, ends in exit code 0, 2, 3
or 4, and a failure is reported on one line of stderr, never as a traceback."""
import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from specgconv.cli import main
from test_cli import write_toy_dataset, write_tu_dir

# While collecting tests, Hypothesis caches the constants it reads from local
# source files in its storage directory, ./.hypothesis by default; keep that
# cache in a temporary directory, removed when the interpreter exits.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


def one_of(*values):
    return st.sampled_from(values)


MISSING = object()   # a malformed value that removes the field

# (section, field, replacement values): wrong types, zero and negative counts,
# unknown names, values that fit only the other fixture, and valid variants
MALFORMED = (
    (None, "dataset", ("toyds", [], 3)),
    ("dataset", "path", (3, "nope", "toyds/edges.csv", "TOY", "toyds", MISSING)),
    ("dataset", "kind", ("parquet", 3, "single", "tu")),
    ("dataset", "use_attributes", ("yes", True)),
    (None, "designs", ([], ["nope"], ["lowpass(eta=-1)"], ["lowpass(eta=nan)"], "allpass", [3],
                       ["bandpass(c=0.5,gamma=500)"], MISSING)),
    (None, "architecture", ("DSG8-DSG2", "G6-meanmax-D2", "DSG8-meanmax-D2", "G6-D2",
                            "G6-meanmax-D3", "G6-meanmax-G4-D2", "G0-D2", "XYZ9", "", 7, MISSING)),
    (None, "laplacian", ("comb", "bogus", 1)),
    (None, "output_activation", ("tanh", "softmax", 0)),
    (None, "hidden_bias", ("yes", True)),
    (None, "output_bias", (1, False)),
    (None, "train", ([1], "x", 3)),
    ("train", "epochs", (0, -1, 2.5, "2")),
    ("train", "learning_rate", (0.0, -0.1, "fast")),
    ("train", "batch_size", (0, -3, 1.5)),
    ("train", "seed", (-1, "a")),
    ("train", "loss", ("softmax_ce", "binary_ce", "hinge", 5)),
    ("train", "input_dropout", (1.0, -0.1, "x")),
    ("train", "kernel_dropout", (2, None)),
    ("train", "weight_decay", ("x", 1e-3)),
    ("train", "momentum", (0.9,)),
    (None, "cv", (3, "x", [])),
    ("cv", "folds", (1, 0, -1, 100, "3", 2.5)),
    ("cv", "repeats", (0, -1, "2")),
    (None, "sweep_eta", ([1, 3], [], [-1], [None], "3", 4)),
    (None, "output_dir", ("sub/run", "", 5, [])),
    # misspelt fields
    (None, "hiden_bias", (True,)),
    ("dataset", "use_attribute", (True,)),
    ("cv", "fold", (3,)),
    ("train", "epoch", (2,)),
)


@st.composite
def train_configs(draw):
    """A valid config for the toy single graph or the toy TU set, with up to
    three fields then replaced by malformed values. Epochs stay at most 2."""
    single = draw(st.booleans())
    cfg = {
        "dataset": {"path": "toyds", "kind": "single"} if single else {"path": "TOY", "kind": "tu"},
        "designs": draw(one_of(["allpass", "highpass"],
                               ["lowpass(eta=3)", "bandpass(c=0.5,gamma=2)", "allpass"])),
        "architecture": draw(one_of("DSG8-DSG2", "G4-D2") if single else
                             one_of("G6-meanmax-D2", "DSG6-meanmax-D2")),
        "train": {"epochs": draw(one_of(1, 2)), "learning_rate": 0.02, "seed": draw(one_of(0, 3)),
                  "batch_size": draw(one_of(1, 4)), "input_dropout": draw(one_of(0.0, 0.5)),
                  "kernel_dropout": draw(one_of(0.0, 0.3))},
    }
    if not single:
        cfg["cv"] = {"folds": draw(one_of(2, 3)), "repeats": draw(one_of(1, 2))}
    for _ in range(draw(st.integers(0, 3))):
        section, field, values = draw(one_of(*MALFORMED))
        target = cfg if section is None else cfg.setdefault(section, {})
        if not isinstance(target, dict):
            continue
        value = draw(one_of(*values))
        if value is MISSING:
            target.pop(field, None)
        else:
            target[field] = value
    return cfg


def run_quietly(argv):
    """(exit code, stderr) of one CLI run, with warnings silenced."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def assert_documented_exit(code, err):
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(config=train_configs() | one_of([1, 2], "config", 3, None))
def test_any_train_config_exits_with_a_documented_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_toy_dataset(root / "toyds")
        write_tu_dir(root)
        path = root / "config.json"
        path.write_text(json.dumps(config))
        code, err = run_quietly(["train", "--config", str(path)])
    assert_documented_exit(code, err)


# cells that are not valid where they land: empty, non-numeric, non-finite,
# fractional, negative and out-of-range values for the toy graph's 24 nodes
BAD_CELLS = ("", "x", "nan", "inf", "-inf", "1e999", "1.5", "-1", "24", "1000000", "-7",
             " 3", "0x10", "train", "val", "bogus", "2")


@st.composite
def malformed_files(draw):
    """{file name: change} for one to three of the toy graph's CSV files; a
    change deletes the file (None), empties it (""), cuts it to its header
    ("header_only") or is a list of (edit, row, column, cell) row edits."""
    changes = {}
    for name in draw(st.sets(one_of("edges.csv", "features.csv", "labels.csv", "split.csv"),
                             min_size=1, max_size=3)):
        how = draw(one_of("missing", "empty", "header_only", "edit"))
        changes[name] = {"missing": None, "empty": "", "header_only": "header_only"}.get(how, [
            (draw(one_of("short_row", "extra_field", "bad_cell", "blank_line", "drop_row")),
             draw(st.integers(0, 23)), draw(st.integers(0, 2)), draw(one_of(*BAD_CELLS)))
            for _ in range(draw(st.integers(1, 3)))])
    return changes


def apply_changes(directory, changes):
    for name, change in changes.items():
        path = directory / name
        if change is None:
            path.unlink()
            continue
        lines = path.read_text().splitlines()
        if change == "header_only":
            lines = lines[:1]
        elif isinstance(change, list):
            rows = [line.split(",") for line in lines[1:]]
            for edit, row, col, cell in change:
                if not rows:
                    break
                row %= len(rows)
                if edit == "short_row":
                    rows[row] = rows[row][:1]
                elif edit == "extra_field":
                    rows[row] = rows[row] + [cell]
                elif edit == "bad_cell":
                    rows[row] = rows[row][:col] + [cell] + rows[row][col + 1:]
                elif edit == "blank_line":
                    rows[row] = []
                else:
                    del rows[row]
            lines = lines[:1] + [",".join(r) for r in rows]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))


KERNELS = ("gcn", "cheb:1", "cheb:3", "cayley:1:1", "cayley:0.5:2", "gat:3", "gat:0",
           "design:lowpass(eta=3);highpass", "design:bandpass(c=0.5,gamma=500)")
BAD_KERNELS = ("cheb:0", "cheb:-2", "cheb:x", "cheb:", "cayley:0:1", "cayley:-1:1",
               "cayley:nan:1", "cayley:1:0", "cayley:1:-1", "cayley:x:1", "cayley:1", "design:",
               "design:;", "design:nope", "design:lowpass(eta=-1)", "design:lowpass(eta=nan)",
               "design:tabulated(file=none.csv)", "gat:", "gat:x", "gat:-1", "bogus", "", "gcn:1")
RINGS = ("ring3", "ring16", "ring40", "ring2", "ring0", "ring-4", "ringx", "ring", "ring 8", "missing")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graph=st.just("dataset") | one_of(*RINGS), changes=st.none() | malformed_files(),
       kernel=one_of(*KERNELS) | one_of(*BAD_KERNELS), trials=one_of(1, 2, 3, 1, 0, -1),
       laplacian=one_of("sym", "comb"), cached=st.booleans(),
       flags=st.lists(one_of("--abs", "--export-kernels"), unique=True))
def test_any_analyze_run_exits_with_a_documented_code(graph, changes, kernel, trials, laplacian,
                                                      flags, cached):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_toy_dataset(root / "toyds")
        if changes:
            apply_changes(root / "toyds", changes)
        spec = {"dataset": str(root / "toyds"), "missing": str(root / "nope")}.get(graph, graph)
        env = {"SPECGCONV_CACHE": str(root / "cache") if cached else ""}
        with mock.patch.dict(os.environ, env):
            code, err = run_quietly(["analyze", "--graph", spec, "--kernel", kernel,
                                     "--trials", str(trials), "--laplacian", laplacian,
                                     *flags, "--out", str(root / "out")])
    assert_documented_exit(code, err)


# cells that are not valid where they land in the toy TU set (12 graphs of 5
# or 6 nodes, 66 nodes): empty, non-numeric, non-finite, fractional, zero,
# negative and out-of-range ids, and a row with three fields
TU_BAD_CELLS = ("", "x", "nan", "inf", "1e999", "1.5", "2.0", "0", "-1", "13", "67", "1000000",
                "99999999999999999999", "1, 2, 3", "1 2 3", "5")


@st.composite
def malformed_tu_files(draw):
    """{file suffix: change} for one to three of the toy TU set's files; a
    change deletes the file (None), empties it (""), reverses its lines
    ("decreasing") or is a list of (edit, line, field, cell) line edits: a
    cell replaced, a line dropped, inserted, repeated or swapped with the
    one before it, or a field appended to a line (a ragged row)."""
    changes = {}
    # DS_A.txt, the attributes and line edits are drawn more often: a broken
    # indicator fails first
    for suffix in draw(st.lists(one_of("A", "A", "A", "graph_indicator", "graph_labels",
                                       "node_labels", "node_attributes", "node_attributes"),
                                min_size=1, max_size=3, unique=True)):
        how = draw(one_of("missing", "empty", "decreasing", "edit", "edit", "edit"))
        changes[suffix] = {"missing": None, "empty": "", "decreasing": "decreasing"}.get(how, [
            (draw(one_of("bad_cell", "drop_line", "extra_line", "repeat_line", "swap_lines",
                         "extra_field")), draw(st.integers(0, 160)),
             draw(st.integers(0, 2)), draw(one_of(*TU_BAD_CELLS)))
            for _ in range(draw(st.integers(1, 3)))])
    return changes


def apply_tu_changes(directory, changes):
    for suffix, change in changes.items():
        path = directory / f"TOY_{suffix}.txt"
        if change is None:
            path.unlink()
            continue
        lines = path.read_text().splitlines()
        if change == "decreasing":
            lines = lines[::-1]
        elif isinstance(change, list):
            for edit, line, field, cell in change:
                line %= len(lines) + 1
                if edit == "extra_line":
                    lines.insert(line, cell)
                elif line == len(lines):
                    continue
                elif edit == "drop_line":
                    del lines[line]
                elif edit == "repeat_line":
                    lines.insert(line, lines[line])
                elif edit == "swap_lines":   # line 0 swaps with the last
                    lines[line - 1], lines[line] = lines[line], lines[line - 1]
                elif edit == "extra_field":
                    lines[line] += f", {cell}"
                elif suffix in ("A", "node_attributes") and field < 2:   # one of the two fields
                    fields = lines[line].split(", ")
                    lines[line] = ", ".join(fields[:field] + [cell] + fields[field + 1:])
                else:
                    lines[line] = cell
        else:
            lines = []
        path.write_text("\n".join(lines) + ("\n" if lines else ""))


def write_tu_attributes(directory):
    """Two continuous attributes per node of the toy TU set."""
    n_nodes = len((directory / "TOY_graph_indicator.txt").read_text().split())
    (directory / "TOY_node_attributes.txt").write_text(
        "".join(f"{0.25 * i}, {-1.5 * (i % 3)}\n" for i in range(n_nodes)))
    return directory


# cheb(k=6) is above the node count of the toy set's 5-node graphs, which
# must not refuse it: only a graph set whose largest graph is smaller does
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(changes=malformed_tu_files(),
       designs=one_of(["allpass", "highpass"], ["cheb(k=2)", "cheb(k=6)"]),
       use_attributes=one_of(True, True, False))
def test_any_train_run_on_a_malformed_tu_set_exits_with_a_documented_code(changes, designs,
                                                                           use_attributes):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        apply_tu_changes(write_tu_attributes(write_tu_dir(root)), changes)
        config = {"dataset": {"path": "TOY", "kind": "tu", "use_attributes": use_attributes},
                  "designs": designs,
                  "architecture": "G6-meanmax-D2", "train": {"epochs": 1, "batch_size": 4},
                  "cv": {"folds": 2, "repeats": 1}}
        path = root / "config.json"
        path.write_text(json.dumps(config))
        code, err = run_quietly(["train", "--config", str(path)])
    assert_documented_exit(code, err)
