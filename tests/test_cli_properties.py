"""Property: any `train` config ends in exit code 0, 2, 3 or 4, and a failure
is reported on one line of stderr, never as a traceback."""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

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
    ("train", "loss", ("binary_ce", "hinge", 5)),
    ("train", "input_dropout", (1.0, -0.1, "x")),
    ("train", "kernel_dropout", (2, None)),
    ("train", "weight_decay", ("x", 1e-3)),
    ("train", "momentum", (0.9,)),
    (None, "cv", (3, "x", [])),
    ("cv", "folds", (1, 0, -1, 100, "3", 2.5)),
    ("cv", "repeats", (0, -1, "2")),
    (None, "sweep_eta", ([1, 3], [], [-1], [None], "3", 4)),
    (None, "output_dir", ("sub/run", "", 5, [])),
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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(config=train_configs() | one_of([1, 2], "config", 3, None))
def test_any_train_config_exits_with_a_documented_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_toy_dataset(root / "toyds")
        write_tu_dir(root)
        path = root / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--config", str(path)])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
