"""tools/convert_planetoid.py on a tiny synthetic Planetoid set."""
import collections
import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from specgconv.data import load_single_graph

sp = pytest.importorskip("scipy.sparse")

_PATH = Path(__file__).resolve().parents[1] / "tools" / "convert_planetoid.py"
_SPEC = importlib.util.spec_from_file_location("convert_planetoid", _PATH)
convert_planetoid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(convert_planetoid)

N_TRAIN = 4        # x, y: the first nodes
N_ALL = 506        # allx, ally: the train nodes, the 500 validation nodes and 2 more
# tx, ty rows come in the shuffled order of the test index; node 509 lies in
# the test range but is missing from it, as citeseer's isolated test nodes are
TEST_INDEX = [511, 506, 510, 508, 507]
GAP = 509
N = 512
CLASSES = 3


def node_rows(nodes):
    """Features that name their node ([node, 1]) and one-hot labels node % 3."""
    nodes = np.asarray(nodes)
    features = np.column_stack([nodes, np.ones(nodes.size)]).astype(np.float32)
    return sp.csr_matrix(features), np.eye(CLASSES)[nodes % CLASSES]


def expected_edges():
    # a path through every node but the gap, and one chord
    path = [v for v in range(N) if v != GAP]
    return set(zip(path[:-1], path[1:])) | {(0, 300)}


def write_planetoid(root, name):
    x, y = node_rows(range(N_TRAIN))
    allx, ally = node_rows(range(N_ALL))
    tx, ty = node_rows(TEST_INDEX)
    graph = collections.defaultdict(list)
    for a, b in expected_edges():
        graph[a].append(b)
        graph[b].append(a)
    graph[5].append(5)        # a self-loop and a neighbour outside the graph: both dropped
    graph[7].append(N + 3)
    for part, obj in (("x", x), ("y", y), ("tx", tx), ("ty", ty), ("allx", allx),
                      ("ally", ally), ("graph", graph)):
        with open(root / f"ind.{name}.{part}", "wb") as fh:
            pickle.dump(obj, fh)
    (root / f"ind.{name}.test.index").write_text("".join(f"{i}\n" for i in TEST_INDEX))


def test_converted_planetoid_set_loads_with_its_edges_labels_and_split(tmp_path, capsys):
    write_planetoid(tmp_path, "citeseer")
    out = tmp_path / "out"
    convert_planetoid.convert(str(tmp_path), "citeseer", str(out))
    assert capsys.readouterr().out == f"wrote {out}: n={N}, f=2, train=4, val=500, test=5\n"

    ds = load_single_graph(out)
    nodes = np.arange(N)
    present = nodes != GAP
    assert ds.graph.n == N
    assert np.array_equal(ds.graph.features[:, 0], np.where(present, nodes, 0))
    assert np.array_equal(ds.graph.features[:, 1], present.astype(float))
    assert np.array_equal(ds.labels, np.where(present, nodes % CLASSES, -1))
    i, j = np.nonzero(np.triu(ds.graph.adjacency))
    assert set(zip(i.tolist(), j.tolist())) == expected_edges()
    assert np.all(ds.graph.adjacency[i, j] == 1.0)
    assert np.flatnonzero(ds.masks["train"]).tolist() == list(range(N_TRAIN))
    assert np.flatnonzero(ds.masks["val"]).tolist() == list(range(N_TRAIN, N_TRAIN + 500))
    assert np.flatnonzero(ds.masks["test"]).tolist() == sorted(TEST_INDEX)
