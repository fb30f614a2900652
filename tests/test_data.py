import tracemalloc

import numpy as np
import pytest

from specgconv.data import (
    MultiGraphDataset,
    SingleGraphDataset,
    load_matrix_csv,
    load_single_graph,
    load_tu_dataset,
    make_folds,
    save_matrix_csv,
)
from scaffold import random_graph


def write_single_graph(root, with_split=True, weight_col=False):
    (root / "features.csv").write_text("c0,c1\n1,0\n0,1\n0.5,0.5\n")
    if weight_col:
        (root / "edges.csv").write_text("src,dst,weight\n0,1,2.5\n1,2,1\n")
    else:
        (root / "edges.csv").write_text("src,dst\n0,1\n1,2\n1,0\n")
    (root / "labels.csv").write_text("label\n0\n1\n-1\n")
    if with_split:
        (root / "split.csv").write_text("node,role\n0,train\n1,val\n2,test\n")


def test_load_single_graph_toy(tmp_path):
    write_single_graph(tmp_path)
    ds = load_single_graph(tmp_path)
    assert ds.graph.n == 3
    assert np.array_equal(ds.graph.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(ds.labels, [0, 1, -1])
    assert ds.masks["train"].tolist() == [True, False, False]
    assert ds.masks["test"].tolist() == [False, False, True]


def test_reciprocal_edges_collapse(tmp_path):
    write_single_graph(tmp_path)  # edges include both 0,1 and 1,0
    ds = load_single_graph(tmp_path)
    assert ds.graph.adjacency[0, 1] == 1.0 and ds.graph.adjacency[1, 0] == 1.0


def test_edge_weights(tmp_path):
    write_single_graph(tmp_path, weight_col=True)
    ds = load_single_graph(tmp_path)
    assert ds.graph.adjacency[0, 1] == 2.5


def test_edge_listed_again_with_another_weight_is_refused_by_line(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,2.0\n1,2,1\n1,0,3.0\n")
    with pytest.raises(ValueError, match=r"^edges.csv line 4: edge 1-0 listed again with "
                                         r"weight 3\.0, after weight 2\.0 on line 2$"):
        load_single_graph(tmp_path)


def test_edge_listed_again_with_the_same_weight_is_read(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,2.0\n1,0,2.0\n1,2,1\n1,2,1\n")
    adjacency = load_single_graph(tmp_path).graph.adjacency
    assert np.array_equal(adjacency, [[0, 2, 0], [2, 0, 1], [0, 1, 0]])


def test_missing_split_defaults_to_train(tmp_path):
    write_single_graph(tmp_path, with_split=False)
    (tmp_path / "labels.csv").write_text("label\n0\n1\n1\n")
    with pytest.warns(UserWarning, match="split.csv"):
        ds = load_single_graph(tmp_path)
    assert ds.masks["train"].all()


def test_self_loop_rejected(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "edges.csv").write_text("src,dst\n0,0\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_single_graph(tmp_path)


def test_out_of_range_node(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "edges.csv").write_text("src,dst\n0,9\n")
    with pytest.raises(ValueError, match="out of range"):
        load_single_graph(tmp_path)


@pytest.mark.parametrize("name,text,message", [
    ("edges.csv", "", "edges.csv is empty: expected a header row"),
    ("labels.csv", "", "labels.csv is empty: expected a header row"),
    ("edges.csv", "src,dst\n0,1\n\n2\n", "edges.csv line 4: expected 2 fields, got 1"),
    ("split.csv", "node,role\n0,train\n1\n", "split.csv line 3: expected 2 fields, got 1"),
])
def test_headerless_file_or_short_row_is_one_line_error(tmp_path, name, text, message):
    write_single_graph(tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError) as info:
        load_single_graph(tmp_path)
    assert str(info.value) == message


def test_header_only_features_is_refused(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "features.csv").write_text("c0,c1\n")
    with pytest.raises(ValueError) as info:
        load_single_graph(tmp_path)
    assert str(info.value) == (f"{tmp_path / 'features.csv'}: no node rows; "
                               "a graph needs at least one node")


def test_overlapping_roles_rejected(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "split.csv").write_text("node,role\n0,train\n0,test\n")
    with pytest.raises(ValueError, match="two roles"):
        load_single_graph(tmp_path)


@pytest.mark.parametrize("node", [-1, 3])
def test_split_node_out_of_range_rejected(tmp_path, node):
    # -1 must not wrap to the last node; 3 is one past the end (n=3)
    write_single_graph(tmp_path)
    (tmp_path / "split.csv").write_text(f"node,role\n0,train\n{node},test\n")
    with pytest.raises(ValueError, match=r"split.csv line 3: node index .* out of range"):
        load_single_graph(tmp_path)


@pytest.mark.parametrize("name,text,message", [
    ("edges.csv", "src,dst\n0,1\n1,x\n",
     "edges.csv line 3: invalid literal for int() with base 10: 'x'"),
    ("edges.csv", "src,dst\n0,1\n1,2.0\n",
     "edges.csv line 3: invalid literal for int() with base 10: '2.0'"),
    ("edges.csv", "src,dst,weight\n0,1,inf\n",
     "{dir}: edge 0 (0, 1): weight inf; edge weights must be finite and nonnegative"),
    ("edges.csv", "src,dst,weight\n0,1,nan\n1,0,nan\n",
     "{dir}: edge 0 (0, 1): weight nan; edge weights must be finite and nonnegative"),
    ("edges.csv", "src,dst,weight\n0,1,1\n1,2,2\n1,0,nan\n",
     "edges.csv line 4: edge 1-0 listed again with weight nan, after weight 1.0 on line 2"),
    ("edges.csv", "src,dst,weight\n0,1,1\n1,2,-2\n",
     "{dir}: edge 1 (1, 2): weight -2.0; edge weights must be finite and nonnegative"),
    ("edges.csv", "src,dst,weight\n0,1,w\n",
     "edges.csv line 2: could not convert string to float: 'w'"),
    ("labels.csv", "label\n0\n1.5\n-1\n", "labels.csv line 3: expected an integer, got '1.5'"),
    ("labels.csv", "label\n0\n\n1\ninf\n", "labels.csv line 5: expected an integer, got 'inf'"),
    ("labels.csv", "label\nnan\n1\n-1\n", "labels.csv line 2: expected an integer, got 'nan'"),
    ("labels.csv", "label\n1e999\n1\n-1\n",
     "labels.csv line 2: expected an integer, got '1e999'"),
    ("split.csv", "node,role\n0,train\nx,val\n",
     "split.csv line 3: invalid literal for int() with base 10: 'x'"),
    ("features.csv", "c0,c1\n1,0\n0,inf\n0.5,0.5\n",
     "{dir}: feature entries must be finite; node 1 has one that is not"),
])
def test_bad_cell_is_named_by_file_and_line(tmp_path, name, text, message):
    write_single_graph(tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError) as info:
        load_single_graph(tmp_path)
    assert str(info.value) == message.format(dir=tmp_path)


def test_integral_float_label_is_read(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "labels.csv").write_text("label\n0.0\n1e0\n-1\n")
    assert load_single_graph(tmp_path).labels.tolist() == [0, 1, -1]


@pytest.mark.parametrize("text,message", [
    ("c0,c1\n1,0\n0,x\n", "line 3: could not convert string to float: 'x'"),
    ("c0,c1\n1,0\n\n0,1,2\n", "line 4: 3 fields, the first row has 2"),
    ("c0,c1\n1,0\n0\n", "line 3: 1 fields, the first row has 2"),
    # numpy's float grammar: no quotes, no digit-group underscores, no comments
    ('c0,c1\n1,0\n"1",0\n', "line 3: could not convert string to float: '\"1\"'"),
    ("c0,c1\n1_0,0\n", "line 2: could not convert string to float: '1_0'"),
    ("c0,c1\n1,0\n0,1#2\n", "line 3: could not convert string to float: '1#2'"),
    ("c0,c1\n1,0,\n", "line 2: could not convert string to float: ''"),
    # a blank line counts as a line; a line of spaces is a row with one empty cell
    ("c0,c1\n1,0\n\n\n0,x\n", "line 5: could not convert string to float: 'x'"),
    ("c0,c1\n1,0\n  \n", "line 3: could not convert string to float: '  '"),
    ("c0,c1\r\n1,0\r\n\r\n0,x\r\n", "line 4: could not convert string to float: 'x'"),
])
def test_unreadable_matrix_csv_row_is_named_by_line(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        load_matrix_csv(path)
    assert str(info.value) == f"{path} {message}"


@pytest.mark.parametrize("text,rows", [
    ("c0,c1\n", []),
    ("c0,c1\n\n\n", []),
    ("c0,c1\n1,2\n\n3,4\n", [[1, 2], [3, 4]]),
    ("c0,c1\r\n1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
    ("c0,c1\n 1 ,\t2\n-inf,nan\n", [[1, 2], [-np.inf, np.nan]]),
])
def test_matrix_csv_blank_lines_crlf_and_header_only_are_read(tmp_path, text, rows):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    m = load_matrix_csv(path)
    assert m.dtype == np.float64 and m.shape == (len(rows), 2)
    assert np.array_equal(m, np.array(rows, dtype=float).reshape(-1, 2), equal_nan=True)


def test_unlabeled_train_node_rejected(tmp_path):
    write_single_graph(tmp_path)
    (tmp_path / "split.csv").write_text("node,role\n2,train\n")
    with pytest.raises(ValueError, match="class label"):
        load_single_graph(tmp_path)


def test_load_single_graph_allocates_no_n_by_n_array(tmp_path):
    """Loading a 500-node graph with 1500 edge rows peaks below half an
    n x n float array: the graph is its edge list. Filling a dense adjacency
    and copying it took two such arrays."""
    n = 500
    rng = np.random.default_rng(0)
    src = rng.integers(0, n, 3 * n)
    dst = (src + rng.integers(1, n, 3 * n)) % n
    (tmp_path / "edges.csv").write_text(
        "src,dst\n" + "".join(f"{a},{b}\n" for a, b in zip(src, dst)))
    (tmp_path / "features.csv").write_text("c0,c1\n" + "1,0\n" * n)
    (tmp_path / "labels.csv").write_text("label\n" + "0\n" * n)
    (tmp_path / "split.csv").write_text("node,role\n0,train\n")
    tracemalloc.start()
    try:
        ds = load_single_graph(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n
    assert ds.graph.n == n and len(ds.graph.edges) > 2 * n


def test_loading_is_pure(tmp_path):
    write_single_graph(tmp_path)
    a = load_single_graph(tmp_path)
    b = load_single_graph(tmp_path)
    assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
    assert np.array_equal(a.graph.features, b.graph.features)
    assert np.array_equal(a.labels, b.labels)


def write_tu_fixture(root):
    """Three tiny graphs: a triangle, one edge, one 4-path."""
    d = root / "TOY"
    d.mkdir()
    edges = [
        (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1),   # graph 1: triangle
        (4, 5), (5, 4),                                   # graph 2: edge
        (6, 7), (7, 6), (7, 8), (8, 7), (8, 9), (9, 8),   # graph 3: path
    ]
    (d / "TOY_A.txt").write_text("\n".join(f"{a}, {b}" for a, b in edges) + "\n")
    indicator = [1, 1, 1, 2, 2, 3, 3, 3, 3]
    (d / "TOY_graph_indicator.txt").write_text("\n".join(map(str, indicator)) + "\n")
    (d / "TOY_graph_labels.txt").write_text("5\n7\n5\n")
    (d / "TOY_node_labels.txt").write_text("0\n1\n0\n2\n2\n1\n1\n0\n2\n")
    (d / "TOY_node_attributes.txt").write_text("\n".join(f"{i}.5, {-i}.25" for i in range(9)) + "\n")
    return d


def test_tu_fixture_adjacency(tmp_path):
    ds = load_tu_dataset(write_tu_fixture(tmp_path))
    assert len(ds) == 3
    tri = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(ds.graphs[0].adjacency, tri)
    assert np.array_equal(ds.graphs[1].adjacency, [[0, 1], [1, 0]])
    path4 = np.zeros((4, 4))
    for i in range(3):
        path4[i, i + 1] = path4[i + 1, i] = 1
    assert np.array_equal(ds.graphs[2].adjacency, path4)


def test_tu_labels_remapped_and_onehot(tmp_path):
    ds = load_tu_dataset(write_tu_fixture(tmp_path))
    assert ds.n_classes == 2
    assert np.array_equal(ds.labels, [0, 1, 0])
    # node labels {0,1,2} one-hot encoded, width consistent across graphs
    assert all(g.features.shape[1] == 3 for g in ds.graphs)
    assert np.array_equal(ds.graphs[0].features, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])


def test_tu_attributes_appended(tmp_path):
    d = write_tu_fixture(tmp_path)
    ds = load_tu_dataset(d, use_attributes=True)
    assert all(g.features.shape[1] == 5 for g in ds.graphs)
    assert ds.graphs[0].features[0, 3] == 0.5
    assert ds.graphs[0].features[1, 4] == -1.25


def test_tu_missing_node_labels_gives_constant_feature(tmp_path):
    d = write_tu_fixture(tmp_path)
    (d / "TOY_node_labels.txt").unlink()
    ds = load_tu_dataset(d)
    assert all(g.features.shape[1] == 1 for g in ds.graphs)
    assert all(np.all(g.features == 1.0) for g in ds.graphs)


def test_tu_self_loop_rows_dropped_with_warning(tmp_path):
    d = write_tu_fixture(tmp_path)
    content = (d / "TOY_A.txt").read_text()
    (d / "TOY_A.txt").write_text(content + "1, 1\n")
    with pytest.warns(UserWarning, match="self-loop"):
        ds = load_tu_dataset(d)
    assert ds.graphs[0].adjacency[0, 0] == 0.0
    assert np.array_equal(ds.graphs[0].edges, [[0, 1], [0, 2], [1, 2]])


def test_tu_graph_without_edges_holds_an_empty_edge_list(tmp_path):
    d = write_tu_files(tmp_path, [1, 1, 2, 3, 3, 3], "6, 5\n1, 2\n4, 5\n2, 1\n",
                       labels=(1, 2, 1))
    ds = load_tu_dataset(d)
    assert [g.edges.tolist() for g in ds.graphs] == [[[0, 1]], [], [[0, 1], [1, 2]]]
    assert ds.graphs[1].edges.shape == (0, 2)


def test_tu_cross_graph_edge_rejected(tmp_path):
    d = write_tu_fixture(tmp_path)
    (d / "TOY_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n6, 7\n7, 6\n")
    with pytest.raises(ValueError, match="crosses graphs"):
        load_tu_dataset(d)


def write_tu_files(root, indicator, edges, labels=(1, 2)):
    d = root / "TOY"
    d.mkdir()
    (d / "TOY_graph_indicator.txt").write_text("\n".join(map(str, indicator)) + "\n")
    (d / "TOY_graph_labels.txt").write_text("\n".join(map(str, labels)) + "\n")
    (d / "TOY_A.txt").write_text(edges)
    return d


def test_tu_edges_in_any_order_rebuild_each_graph(tmp_path):
    """Edge rows shuffled across graphs, one direction only, repeated or
    self-looped load back as the graphs they were written from."""
    rng = np.random.default_rng(0)
    graphs = [random_graph(int(n), 0.3, seed=k) for k, n in enumerate(rng.integers(2, 9, 15))]
    offsets = np.cumsum([0] + [g.n for g in graphs])
    edges = [(offsets[k] + i + 1, offsets[k] + j + 1) for k, g in enumerate(graphs)
             for i, j in zip(*np.nonzero(np.triu(g.adjacency)))]
    edges += edges[:5] + [(1, 1), (offsets[-1], offsets[-1])]
    edges = [edges[i] if i % 2 else edges[i][::-1] for i in rng.permutation(len(edges))]
    indicator = np.repeat(np.arange(1, len(graphs) + 1), [g.n for g in graphs])
    d = write_tu_files(tmp_path, indicator, "".join(f"{a}, {b}\n" for a, b in edges),
                       labels=[k % 2 for k in range(len(graphs))])
    with pytest.warns(UserWarning, match="dropped 2 self-loop edge rows"):
        ds = load_tu_dataset(d)
    assert all(np.array_equal(a.adjacency, g.adjacency) for a, g in zip(ds.graphs, graphs))


def test_tu_node_id_zero_does_not_wrap(tmp_path):
    # id 0 would read indicator[-1] and add the edge (1, 2) in graph 2
    d = write_tu_files(tmp_path, [1, 2, 2, 2], "2, 3\n3, 2\n0, 4\n4, 0\n")
    with pytest.raises(ValueError) as info:
        load_tu_dataset(d)
    assert str(info.value) == "TOY_A.txt line 3: node id out of range 1..4"


@pytest.mark.parametrize("edges,message", [
    ("1, 2\n2, 1\n7, 8\n8, 10\n", "TOY_A.txt line 4: node id out of range 1..9"),
    ("1, 2\n\n2, -1\n", "TOY_A.txt line 3: node id out of range 1..9"),
    ("1, 2\n2\n", "TOY_A.txt line 2: expected two integer node ids, got '2'"),
    ("1, 2\n2, 1, 3\n", "TOY_A.txt line 2: expected two integer node ids, got '2, 1, 3'"),
    ("1, 2\n2, x\n", "TOY_A.txt line 2: expected two integer node ids, got '2, x'"),
    ("1, 2\n2, 1e999\n", "TOY_A.txt line 2: expected two integer node ids, got '2, 1e999'"),
    ("1, 2\n2, 99999999999999999999\n", "TOY_A.txt line 2: node id out of range 1..9"),
])
def test_tu_bad_edge_row_is_named_by_line(tmp_path, edges, message):
    d = write_tu_fixture(tmp_path)
    (d / "TOY_A.txt").write_text(edges)
    with pytest.raises(ValueError) as info:
        load_tu_dataset(d)
    assert str(info.value) == message


@pytest.mark.parametrize("file,text,message", [
    ("graph_indicator", "1\n1\nx\n",
     "TOY_graph_indicator.txt line 3: invalid literal for int() with base 10: 'x'"),
    ("graph_indicator", "1\n1\n2.0\n",
     "TOY_graph_indicator.txt line 3: invalid literal for int() with base 10: '2.0'"),
    ("graph_indicator", "1\n1\n99999999999999999999\n",
     "TOY_graph_indicator.txt line 3: Python int too large to convert to C long"),
    ("graph_labels", "5\n\n7.5\n5\n", "TOY_graph_labels.txt line 3: expected an integer, got '7.5'"),
    ("node_labels", "0\n1\n0\n2\n2\n1\n1\n0\ninf\n",
     "TOY_node_labels.txt line 9: expected an integer, got 'inf'"),
    ("graph_indicator", "", "TOY_graph_indicator.txt lists no nodes"),
    ("graph_indicator", "0\n1\n1\n2\n2\n3\n3\n3\n3\n", "TOY_graph_indicator.txt: node 1 "
     "has graph id 0; graph ids must run 1, 2, ... in non-decreasing order"),
    ("graph_indicator", "1\n1\n1\n3\n3\n3\n3\n3\n3\n", "TOY_graph_indicator.txt: node 4 "
     "has graph id 3; graph ids must run 1, 2, ... in non-decreasing order"),
    ("graph_indicator", "1\n1\n2\n1\n2\n3\n3\n3\n3\n", "TOY_graph_indicator.txt: node 4 "
     "has graph id 1; graph ids must run 1, 2, ... in non-decreasing order"),
])
def test_tu_bad_list_file_is_refused(tmp_path, file, text, message):
    d = write_tu_fixture(tmp_path)
    (d / f"TOY_{file}.txt").write_text(text)
    with pytest.raises(ValueError) as info:
        load_tu_dataset(d)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("0.5, 1\n1.5, x\n", "TOY_node_attributes.txt line 2: could not convert string to float: 'x'"),
    ("0.5, 1\n\n1.5\n", "TOY_node_attributes.txt line 3: 1 fields, the first row has 2"),
    ("0.5\n1.5 2 3\n", "TOY_node_attributes.txt line 2: 3 fields, the first row has 1"),
    ("0.5, 1\n1.5, nan\n", "TOY_node_attributes.txt line 2: expected a finite number, "
     "got 'nan'"),
    ("0.5, 1\n\n-inf 2\n", "TOY_node_attributes.txt line 3: expected a finite number, "
     "got '-inf'"),
    ("0.5, 1e999\n", "TOY_node_attributes.txt line 1: expected a finite number, got '1e999'"),
])
def test_tu_bad_attribute_row_is_named_by_line(tmp_path, text, message):
    d = write_tu_fixture(tmp_path)
    (d / "TOY_node_attributes.txt").write_text(text)
    with pytest.raises(ValueError) as info:
        load_tu_dataset(d, use_attributes=True)
    assert str(info.value) == message


@pytest.mark.parametrize("file,text,message", [
    ("graph_labels", "5\n7\n", "TOY_graph_labels.txt: 2 rows, "
     "TOY_graph_indicator.txt lists 3 graphs"),
    ("node_labels", "0\n1\n0\n2\n2\n1\n1\n0\n2\n1\n", "TOY_node_labels.txt: 10 rows, "
     "TOY_graph_indicator.txt lists 9 nodes"),
    ("node_attributes", "0.5\n1.5\n", "TOY_node_attributes.txt: 2 rows, "
     "TOY_graph_indicator.txt lists 9 nodes"),
])
def test_tu_row_count_mismatch_names_both_files_and_counts(tmp_path, file, text, message):
    d = write_tu_fixture(tmp_path)
    (d / f"TOY_{file}.txt").write_text(text)
    with pytest.raises(ValueError) as info:
        load_tu_dataset(d, use_attributes=True)
    assert str(info.value) == message


def dataset_with_labels(labels):
    g = random_graph(5, 0.5, seed=0)
    labels = np.asarray(labels)
    return MultiGraphDataset(graphs=tuple([g] * labels.size), labels=labels,
                             n_classes=int(labels.max()) + 1)


def test_make_folds_one_per_fold():
    ds = dataset_with_labels(np.zeros(10, int))
    folds = make_folds(ds, k=10, seed=1)
    assert sorted(folds.tolist()) == list(range(10))


def test_make_folds_balanced_and_stratified():
    labels = np.repeat(np.arange(6), 100)  # 600 graphs, 6 classes
    ds = dataset_with_labels(labels)
    folds = make_folds(ds, k=10, seed=3)
    sizes = np.bincount(folds, minlength=10)
    assert np.all(sizes == 60)
    for c in range(6):
        per_fold = np.bincount(folds[labels == c], minlength=10)
        assert np.all(per_fold == 10)


def test_make_folds_deterministic():
    labels = np.repeat(np.arange(3), 20)
    ds = dataset_with_labels(labels)
    assert np.array_equal(make_folds(ds, 10, seed=5), make_folds(ds, 10, seed=5))
    assert not np.array_equal(make_folds(ds, 10, seed=5), make_folds(ds, 10, seed=6))


def test_make_folds_small_class_fallback():
    labels = np.array([0] * 17 + [1] * 3)
    ds = dataset_with_labels(labels)
    with pytest.warns(UserWarning, match="not stratified"):
        folds = make_folds(ds, k=10, seed=0)
    assert np.all(np.bincount(folds, minlength=10) == 2)


@pytest.mark.parametrize("k", [1, 0, -3, 2.5, True])
def test_make_folds_needs_two_folds(k):
    # True is no fold count, though it equals 1
    message = (f"^cross-validation needs at least 2 folds, got {k}$" if type(k) is int else
               f"^folds must be an integer, got {k!r}$")
    ds = dataset_with_labels(np.zeros(6, int))
    with pytest.raises(ValueError, match=message):
        make_folds(ds, k=k, seed=0)


def test_make_folds_too_few_graphs():
    ds = dataset_with_labels(np.zeros(4, int))
    with pytest.raises(ValueError, match="^cross-validation cannot make 10 folds out of 4 graphs$"):
        make_folds(ds, k=10, seed=0)


def test_symmetrization_idempotent(tmp_path):
    # writing the already-symmetrized edge list back reproduces the adjacency
    write_single_graph(tmp_path)
    first = load_single_graph(tmp_path).graph.adjacency
    rows = ["src,dst,weight"]
    for i in range(3):
        for j in range(3):
            if first[i, j]:
                rows.append(f"{i},{j},{first[i, j]}")
    (tmp_path / "edges.csv").write_text("\n".join(rows) + "\n")
    second = load_single_graph(tmp_path).graph.adjacency
    assert np.array_equal(first, second)


def test_matrix_csv_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-30, 30, size=(7, 3)))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert np.array_equal(back, m)


@pytest.mark.parametrize("m", [
    np.array([[-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]]),
    np.array([[0.1]]),
    np.array([[1.0], [-0.0], [1 / 3]]),
])
def test_matrix_csv_roundtrip_bitwise_at_the_edges_of_float64(tmp_path, m):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.shape == m.shape and back.dtype == np.float64
    assert back.tobytes() == m.tobytes()


def test_dataset_invariants():
    g = random_graph(4, 0.5, seed=0)
    with pytest.raises(ValueError, match="disjoint"):
        SingleGraphDataset(
            graph=g, labels=np.zeros(4, int),
            masks={"train": np.ones(4, bool), "val": np.ones(4, bool),
                   "test": np.zeros(4, bool)},
        )
    for masks, message in [({"train": np.ones(4, bool)}, "missing 'val', 'test'"),
                           ({"train": np.ones(4, bool), "val": np.zeros(4, bool),
                             "test": np.zeros(4, bool), "dev": np.zeros(4, bool)},
                            "unknown 'dev'"),
                           ({"train": np.ones(4, bool), "valid": np.zeros(4, bool)},
                            "missing 'val', 'test'; unknown 'valid'")]:
        with pytest.raises(ValueError, match=f"^split masks must be train, val and test: "
                                             f"{message}$"):
            SingleGraphDataset(graph=g, labels=np.zeros(4, int), masks=masks)
    g2 = random_graph(4, 0.5, seed=1, features_dim=2)
    with pytest.raises(ValueError, match="feature widths"):
        MultiGraphDataset(graphs=(g, g2), labels=np.zeros(2, int), n_classes=1)
