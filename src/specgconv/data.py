"""Dataset ingestion and canonical on-disk formats.

Two dataset layouts are supported:

* single-graph directories with ``edges.csv`` / ``features.csv`` /
  ``labels.csv`` / ``split.csv`` (transductive node classification), and
* the TU graph-kernel text format (``DS_A.txt``, ``DS_graph_indicator.txt``,
  ...) for multi-graph classification.

All CSV files carry a header row, are comma separated, UTF-8 and line-feed
terminated. Floats are written with 17 significant digits so that a write /
read round trip is bitwise lossless; save_matrix_csv and load_matrix_csv are
the package's only float-CSV writer and reader.
"""
from __future__ import annotations

import csv
import math
import numbers
import os
import warnings
from dataclasses import dataclass
import numpy as np

from .graphs import Graph

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# float CSV: matrices, exported profiles and tabulated responses
# ---------------------------------------------------------------------------

def save_matrix_csv(path, m: np.ndarray, header=None) -> None:
    """Write a 1-D or 2-D float array as CSV, one row per line.

    The header defaults to c0,c1,...; a 1-D array is written as one row.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    if header is None:
        header = [f"c{j}" for j in range(m.shape[1])]
    row_fmt = ",".join([FLOAT_FMT] * m.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in m:   # one row at a time: a whole-matrix tolist() costs ~4x its memory
            fh.write(row_fmt % tuple(row.tolist()))


def load_matrix_csv(path, header=None) -> np.ndarray:
    """Read a matrix written by save_matrix_csv; always returns a 2-D array.

    With header given, the file's header row must equal it exactly. The body
    is parsed by numpy: every cell is one float literal (surrounding spaces
    allowed; no quotes, no digit-group underscores, no comments) and blank
    lines are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise ValueError(f"{path}: empty CSV")
        if header is not None and names != list(header):
            raise ValueError(f"{path}: header {','.join(names)!r}, expected {','.join(header)!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
                m = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:   # an unparsable cell or a ragged row
            raise ValueError(_bad_matrix_line(path)) from None
    return m if m.shape[0] else np.zeros((0, len(names)))


def _bad_matrix_line(path) -> str:
    """'<path> line <k>: ...' for the first row of a float CSV that holds a
    cell numpy refuses or another field count than the first row; each row
    is put to np.loadtxt on its own, so the grammar is the reader's."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        width = None
        for lineno, line in enumerate(fh, start=reader.line_num + 1):
            if line == "\n":
                continue
            try:
                row = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
            except ValueError:
                for j, cell in enumerate(line.rstrip("\n").split(",")):
                    try:
                        np.loadtxt([line], delimiter=",", comments=None, usecols=[j])
                    except ValueError:
                        return f"{path} line {lineno}: could not convert string to float: {cell!r}"
                break
            width = width or row.shape[1]
            if row.shape[1] != width:
                return f"{path} line {lineno}: {row.shape[1]} fields, the first row has {width}"
    return f"{path}: unreadable"


# ---------------------------------------------------------------------------
# single-graph datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleGraphDataset:
    """One graph plus per-node labels and exactly three disjoint masks:
    train, val and test."""

    graph: Graph
    labels: np.ndarray          # (n,) class index, -1 for unlabeled
    masks: dict                 # name -> boolean (n,) array

    def __post_init__(self):
        n = self.graph.n
        if self.labels.shape != (n,):
            raise ValueError("labels must be one class index per node")
        splits = ("train", "val", "test")
        missing = [m for m in splits if m not in self.masks]
        unknown = [m for m in self.masks if m not in splits]
        if missing or unknown:
            wrong = [f"{kind} {', '.join(map(repr, names))}"
                     for kind, names in (("missing", missing), ("unknown", unknown)) if names]
            raise ValueError(f"split masks must be train, val and test: {'; '.join(wrong)}")
        stacked = np.zeros(n, dtype=int)
        for name, m in self.masks.items():
            if m.shape != (n,) or m.dtype != np.bool_:
                raise ValueError(f"mask {name!r} must be a boolean (n,) array")
            stacked += m.astype(int)
        if np.any(stacked > 1):
            raise ValueError("split masks must be disjoint")
        train = self.masks["train"]
        if np.any(self.labels[train] < 0):
            bad = int(np.flatnonzero(train & (self.labels < 0))[0])
            raise ValueError(f"training node {bad} has no valid class label")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def _label(text: str) -> int:
    """A label cell in the int64 range: an int literal, or a float literal of
    an integer ("2.0")."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        value = int(value) if value.is_integer() else None
    if value is None or not -2**63 <= value < 2**63:
        raise ValueError(f"expected an integer, got {text!r}")
    return value


def _read_rows(path, fields: int, *convs) -> list:
    """(line number, values) of each non-empty row after the header: the
    row's leading cells read by convs (one converter per cell, as far as the
    row reaches), the rest as text. A file without a header, a row with fewer
    than `fields` fields, or a cell its converter refuses is named by line."""
    name = os.path.basename(path)
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{name} is empty: expected a header row")
        rows = [(reader.line_num, row) for row in reader if row]
    out = []
    for lineno, row in rows:
        if len(row) < fields:
            raise ValueError(f"{name} line {lineno}: expected {fields} fields, got {len(row)}")
        try:
            out.append((lineno, [conv(v) for conv, v in zip(convs, row)] + row[len(convs):]))
        except ValueError as exc:
            raise ValueError(f"{name} line {lineno}: {exc}") from None
    return out


def load_single_graph(directory) -> SingleGraphDataset:
    """Load a single-graph dataset directory.

    Expected files: ``edges.csv`` (src,dst[,weight]), ``features.csv``
    (one row per node), ``labels.csv`` (one class index per node, -1 for
    unlabeled) and ``split.csv`` (node,role with role in train/val/test).
    A missing split.csv defaults to an all-train split with a warning.
    """
    directory = os.fspath(directory)
    features_path = os.path.join(directory, "features.csv")
    features = load_matrix_csv(features_path)
    n = features.shape[0]
    if n == 0:
        raise ValueError(f"{features_path}: no node rows; a graph needs at least one node")

    listed = {}   # (lower node, higher node) -> (line, weight) of the edge's first listing
    for lineno, (src, dst, *weight) in _read_rows(os.path.join(directory, "edges.csv"), 2,
                                                  int, int, float):
        w = weight[0] if weight else 1.0
        if src == dst:
            raise ValueError(f"edges.csv line {lineno}: self-loop on node {src}")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edges.csv line {lineno}: node index out of range")
        first, w0 = listed.setdefault((min(src, dst), max(src, dst)), (lineno, w))
        if w0 != w and not np.isnan(w0):   # Graph refuses a nan weight as non-finite
            raise ValueError(f"edges.csv line {lineno}: edge {src}-{dst} listed again with "
                             f"weight {w!r}, after weight {w0!r} on line {first}")

    labels = np.array(
        [row[0] for _, row in _read_rows(os.path.join(directory, "labels.csv"), 1, _label)],
        dtype=int,
    )
    if labels.shape != (n,):
        raise ValueError(f"labels.csv must have {n} rows, got {labels.shape[0]}")

    split_path = os.path.join(directory, "split.csv")
    masks = {name: np.zeros(n, dtype=bool) for name in ("train", "val", "test")}
    if os.path.exists(split_path):
        assigned = np.zeros(n, dtype=bool)
        for lineno, (node, role, *_) in _read_rows(split_path, 2, int, str.strip):
            if not 0 <= node < n:
                raise ValueError(
                    f"split.csv line {lineno}: node index {node} out of range 0..{n - 1}")
            if role not in masks:
                raise ValueError(f"split.csv line {lineno}: unknown role {role!r}")
            if assigned[node]:
                raise ValueError(f"split.csv line {lineno}: node {node} has two roles")
            masks[role][node] = True
            assigned[node] = True
    else:
        warnings.warn(f"{split_path} missing; defaulting every node to train")
        masks["train"][:] = True

    try:
        graph = Graph(edges=list(listed), weights=[w for _, w in listed.values()],
                      features=features)
    except ValueError as exc:   # a non-finite feature or weight, a negative weight
        raise ValueError(f"{directory}: {exc}") from None
    return SingleGraphDataset(graph=graph, labels=labels, masks=masks)


# ---------------------------------------------------------------------------
# multi-graph datasets (TU graph-kernel text format)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiGraphDataset:
    graphs: tuple
    labels: np.ndarray          # (n_graphs,) class index in 0..n_classes-1
    n_classes: int

    def __post_init__(self):
        widths = {g.features.shape[1] for g in self.graphs}
        if len(widths) > 1:
            raise ValueError(f"inconsistent feature widths across graphs: {sorted(widths)}")

    def __len__(self) -> int:
        return len(self.graphs)


def _tu_lines(path):
    """(line number, text) of each non-blank line, stripped, read lazily."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text:
                yield lineno, text


def _tu_integers(path, conv) -> np.ndarray:
    """One int64 per non-blank line, read by conv; a line it refuses is named."""
    name = os.path.basename(path)

    def values():
        for lineno, text in _tu_lines(path):
            try:
                value = np.int64(conv(text))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{name} line {lineno}: {exc}") from None
            yield value

    return np.fromiter(values(), dtype=np.int64)


def _tu_floats(path) -> np.ndarray:
    """One float row per non-blank line, its cells split by commas or
    whitespace; an unparsable or non-finite cell (nan, inf, an overflow such
    as 1e999), or another field count than the first row's, is named with
    its line."""
    name = os.path.basename(path)
    rows = []
    for lineno, text in _tu_lines(path):
        cells = text.replace(",", " ").split()
        try:
            row = [float(v) for v in cells]
        except ValueError as exc:
            raise ValueError(f"{name} line {lineno}: {exc}") from None
        for cell, value in zip(cells, row):
            if not math.isfinite(value):
                raise ValueError(f"{name} line {lineno}: expected a finite number, got {cell!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{name} line {lineno}: {len(row)} fields, "
                             f"the first row has {len(rows[0])}")
        rows.append(row)
    return np.array(rows)


def load_tu_dataset(directory, use_attributes: bool = False) -> MultiGraphDataset:
    """Parse a TU-format dataset directory (DS_A.txt and friends).

    Node labels are one-hot encoded into the feature matrix; continuous node
    attributes are appended only when use_attributes is set. Graph labels are
    remapped to contiguous 0..n_classes-1 in sorted order. Graph ids in the
    indicator run 1..N in non-decreasing order, each with at least one node;
    node ids in DS_A.txt are 1-based.
    """
    directory = os.fspath(directory)
    name = os.path.basename(os.path.normpath(directory))
    p = lambda suffix: os.path.join(directory, f"{name}_{suffix}.txt")

    indicator = _tu_integers(p("graph_indicator"), int)
    n_nodes = indicator.size
    if n_nodes == 0:
        raise ValueError(f"{name}_graph_indicator.txt lists no nodes")
    # each node's graph id equals its predecessor's or the next one, from 1 on
    jumps = np.flatnonzero(~np.isin(np.diff(indicator, prepend=indicator[0]), (0, 1)))
    if indicator[0] != 1 or jumps.size:
        k = jumps[0] if indicator[0] == 1 else 0
        raise ValueError(f"{name}_graph_indicator.txt: node {k + 1} has graph id {indicator[k]}; "
                         "graph ids must run 1, 2, ... in non-decreasing order")
    n_graphs = indicator[-1]
    offsets = np.searchsorted(indicator, np.arange(1, n_graphs + 1))
    sizes = np.bincount(indicator)[1:]

    raw_graph_labels = _tu_integers(p("graph_labels"), _label)
    if raw_graph_labels.size != n_graphs:
        raise ValueError(f"{name}_graph_labels.txt: {raw_graph_labels.size} rows, "
                         f"{name}_graph_indicator.txt lists {n_graphs} graphs")
    classes = np.unique(raw_graph_labels)
    labels = np.searchsorted(classes, raw_graph_labels)

    ends = []   # the two node ids of each edge row but a self-loop, in file order
    dropped_loops = 0
    for lineno, line in _tu_lines(p("A")):
        try:
            a, b = map(int, line.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"{name}_A.txt line {lineno}: expected two integer node ids, "
                             f"got {line!r}") from None
        if not (0 < a <= n_nodes and 0 < b <= n_nodes):
            raise ValueError(f"{name}_A.txt line {lineno}: node id out of range 1..{n_nodes}")
        ga, gb = indicator[a - 1], indicator[b - 1]
        if ga != gb:
            raise ValueError(f"{name}_A.txt line {lineno}: edge crosses graphs {ga} and {gb}")
        if a == b:
            dropped_loops += 1
            continue
        ends += a, b
    if dropped_loops:
        warnings.warn(f"{name}: dropped {dropped_loops} self-loop edge rows")
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2) - 1
    # each unordered pair once, as lower * n_nodes + higher node: sorted by the
    # lower node and so grouped by graph
    lower, higher = np.divmod(np.unique(ends.min(axis=1) * n_nodes + ends.max(axis=1)), n_nodes)
    per_graph = np.split(np.column_stack([lower, higher]), np.searchsorted(lower, offsets[1:]))

    node_label_path = p("node_labels")
    if os.path.exists(node_label_path):
        node_labels = _tu_integers(node_label_path, _label)
        if node_labels.size != n_nodes:
            raise ValueError(f"{name}_node_labels.txt: {node_labels.size} rows, "
                             f"{name}_graph_indicator.txt lists {n_nodes} nodes")
        values = np.unique(node_labels)
        onehot = np.zeros((n_nodes, values.size))
        onehot[np.arange(n_nodes), np.searchsorted(values, node_labels)] = 1.0
        features = onehot
    else:
        features = np.ones((n_nodes, 1))

    if use_attributes:
        attr_path = p("node_attributes")
        if not os.path.exists(attr_path):
            raise ValueError(f"use_attributes set but {attr_path} is missing")
        attrs = _tu_floats(attr_path)
        if attrs.shape[0] != n_nodes:
            raise ValueError(f"{name}_node_attributes.txt: {attrs.shape[0]} rows, "
                             f"{name}_graph_indicator.txt lists {n_nodes} nodes")
        features = np.hstack([features, attrs])

    graphs = tuple(Graph(edges=e - lo, weights=np.ones(len(e)), features=features[lo : lo + size])
                   for e, lo, size in zip(per_graph, offsets, sizes))
    return MultiGraphDataset(graphs=graphs, labels=labels, n_classes=int(classes.size))


def _check_integer(name: str, value) -> None:
    # a bool is an Integral, but True is no count
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_cv(folds, repeats, n_graphs=None) -> None:
    """The rules of a cross-validation run: integer counts, at least 2 folds
    and 1 repeat, and, once the number of graphs n_graphs is known, no more
    folds than graphs."""
    _check_integer("folds", folds)
    _check_integer("repeats", repeats)
    if folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {folds}")
    if repeats < 1:
        raise ValueError(f"cross-validation needs at least 1 repeat, got {repeats}")
    if n_graphs is not None and folds > n_graphs:
        raise ValueError(f"cross-validation cannot make {folds} folds out of {n_graphs} graphs")


def make_folds(dataset: MultiGraphDataset, k: int = 10, seed: int = 0) -> np.ndarray:
    """Seeded, class-stratified fold assignment with near-equal fold sizes.

    Returns an integer array of fold ids in 0..k-1, one per graph. A class
    with fewer members than k triggers a warning and an unstratified
    fallback (plain seeded shuffle dealt round-robin).
    """
    n = len(dataset)
    _check_cv(k, repeats=1, n_graphs=n)
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=int)
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    if np.any(counts < k):
        small = int(np.flatnonzero(counts < k)[0])
        warnings.warn(
            f"class {small} has {counts[small]} < {k} members; folds are not stratified"
        )
        order = rng.permutation(n)
        folds[order] = np.arange(n) % k
        return folds

    fill = np.zeros(k, dtype=int)
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        members = members[rng.permutation(members.size)]
        for g in members:
            target = int(np.argmin(fill))
            folds[g] = target
            fill[target] += 1
    return folds
