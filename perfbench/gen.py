"""Seeded synthetic datasets in specgconv's on-disk formats.

The real Cora and ENZYMES files are not available, so the benchmark runs on
generated data of the same shape. The writers here produce the documented
formats directly (header rows, 0/1 feature values, 1-based TU indices); they do
not call the program under test, so a change to its writers cannot change the
inputs it is measured on.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Cora's class sizes (7 classes, 2708 nodes); generated labels follow them.
CORA_CLASS_SHARES = np.array([351, 217, 418, 818, 426, 298, 180]) / 2708.0


@dataclass(frozen=True)
class SingleGraphShape:
    n: int
    f0: int
    n_edges: int            # undirected edges
    words_per_node: tuple   # inclusive range of active features per node
    n_classes: int
    train_per_class: int
    n_val: int
    n_test: int


@dataclass(frozen=True)
class TUShape:
    n_graphs: int
    min_nodes: int
    max_nodes: int
    edges_per_node: float
    n_node_labels: int
    n_classes: int


CORA = SingleGraphShape(n=2708, f0=1433, n_edges=5278, words_per_node=(9, 27),
                        n_classes=7, train_per_class=20, n_val=500, n_test=1000)
ENZYMES = TUShape(n_graphs=600, min_nodes=10, max_nodes=60, edges_per_node=1.9,
                  n_node_labels=3, n_classes=6)


def scaled_cora(n: int, f0: int) -> SingleGraphShape:
    """Cora's edge density, feature density, classes and split shares at size n."""
    return SingleGraphShape(
        n=n, f0=f0, n_edges=round(CORA.n_edges * n / CORA.n),
        words_per_node=CORA.words_per_node if f0 >= 200 else (1, 3),
        n_classes=CORA.n_classes,
        train_per_class=max(2, round(CORA.train_per_class * n / CORA.n)),
        n_val=round(CORA.n_val * n / CORA.n), n_test=round(CORA.n_test * n / CORA.n),
    )


def _random_edges(rng, labels, n_edges, homophily):
    """Undirected simple edges: a random recursive tree (so no node is
    isolated) plus extra edges, each kept inside its source's class with
    probability ``homophily``."""
    n = labels.size
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    by_class = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    while len(edges) < n_edges:
        a = int(rng.integers(0, n))
        if rng.random() < homophily:
            pool = by_class[labels[a]]
            b = int(pool[rng.integers(0, pool.size)])
        else:
            b = int(rng.integers(0, n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return np.array(sorted(edges), dtype=np.int64)


def make_single_graph(shape: SingleGraphShape, seed: int) -> dict:
    """Cora-shaped transductive node-classification data as arrays."""
    rng = np.random.default_rng(seed)
    n, f0, c = shape.n, shape.f0, shape.n_classes
    shares = CORA_CLASS_SHARES if c == CORA_CLASS_SHARES.size else np.full(c, 1.0 / c)
    labels = rng.choice(c, size=n, p=shares)
    labels[:c] = np.arange(c)                       # every class present
    edges = _random_edges(rng, labels, shape.n_edges, homophily=0.8)

    # Binary bag-of-words rows: most active words come from a class vocabulary.
    vocab = [rng.choice(f0, size=max(1, f0 // 4), replace=False) for _ in range(c)]
    features = np.zeros((n, f0))
    lo, hi = shape.words_per_node
    for i in range(n):
        k = int(rng.integers(lo, hi + 1))
        own = vocab[labels[i]]
        n_own = min(int(round(0.6 * k)), own.size)
        words = np.concatenate([rng.choice(own, size=n_own, replace=False),
                                rng.integers(0, f0, size=k - n_own)])
        features[i, words] = 1.0

    roles = np.full(n, "", dtype=object)
    order = rng.permutation(n)
    for cls in range(c):
        members = order[labels[order] == cls][: shape.train_per_class]
        roles[members] = "train"
    rest = order[roles[order] == ""]
    roles[rest[: shape.n_val]] = "val"
    roles[rest[shape.n_val : shape.n_val + shape.n_test]] = "test"
    return {"edges": edges, "features": features, "labels": labels, "roles": roles}


def write_single_graph(directory, data: dict) -> None:
    """edges.csv / features.csv / labels.csv / split.csv, as load_single_graph reads them."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst\n")
        fh.writelines(f"{a},{b}\n" for a, b in data["edges"])
    feats = data["features"]            # binary: %.17g writes 0.0 and 1.0 as "0" and "1"
    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"c{j}" for j in range(feats.shape[1])) + "\n")
        for row in feats:
            fh.write(",".join(np.where(row > 0, "1", "0")) + "\n")
    with open(os.path.join(directory, "labels.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label\n")
        fh.writelines(f"{int(v)}\n" for v in data["labels"])
    with open(os.path.join(directory, "split.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,role\n")
        fh.writelines(f"{i},{r}\n" for i, r in enumerate(data["roles"]) if r)


def make_tu(shape: TUShape, seed: int) -> dict:
    """ENZYMES-shaped graph-classification data: balanced classes, connected
    graphs, node labels whose mix depends on the class."""
    rng = np.random.default_rng(seed)
    per_class = shape.n_graphs // shape.n_classes
    graph_labels = rng.permutation(np.repeat(np.arange(shape.n_classes), per_class))
    label_mix = rng.dirichlet(np.ones(shape.n_node_labels) * 2.0, size=shape.n_classes)
    # Sizes spread evenly over the range, in seeded order: the total work is
    # the same for every seed, the graphs are not.
    span = shape.max_nodes - shape.min_nodes + 1
    sizes = rng.permutation(shape.min_nodes + np.arange(shape.n_graphs) * span // shape.n_graphs)
    graphs = []
    for y, n in zip(graph_labels, sizes):
        n = int(n)
        node_labels = rng.choice(shape.n_node_labels, size=n, p=label_mix[y])
        edges = _random_edges(rng, np.zeros(n, dtype=int), round(shape.edges_per_node * n), 0.0)
        graphs.append({"edges": edges, "node_labels": node_labels})
    return {"graphs": graphs, "graph_labels": graph_labels}


def write_tu(directory, data: dict) -> None:
    """DS_A / DS_graph_indicator / DS_graph_labels / DS_node_labels text files,
    where DS is the directory's base name, as load_tu_dataset reads them."""
    os.makedirs(directory, exist_ok=True)
    name = os.path.basename(os.path.normpath(directory))
    path = lambda suffix: os.path.join(directory, f"{name}_{suffix}.txt")
    a_lines, indicator, node_labels = [], [], []
    offset = 0
    for k, g in enumerate(data["graphs"], start=1):
        n = g["node_labels"].size
        for a, b in g["edges"]:
            a_lines.append(f"{a + 1 + offset}, {b + 1 + offset}\n")
            a_lines.append(f"{b + 1 + offset}, {a + 1 + offset}\n")
        indicator.extend([f"{k}\n"] * n)
        node_labels.extend(f"{int(v) + 1}\n" for v in g["node_labels"])
        offset += n
    for suffix, lines in (("A", a_lines), ("graph_indicator", indicator),
                          ("node_labels", node_labels),
                          ("graph_labels", [f"{int(y) + 1}\n" for y in data["graph_labels"]])):
        with open(path(suffix), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
