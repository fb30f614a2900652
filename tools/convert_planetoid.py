#!/usr/bin/env python3
"""Convert a Planetoid citation dataset to the single-graph CSV layout.

Reads the classic pickled distribution (ind.<name>.x/y/tx/ty/allx/ally/graph
plus ind.<name>.test.index) and writes edges.csv, features.csv, labels.csv
and split.csv as consumed by specgconv's load_single_graph. Needs scipy to
unpickle the sparse feature matrices.

Usage:
    python tools/convert_planetoid.py --src /path/to/planetoid/data \
        --name cora --out datasets/cora
"""
import argparse
import os
import pickle
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from specgconv.data import save_matrix_csv  # noqa: E402


def _load(src, name, part):
    path = os.path.join(src, f"ind.{name}.{part}")
    with open(path, "rb") as fh:
        return pickle.load(fh, encoding="latin1")


def convert(src, name, out):
    import scipy.sparse as sp

    x, y, tx, ty, allx, ally = (_load(src, name, p)
                                for p in ("x", "y", "tx", "ty", "allx", "ally"))
    graph = _load(src, name, "graph")
    with open(os.path.join(src, f"ind.{name}.test.index")) as fh:
        test_idx = np.array([int(line) for line in fh if line.strip()])

    test_range = np.arange(test_idx.min(), test_idx.max() + 1)
    features = sp.vstack((allx, tx)).tolil()
    labels_1h = np.vstack((ally, ty))
    if test_range.size > test_idx.size:
        # citeseer has isolated test nodes missing from tx/ty; pad with zeros.
        # The rows go in sorted order, as in the unpadded case, for the
        # reordering below to move them to their true indices.
        tx_ext = sp.lil_matrix((test_range.size, x.shape[1]))
        tx_ext[np.sort(test_idx) - test_range.min()] = tx
        ty_ext = np.zeros((test_range.size, y.shape[1]))
        ty_ext[np.sort(test_idx) - test_range.min()] = ty
        features = sp.vstack((allx, tx_ext)).tolil()
        labels_1h = np.vstack((ally, ty_ext))
    # test rows arrive shuffled: put them back at their true indices
    features[test_idx] = features[np.sort(test_idx)]
    labels_1h[test_idx] = labels_1h[np.sort(test_idx)]
    features = np.asarray(features.todense())

    n = features.shape[0]
    labels = np.where(labels_1h.sum(axis=1) > 0, np.argmax(labels_1h, axis=1), -1)

    os.makedirs(out, exist_ok=True)
    save_matrix_csv(os.path.join(out, "features.csv"), features)
    with open(os.path.join(out, "labels.csv"), "w") as fh:
        fh.write("label\n")
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")
    seen = set()
    with open(os.path.join(out, "edges.csv"), "w") as fh:
        fh.write("src,dst\n")
        for a, nbrs in graph.items():
            for b in nbrs:
                if a == b or not (0 <= a < n and 0 <= b < n):
                    continue
                key = (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                fh.write(f"{key[0]},{key[1]}\n")
    with open(os.path.join(out, "split.csv"), "w") as fh:
        fh.write("node,role\n")
        for i in range(y.shape[0]):
            fh.write(f"{i},train\n")
        for i in range(y.shape[0], y.shape[0] + 500):
            fh.write(f"{i},val\n")
        for i in np.sort(test_idx):
            fh.write(f"{i},test\n")
    print(f"wrote {out}: n={n}, f={features.shape[1]}, "
          f"train={y.shape[0]}, val=500, test={test_idx.size}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory with ind.<name>.* files")
    parser.add_argument("--name", required=True, choices=("cora", "citeseer", "pubmed"))
    parser.add_argument("--out", required=True, help="output dataset directory")
    args = parser.parse_args()
    convert(args.src, args.name, args.out)


if __name__ == "__main__":
    sys.exit(main())
