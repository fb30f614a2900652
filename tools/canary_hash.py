#!/usr/bin/env python3
"""Compare the benchmark canary outputs of two checkouts bit for bit.

Each checkout runs the canaries of its own perfbench/workloads.py (the small
fixed-seed runs that every benchmark run checks first) in a Python process
of its own, with that checkout's src/ and perfbench/ first on the import
path. For each workload and output key the script prints "bitwise" when the
two outputs have the same bits, else the largest deviation relative to the
parent's largest magnitude. It exits 1 on any difference, 0 when every
output is bitwise. perfbench/reference.json is not read, and nothing under
perfbench/ is written: the reference holds the outputs of an older
revision, which the current code may differ from by rounding.

Usage:
    python3 tools/canary_hash.py <parent-dir> <change-dir> [--workload cora-dsg ...]
"""
import argparse
import json
import os
import subprocess
import sys

import numpy as np

# Runs in a checkout: the canary of every named workload, or of every
# workload when none is named, in one temporary work directory; their
# outputs go to standard output as one JSON line.
_CHILD = """
import json, os, sys, tempfile
sys.path[:0] = [os.path.abspath("perfbench"), os.path.abspath("src")]
import workloads
out = {}
with tempfile.TemporaryDirectory() as work:
    for name in sys.argv[1:] or workloads.WORKLOADS:
        out[name] = workloads.WORKLOADS[name](work, 0).canary(work)
print(json.dumps(out))
"""


def run_canaries(checkout, workloads):
    """{workload: {output key: values}} of the canaries of workloads (all
    when empty) run in checkout."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, *workloads], cwd=checkout,
                          capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"{checkout}: canaries exited {proc.returncode}: {tail}")


def deviation(want, got):
    """"bitwise" when got has want's shape and bits, else what differs: a
    missing output, the shapes, or the largest deviation relative to want's
    largest magnitude."""
    if got is None:
        return "missing"
    a, b = np.asarray(want, dtype=np.float64), np.asarray(got, dtype=np.float64)
    if a.shape != b.shape:
        return f"shape {b.shape} != {a.shape}"
    if a.tobytes() == b.tobytes():
        return "bitwise"
    err = float(np.max(np.abs(b - a)))
    scale = float(np.max(np.abs(a)))
    return f"max relative deviation {err / scale:.3e}" if scale > 0 else \
        f"max absolute deviation {err:.3e}"


def compare(parent, change):
    """(report lines, whether every output is bitwise) of two canary runs,
    one line per workload and output key of either."""
    lines, same = [], True
    for workload in dict.fromkeys([*parent, *change]):
        want, got = parent.get(workload, {}), change.get(workload, {})
        for key in dict.fromkeys([*want, *got]):
            verdict = "only in change" if key not in want else deviation(want[key], got.get(key))
            same = same and verdict == "bitwise"
            lines.append(f"{workload} {key}: {verdict}")
    return lines, same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", nargs="+", default=[],
                   help="workloads to compare (default: every workload of each checkout)")
    args = p.parse_args(argv)
    outputs = [run_canaries(checkout, args.workload) for checkout in (args.parent, args.change)]
    lines, same = compare(*outputs)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
