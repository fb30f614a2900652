#!/usr/bin/env python3
"""Record the canary outputs that every benchmark run compares against.

    python3 perfbench/record_reference.py

Run it only when a change to specgconv is meant to change its numbers (for
example a new RNG draw order), and say so where the change is described.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="canary-", dir=scratch)
    try:
        ref = {name: cls(work, 0).canary(work) for name, cls in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
