"""Run fingerprint and in-run calibration.

The checkout the benchmark runs in need not be a git repository, so the
source tree is identified by a hash of the files under src/ as well as by
git, when git can say.
"""
from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown"}
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "config": cfg.get("openblas configuration")}


def _git(root) -> dict:
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10)
        return {"commit": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def source_hash(src_dir) -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(root) -> dict:
    try:
        import threadpoolctl  # noqa: F401
        pins = "threadpoolctl present: --strict-repro can pin BLAS threads"
    except ImportError:
        pins = "threadpoolctl absent: --strict-repro pins nothing"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git": _git(root),
        "src_sha256": source_hash(os.path.join(root, "src")),
        "strict_repro": pins,
        "argv": sys.argv[1:],
    }


def gemm_gflop_per_s(n: int = 1024, reps: int = 5) -> float:
    """Median rate of an n x n float64 matrix product with the default BLAS threads."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def py_loop_mops(iters: int = 1_000_000, reps: int = 3) -> float:
    """Median rate of a plain Python add-and-compare loop, in million iterations/s."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            if i & 1:
                acc += i
        times.append(time.perf_counter() - t0)
    return iters / statistics.median(times) / 1e6
