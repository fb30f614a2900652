#!/usr/bin/env python3
"""specgconv benchmark: one workload per process, from the root of a checkout.

    python3 perfbench/run.py --workload cora-dsg --seed 1 --seconds 22 --trace 0

Inputs are generated from --seed before anything is timed. With --trace 0 the
run repeats the workload's set-up (setup_reps times), then its step until
--seconds of step time have passed, and reports the end-to-end metrics
(medians). With --trace 1 it runs set-up and one step untraced, then again
with every public function of specgconv wrapped in a span, and reports the
per-layer metrics of the traced pass plus the tracing overhead.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it holds the run fingerprint, calibration and raw timings;
the same record, with all spans of a traced run, goes to
.perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {"setup_s": "s", "step_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cora-dsg", "enzymes-cv", "analyze-gat"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="step time to accumulate before stopping (at least one step)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _dir_bytes(path):
    if path is None or not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(path) for f in files)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain_run(wl, ledger, seconds, record):
    """Medians of the workload's set-ups and of steps filling ``seconds``."""
    state = None
    for _ in range(wl.setup_reps):
        state = None                      # free the previous set-up first
        wl.before_setup()
        gc.collect()                      # no timed call pays for an earlier one's garbage
        state, t = ledger.timed(f"{wl.name} set-up", wl.setup, ops=wl.setup_ops)
        if state is None:
            break
        record["setup_s"].append(t)
        ledger.check(f"{wl.name} set-up", wl.check_setup(state))
    spent = 0.0
    while state is not None and (not record["step_s"] or spent < seconds):
        wl.before_step()
        gc.collect()
        out, t = ledger.timed(f"{wl.name} step", lambda: wl.step(state))
        if out is None:
            break
        spent += t
        record["step_s"].append(t / wl.units)
        ledger.check(f"{wl.name} step", wl.check_step(out))
    metrics = {k: statistics.median(record[k]) for k in ("setup_s", "step_s") if record[k]}
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _one_pass(wl, ledger):
    """One set-up and one step; returns (state, [(start, end)] of the timed calls)."""
    regions = []
    wl.before_setup()
    t0 = time.perf_counter()
    state, _ = ledger.timed(f"{wl.name} set-up", wl.setup, ops=wl.setup_ops)
    regions.append((t0, time.perf_counter()))
    if state is None:
        return None, regions
    ledger.check(f"{wl.name} set-up", wl.check_setup(state))
    wl.before_step()
    t0 = time.perf_counter()
    out, _ = ledger.timed(f"{wl.name} step", lambda: wl.step(state))
    regions.append((t0, time.perf_counter()))
    if out is not None:
        ledger.check(f"{wl.name} step", wl.check_step(out))
    return state, regions


def traced_run(wl, ledger, calibration, record):
    from tracer import Tracer, span_cost

    _, plain = _one_pass(wl, ledger)
    tracer = Tracer()
    tracer.install()
    try:
        state, regions = _one_pass(wl, ledger)
    finally:
        tracer.uninstall()
    record["spans"] = [s.as_dict() for s in tracer.spans]
    untraced = sum(b - a for a, b in plain)
    traced = sum(b - a for a, b in regions)
    record["pass_s"] = {"untraced": untraced, "traced": traced}

    agg = tracer.summary()
    total = lambda name: agg.get(name, {}).get("total", 0.0)
    own = lambda name: agg.get(name, {}).get("self", 0.0)
    calls = lambda name: agg.get(name, {}).get("count", 0)
    per_unit = 1.0 / wl.units
    lookups, hits = tracer.cache_hits()
    counts = wl.counts(state) if state is not None else {}
    gflop = counts.get("nn.epoch_gflop", 0.0)
    nn_busy = (total("nn.forward_train") + total("nn.forward_eval")
               + total("nn.model_backward")) * per_unit
    m = {
        "data.load_single_graph_s": (total("data.load_single_graph"), "s"),
        "data.load_tu_dataset_s": (total("data.load_tu_dataset"), "s"),
        "data.save_matrix_csv_s": (total("data.save_matrix_csv"), "s"),
        "data.load_matrix_csv_s": (total("data.load_matrix_csv"), "s"),
        "data.bytes_written": (sum(s.attrs["bytes"] for s in tracer.spans
                                   if s.name == "data.save_matrix_csv" and s.attrs), "B"),
        "graphs.build_laplacian_s": (total("graphs.build_laplacian"), "s"),
        "spectral.eigh_s": (total("spectral.eigh"), "s"),
        "spectral.decompose_self_s": (own("spectral.decompose"), "s"),
        "spectral.decompose_calls": (calls("spectral.decompose"), "count"),
        "spectral.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "spectral.cache_bytes": (_dir_bytes(wl.cache_dir), "B"),
        "filters.evaluate_s": (total("filters.evaluate"), "s"),
        "kernels.design_kernelset_s": (total("kernels.design_kernelset"), "s"),
        "kernels.gat_sample_kernel_s": (total("kernels.gat_sample_kernel"), "s"),
        "analysis.profile_s": (total("analysis.profile"), "s"),
        "analysis.gat_profile_stats_self_s": (own("analysis.gat_profile_stats"), "s"),
        "nn.forward_train_s": (total("nn.forward_train") * per_unit, "s"),
        "nn.forward_eval_s": (total("nn.forward_eval") * per_unit, "s"),
        "nn.backward_s": (total("nn.model_backward") * per_unit, "s"),
        "nn.adam_step_s": (total("nn.adam_step") * per_unit, "s"),
        "nn.loss_s": ((total("nn.softmax_cross_entropy")
                       + total("nn.binary_cross_entropy_tansig")) * per_unit, "s"),
        "nn.train_self_s": ((own("nn.train") + own("nn.crossvalidate")) * per_unit, "s"),
        "nn.forward_calls": ((calls("nn.forward_train") + calls("nn.forward_eval")) * per_unit,
                             "count"),
        "nn.epoch_gflop": (gflop, "GFLOP"),
        "nn.mask_draws": (counts.get("nn.mask_draws", 0), "count"),
        "nn.gflop_per_s": (gflop / nn_busy if nn_busy > 0 else 0.0, "GFLOP/s"),
        "cli.main_self_s": (own("cli.main"), "s"),
        "machine.gemm_gflop_per_s": (calibration["gemm_gflop_per_s"], "GFLOP/s"),
        "machine.py_loop_mops": (calibration["py_loop_mops"], "Mop/s"),
        "trace.uncovered_share": (tracer.uncovered(regions), "ratio"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced if untraced > 0 else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_est_s": (len(tracer.spans) * span_cost(), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run(args, work):
    import machine
    import workloads

    ledger = workloads.Ledger()
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": machine.fingerprint(ROOT), "setup_s": [], "step_s": []}
    wl.prepare()
    got, record["canary_s"] = ledger.timed(f"{wl.name} canary", lambda: wl.canary(work))
    if got is not None:
        ledger.check(f"{wl.name} canary", [workloads.check_reference(wl.name, got)])
    calibration = {"gemm_gflop_per_s": machine.gemm_gflop_per_s(),
                   "py_loop_mops": machine.py_loop_mops()}
    record["calibration"] = calibration
    if args.trace:
        metrics = traced_run(wl, ledger, calibration, record)
    else:
        metrics = plain_run(wl, ledger, args.seconds, record)
    record["errors"] = ledger.errors
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "specgconv", "__init__.py")):
        print(f"perfbench: no specgconv package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    record["result"] = result
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    record.pop("spans", None)
    record.pop("result")
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
