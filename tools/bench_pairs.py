#!/usr/bin/env python3
"""Run the benchmark in interleaved parent/change pairs and summarize them.

Each seed is one pair: perfbench/run.py runs once in each checkout with that
seed, the side that runs first alternating from pair to pair. Result lines go
to a BENCH_<n>.json file in the layout of the earlier ones: "runs" holds one
record per run, with the host's GEMM and Python-loop calibration measured in
that run, "summary" per workload and end-to-end metric the medians,
quartiles (numpy's weibull method), the parent's interquartile range, the
number of pairs in which the change is lower (a tie counts for neither side)
and the relative change of the medians, plus the failed operations per side.
An existing file is extended: its runs are kept, its other fields left as
they are, and the summary is recomputed over all runs. A checkout at
another revision than the one the file records for its side is refused,
so that one summary never pools the runs of two commits; so is a checkout
that is no git repository (a git archive copy, say), whose revision is
unknown.

Usage:
    python3 tools/bench_pairs.py <parent-dir> <change-dir> --workload cora-dsg \\
        --seeds 1301 1302 1303 --out BENCH_9.json

A metric passes the claim rule when the change is lower in at least 9 of 10
pairs and its median lies below the parent's by more than the parent's
interquartile range; the script prints that verdict for every metric. It
also prints a no-regression verdict: whether the change's median is worse
than the parent's by at most the metric's "end_to_end" bound, a share of the
parent's median, as read from the parent checkout's BENCHMARK.json. Where
the parent's interquartile range is wider than that bound, a metric within
it is "unresolved" unless every change run beats every parent run.
"""
import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

METRICS = ("setup_s", "step_s", "peak_rss_mb")
CALIBRATION = ("gemm_gflop_per_s", "py_loop_mops")
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def run_once(checkout, workload, seed, seconds):
    """The record of one benchmark run in checkout (see read_record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return read_record(proc.stdout.strip().splitlines())
    except (IndexError, ValueError, KeyError, TypeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {tail}")


def read_record(lines):
    """A run's record from the output lines of perfbench/run.py: the failed
    and attempted operations and the METRICS of its last line (the result),
    and the host's CALIBRATION from the "perfbench" line before it, so that
    a drift of the host shows beside the timings it moved."""
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    record = {"failed": result["failed"], "attempted": result["attempted"]}
    record.update({name: metrics[name]["value"] for name in METRICS if name in metrics})
    calibration = json.loads(lines[-2])["perfbench"]["calibration"]
    record["calibration"] = {name: calibration[name] for name in CALIBRATION}
    return record


def _revision(checkout):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _pairs(runs, workload):
    """(parent record, change record) per seed of workload, in run order."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
    return [(p["parent"], p["change"]) for p in by_seed.values() if len(p) == 2]


def summarize_metric(parent, change):
    """Pair statistics of one lower-is-better metric; parent[i] and change[i]
    come from the same seed."""
    pq = np.quantile(parent, [0.25, 0.75], method="weibull")
    cq = np.quantile(change, [0.25, 0.75], method="weibull")
    parent_median, change_median = float(np.median(parent)), float(np.median(change))
    return {
        "pairs": len(parent),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": float(pq[1] - pq[0]),
        "parent_quartiles": [float(q) for q in pq],
        "change_quartiles": [float(q) for q in cq],
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        "rel_change": change_median / parent_median - 1.0,
        "parent": list(parent),
        "change": list(change),
    }


def summarize(runs):
    """The "summary" section over all runs: per workload, each metric that
    every paired run reports, and the failed and attempted operations."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = _pairs(runs, workload)
        if not pairs:
            continue
        entry = {}
        for name in METRICS:
            if all(name in p and name in c for p, c in pairs):
                entry[name] = summarize_metric([p[name] for p, _ in pairs],
                                               [c[name] for _, c in pairs])
        entry["failed"] = {
            **{side: sum(pair[k]["failed"] for pair in pairs) for k, side in enumerate(SIDES)},
            **{f"attempted_{side}": sum(pair[k]["attempted"] for pair in pairs)
               for k, side in enumerate(SIDES)},
        }
        summary[workload] = entry
    return summary


def claim_holds(stats):
    """Lower in at least 9 of every 10 pairs, and the median gap larger than
    the parent's interquartile range."""
    enough = stats["change_lower_in"] >= math.ceil(WIN_SHARE * stats["pairs"])
    return enough and stats["parent_median"] - stats["change_median"] > stats["parent_iqr"]


def read_bounds(path):
    """{metric: (bound, better)} of the "end_to_end" metrics of a
    BENCHMARK.json file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: (float(m["bound"]), m.get("better", "lower")) for m in doc["end_to_end"]}


def within_bound(stats, bound, better="lower"):
    """Whether the change's median is worse than the parent's by at most
    bound, as a share of the parent's median."""
    worse = stats["rel_change"] if better == "lower" else -stats["rel_change"]
    return worse <= bound


def no_regression(stats, bound, better="lower"):
    """The no-regression verdict: "fails" outside the bound; within it
    "unresolved" when the parent's interquartile range, as a share of its
    median, exceeds the bound and not every change run beats every parent
    run; else "holds"."""
    if not within_bound(stats, bound, better):
        return "fails"
    if better == "lower":
        beats_all = max(stats["change"]) < min(stats["parent"])
    else:
        beats_all = min(stats["change"]) > max(stats["parent"])
    if stats["parent_iqr"] > bound * abs(stats["parent_median"]) and not beats_all:
        return "unresolved"
    return "holds"


def report(summary, bounds=None):
    """One line per workload and metric with its claim verdict, and its
    no-regression verdict where bounds ({metric: (bound, better)}) has the
    metric; then one line of failed operations per workload."""
    lines = []
    for workload, entry in summary.items():
        for name in METRICS:
            if name in entry:
                s = entry[name]
                line = (
                    f"{workload} {name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                    f"({s['rel_change']:+.1%}), lower in {s['change_lower_in']}/{s['pairs']}, "
                    f"parent IQR {s['parent_iqr']:.3g}: claim "
                    f"{'holds' if claim_holds(s) else 'does not hold'}")
                if bounds and name in bounds:
                    bound, better = bounds[name]
                    line += f"; no regression {no_regression(s, bound, better)} (bound {bound:.0%})"
                lines.append(line)
        f = entry["failed"]
        lines.append(f"{workload} failed: parent {f['parent']}/{f['attempted_parent']}, "
                     f"change {f['change']}/{f['attempted_change']}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=22)
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write or extend")
    args = p.parse_args(argv)
    bounds = read_bounds(os.path.join(args.parent, "BENCHMARK.json"))

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    for side, checkout in checkouts.items():
        revision = _revision(checkout)
        if revision is None:
            raise SystemExit(f"{checkout} is not a git checkout, so its runs would name no "
                             "revision; make it with git clone, not git archive")
        recorded = doc.setdefault(side, revision)
        if revision != recorded:
            raise SystemExit(f"{args.out} holds {side} runs of {recorded}, "
                             f"but {checkout} is at {revision}")
    doc.setdefault("command", "python3 perfbench/run.py --workload <w> --seed <s> "
                              f"--seconds {args.seconds:g} --trace 0")
    runs = doc.setdefault("runs", [])
    done = len(_pairs(runs, args.workload))
    repeated = sorted({run["seed"] for run in runs if run["workload"] == args.workload}
                      & set(args.seeds))
    if repeated:
        raise SystemExit(f"{args.out} already holds {args.workload} runs of seeds {repeated}")
    for k, seed in enumerate(args.seeds):
        order = SIDES if (done + k) % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"side": side, "workload": args.workload, "seed": seed,
                         "first": order[0], **record})
            print(f"{args.workload} seed {seed} {side}: "
                  + ", ".join(f"{m} {record[m]:.4g}" for m in METRICS if m in record)
                  + ", " + ", ".join(f"{m} {v:.4g}" for m, v in record["calibration"].items()),
                  flush=True)
        doc["summary"] = summarize(runs)
        doc["runs"] = doc.pop("runs")     # the long list last
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(report(doc["summary"], bounds))


if __name__ == "__main__":
    main()
