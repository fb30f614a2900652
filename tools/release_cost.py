#!/usr/bin/env python3
"""Estimate what the two release reproductions cost on this host.

Criterion 10a (tests/test_acceptance.py) trains DSG160-DSG7 on Cora for
20 seeds x 400 epochs; criterion 10b cross-validates G200x4-meanmax-D6 on
ENZYMES over 10 folds x 5 repeats x 500 epochs. This tool runs the exact
configuration of each for a few units on the synthetic shapes of
perfbench/gen.py, which it imports and never writes: 10a as SEEDS seeds of
EPOCHS epochs, 10b as one 10-fold repeat of CV_EPOCHS epochs.

Each check runs in its own child process. The child generates its data into
a temporary directory and sets it up untimed, then times the training: wall
seconds, and CPU seconds (user plus system) of the child and of every process
it waited for, such as cross-validation's fold workers. The tool prints both
per unit (an epoch, a fold-epoch) and extrapolated to the release's unit
count, in hours.

Usage:
    python3 tools/release_cost.py
"""
import importlib.util
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from specgconv import data, filters, graphs, kernels, nn, spectral  # noqa: E402

SYM = graphs.LaplacianKind.SYM_NORMALIZED
CORA_DESIGNS = ("lowpass(eta=5)", "bandpass(c=0.25,gamma=0.25)",
                "bandpass(c=0.5,gamma=0.25)", "bandpass(c=0.75,gamma=0.25)")
ENZYMES_DESIGNS = ("cheb(k=1)", "cheb(k=2)", "cheb(k=3)")
CV_FOLDS = 10
# what is timed: 10a seeds, 10a epochs per seed, 10b epochs per fold
SEEDS, EPOCHS, CV_EPOCHS = 2, 4, 2
# check: (unit, units in the release reproduction)
RELEASE = {"10a": ("epoch", 20 * 400), "10b": ("fold-epoch", CV_FOLDS * 5 * 500)}
COLUMNS = ("check", "unit", "timed", "wall_s/unit", "cpu_s/unit", "release_units",
           "wall_h", "cpu_h")


def load_gen():
    """perfbench/gen.py as a module, imported without writing its bytecode
    under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_gen"] = gen   # its dataclasses look the module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = dont_write
    return gen


def _kernelset(graph, designs):
    basis = spectral.decompose(graphs.build_laplacian(graph, SYM), SYM)
    return kernels.design_kernelset(basis, [filters.parse_design(t) for t in designs])


def _timed(run):
    """(wall seconds, CPU seconds of this process and its waited-for children) of run()."""
    t0, wall0 = os.times(), time.perf_counter()
    run()
    wall, t1 = time.perf_counter() - wall0, os.times()
    cpu = sum(t1[:4]) - sum(t0[:4])   # user, system, children's user, children's system
    return wall, cpu


def time_10a(gen, shape, seeds, epochs, work):
    """(units, wall s, CPU s) of criterion 10a's training, seeds x epochs epochs."""
    directory = os.path.join(work, "cora")
    gen.write_single_graph(directory, gen.make_single_graph(shape, 0))
    dataset = data.load_single_graph(directory)
    ks = _kernelset(dataset.graph, CORA_DESIGNS)
    spec = nn.parse_architecture("DSG160-DSG7")

    def run():
        for seed in range(seeds):
            cfg = nn.TrainConfig(learning_rate=0.01, epochs=epochs, seed=seed,
                                 weight_decay=3e-4, depthwise_decay=3e-3,
                                 input_dropout=0.75, kernel_dropout=0.75)
            nn.train(spec, ks, dataset, cfg, track_test=True)

    return (seeds * epochs, *_timed(run))


def time_10b(gen, shape, epochs, work):
    """(units, wall s, CPU s) of one 10-fold repeat of criterion 10b's
    cross-validation, epochs epochs per fold."""
    directory = os.path.join(work, "ENZYMES")
    gen.write_tu(directory, gen.make_tu(shape, 0))
    dataset = data.load_tu_dataset(directory)
    kss = [_kernelset(g, ENZYMES_DESIGNS) for g in dataset.graphs]
    spec = nn.parse_architecture("G200-G200-G200-G200-meanmax-D6")
    cfg = nn.TrainConfig(learning_rate=0.001, epochs=epochs, batch_size=180, seed=0,
                         weight_decay=1e-4, input_dropout=0.1, kernel_dropout=0.1)
    return (CV_FOLDS * epochs,
            *_timed(lambda: nn.crossvalidate(dataset, kss, spec, cfg, folds=CV_FOLDS)))


def _child(job, args, sender):
    try:
        sender.send((job(*args), None))
    except Exception as exc:
        sender.send((None, f"{type(exc).__name__}: {exc}"))


def in_child(job, *args):
    """job(*args), run in a forked child process."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child, args=(job, args, sender))
    child.start()
    sender.close()
    try:
        result, error = receiver.recv()
    except EOFError:
        result, error = None, "the child ended without a result"
    finally:
        receiver.close()
        child.join()
    if error is not None:
        raise RuntimeError(f"{job.__name__} failed: {error} (exit code {child.exitcode})")
    return result


def estimate(check, units, wall_s, cpu_s) -> dict:
    """A report row: the timed figures per unit and extrapolated to the
    release's unit count."""
    unit, release_units = RELEASE[check]
    wall, cpu = wall_s / units, cpu_s / units
    return {"check": check, "unit": unit, "timed": units, "wall_s/unit": wall,
            "cpu_s/unit": cpu, "release_units": release_units,
            "wall_h": wall * release_units / 3600, "cpu_h": cpu * release_units / 3600}


def report(rows) -> list:
    """The printed lines: a header, one line per row, and the total hours."""
    def line(cells):
        return "  ".join(f"{c:>13}" if k > 1 else f"{c:<10}" for k, c in enumerate(cells))

    lines = [line(COLUMNS)]
    for r in rows:
        lines.append(line([r["check"], r["unit"], r["timed"], f"{r['wall_s/unit']:.3f}",
                           f"{r['cpu_s/unit']:.3f}", r["release_units"],
                           f"{r['wall_h']:.2f}", f"{r['cpu_h']:.2f}"]))
    lines.append(line(["total", "", "", "", "", "", f"{sum(r['wall_h'] for r in rows):.2f}",
                       f"{sum(r['cpu_h'] for r in rows):.2f}"]))
    return lines


def measure(gen, cora_shape, tu_shape, seeds, epochs, cv_epochs) -> list:
    """The report rows of 10a and 10b, each timed in its own child process;
    gen is perfbench/gen.py (see load_gen)."""
    with tempfile.TemporaryDirectory(prefix="release-cost-") as work:
        return [estimate("10a", *in_child(time_10a, gen, cora_shape, seeds, epochs, work)),
                estimate("10b", *in_child(time_10b, gen, tu_shape, cv_epochs, work))]


def main() -> int:
    gen = load_gen()
    print(f"release_cost: {len(os.sched_getaffinity(0))} CPUs, numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for text in report(measure(gen, gen.CORA, gen.ENZYMES, SEEDS, EPOCHS, CV_EPOCHS)):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
