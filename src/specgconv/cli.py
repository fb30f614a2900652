"""Batch command-line front end.

Three subcommands: ``analyze`` back-calculates frequency profiles of a kernel
on a graph and writes plot-ready CSVs; ``train`` runs a full experiment from
a JSON config (transductive or cross-validated multi-graph); ``gradcheck``
verifies every layer's gradient against central finite differences.

Every ``train`` run sets up through ``_set_up``: it decomposes each graph
once, forms the kernel sets, and builds the record of lambda_max, average
degree and coverage that provenance.json writes.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 acceptance
check failure. The eigendecomposition cache directory is taken from the
``SPECGCONV_CACHE`` environment variable when set.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import warnings

import numpy as np

from . import __version__, _blas
from .analysis import export_profile, gat_profile_stats, profile
from .data import (MultiGraphDataset, _check_cv, load_single_graph, load_tu_dataset,
                   save_matrix_csv)
from .filters import (CayleyBasis, ChebBasis, LowPass, Tabulated, coverage, format_design,
                      gcn_cutoff, parse_design)
from .gradcheck import gradcheck_suite
from .graphs import IsolatedNode, LaplacianKind, average_degree, build_laplacian, make_ring
from .kernels import (
    cheb_kernels,
    design_kernelset,
    gat_sample_kernel,
    gcn_kernel,
)
from .nn import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    _check_problem,
    _check_split,
    crossvalidate,
    parse_architecture,
    save_checkpoint,
    train,
)
from .spectral import decompose

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


class ConfigError(Exception):
    pass


def _cache_dir():
    return os.environ.get("SPECGCONV_CACHE") or None


def _laplacian_kind(name: str) -> LaplacianKind:
    try:
        return LaplacianKind(name)
    except ValueError:
        raise ConfigError(f"unknown Laplacian kind {name!r} (use sym or comb)") from None


def _load_graph(spec: str):
    """The graph of a --graph spec: ring<N>, "ring" followed by digits only,
    or else a single-graph dataset directory, such as rings/cora."""
    ring = re.fullmatch(r"ring([0-9]+)", spec)
    if ring:
        return make_ring(int(ring.group(1)))
    if not os.path.isdir(spec):
        raise ConfigError(f"graph {spec!r} is neither ring<N> nor a dataset directory")
    return load_single_graph(spec).graph


def _check_out_dir(out_dir: str, what: str) -> None:
    """Refuse an output path that cannot become a directory, before any
    set-up: the path itself, or the nearest of its parents that exists, is
    not a directory. The directory is made only at the first write."""
    existing = os.path.abspath(out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"{what} {out_dir!r}: {existing!r} exists and is not a directory")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _parse_kernel_spec(arg: str) -> tuple:
    """(head, argument) of a kernel spec, gcn | cheb:<k> | cayley:<h>:<r> |
    design:<expr>[;<expr>...] | gat:<seed>: the argument is None for gcn, the
    order for cheb, (h, r) for cayley, the designs for design, the seed for
    gat. Needs no graph, so a bad spec is refused before any decomposition;
    what depends on the graph is checked by cmd_analyze once the graph is
    loaded."""
    head, colon, rest = arg.partition(":")
    if head == "gcn" and not colon:
        return head, None
    if head in ("cheb", "gat"):
        what = "order, cheb:<k>" if head == "cheb" else "seed, gat:<seed>"
        try:
            value = int(rest)
        except ValueError:
            raise ConfigError(f"{head} kernel needs an integer {what}; got {arg!r}") from None
        if head == "cheb" and value < 1:
            raise ConfigError(f"cheb kernel needs an order of at least 1; got {arg!r}")
        if head == "gat" and value < 0:
            raise ConfigError(f"gat kernel needs a non-negative seed, gat:<seed>; got {arg!r}")
        return head, value
    if head == "cayley":
        h_str, _, r_str = rest.partition(":")
        try:
            h, r = float(h_str), int(r_str)
        except ValueError:
            raise ConfigError(f"cayley kernel needs a scale and an integer order, "
                              f"cayley:<h>:<r>; got {arg!r}") from None
        if r < 1:
            raise ConfigError(f"cayley kernel needs an order of at least 1; got {arg!r}")
        CayleyBasis(s=1, h=h, r=r)   # refuses a bad scale
        return head, (h, r)
    if head == "design":
        designs = [parse_design(t) for t in rest.split(";") if t]
        if not designs:
            raise ConfigError("design: needs at least one filter expression")
        return head, designs
    raise ConfigError(f"unknown kernel spec {arg!r}")


def _build_kernels(head: str, value, graph, basis):
    """The supports of a parsed kernel spec (see _parse_kernel_spec) on a
    graph, and their names."""
    if head == "gcn":
        return [gcn_kernel(graph)], ["gcn"]
    if head == "cheb":
        ks = cheb_kernels(build_laplacian(graph, basis.kind), basis.lambda_max, value)
        return list(ks.supports), [f"cheb_{k + 1}" for k in range(ks.n_kernels)]
    if head == "cayley":
        ks = design_kernelset(basis, value)
        return list(ks.supports), [f"cayley_{d.s}" for d in value]
    if head == "design":
        ks = design_kernelset(basis, value)
        return list(ks.supports), [format_design(d) for d in value]
    return [gat_sample_kernel(graph, value)], [f"gat_{value}"]


def cmd_analyze(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    head, value = _parse_kernel_spec(args.kernel)
    if args.trials > 1 and head != "gat":
        raise ConfigError(f"--trials applies to gat:<seed> kernels only; got --trials "
                          f"{args.trials} with --kernel {args.kernel}")
    for flag, given in (("--abs", args.abs), ("--export-kernels", args.export_kernels)):
        if args.trials > 1 and given:
            raise ConfigError(f"{flag} applies to single-kernel profiles only; got it with "
                              f"--trials {args.trials}")
    _check_out_dir(args.out, "--out")
    graph = _load_graph(args.graph)
    kind = _laplacian_kind(args.laplacian)
    # what the spec needs of the graph, checked before the decomposition and --out
    if head == "cayley":
        h, r = value
        # as with cheb:<k>, a graph of n nodes has at most n independent responses
        if 2 * r + 1 > graph.n:
            raise ConfigError(f"{args.kernel} makes 2r+1 = {2 * r + 1} supports, "
                              f"above the node count {graph.n}")
        value = [CayleyBasis(s=s, h=h, r=r) for s in range(1, 2 * r + 2)]
    designs = (value if head in ("cayley", "design") else
               [ChebBasis(k=value)] if head == "cheb" else [])
    for d in designs:
        d.check_graph(graph.n)
    basis = decompose(build_laplacian(graph, kind), kind, cache_dir=_cache_dir())
    os.makedirs(args.out, exist_ok=True)

    d_bar = average_degree(graph)
    summary = {
        "graph": args.graph,
        "n": graph.n,
        "kernel": args.kernel,
        "laplacian": args.laplacian,
        "lambda_max": basis.lambda_max,
        "average_degree": d_bar,
        "gcn_cutoff_predicted": gcn_cutoff(d_bar) if d_bar > 0 else None,
        "version": __version__,
    }

    if args.trials > 1:
        stats = gat_profile_stats(graph, args.trials, value, basis)
        save_matrix_csv(os.path.join(args.out, "gat_mean_standard.csv"),
                        np.column_stack([stats["lambda"], stats["mean_standard"]]))
        save_matrix_csv(os.path.join(args.out, "gat_std_standard.csv"),
                        np.column_stack([stats["lambda"], stats["std_standard"]]))
        save_matrix_csv(os.path.join(args.out, "gat_mean_full.csv"), stats["mean_full"])
        save_matrix_csv(os.path.join(args.out, "gat_std_full.csv"), stats["std_full"])
        summary["trials"] = args.trials
    else:
        supports, names = _build_kernels(head, value, graph, basis)
        for i, (C, name) in enumerate(zip(supports, names), start=1):
            p = profile(C, basis)
            export_profile(p, os.path.join(args.out, f"standard_{i}.csv"), absolute=args.abs)
            if args.export_kernels:
                save_matrix_csv(os.path.join(args.out, f"kernel_{i}.csv"), C)
        summary["kernels"] = names

    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(f"analyze: wrote profiles for {args.kernel} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# a config field that is missing or null takes its default; _REQUIRED has none
_REQUIRED = object()
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
               int: "an integer"}


def _field(section: dict, key: str, kind, default=_REQUIRED):
    """section[key], refused unless it is of the JSON kind given (a Python
    type); true and false are no integers."""
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing field {key!r}")
        return default
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{key} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


# the fields of the top level, dataset and cv (train's are TrainConfig's)
_FIELDS = {
    "config": ("dataset", "laplacian", "designs", "architecture", "output_activation",
               "hidden_bias", "output_bias", "train", "cv", "sweep_eta", "output_dir"),
    "dataset": ("path", "kind", "use_attributes"),
    "cv": ("folds", "repeats"),
}


def _check_fields(cfg: dict) -> None:
    """Refuse, before the dataset is loaded, an unknown dataset kind, a field
    that its section does not hold (a misspelt one, say) and a field that
    only the other dataset kind runs. A null field counts as missing."""
    ds = _field(cfg, "dataset", dict)
    for name, section in (("config", cfg), ("dataset", ds), ("cv", _field(cfg, "cv", dict, {}))):
        for key in section:
            if key not in _FIELDS[name]:
                raise ConfigError(f"{name} has unknown field {key!r}")
    kind = _field(ds, "kind", str, "single")
    if kind not in ("single", "tu"):
        raise ConfigError(f"unknown dataset kind {kind!r} (use single or tu)")
    if kind == "tu" and _field(cfg, "sweep_eta", list, []):
        raise ConfigError("sweep_eta applies to single datasets only; "
                          "a tu dataset runs cross-validation")
    for key, section, why in (("cv", cfg, "trains once on its split"),
                              ("use_attributes", ds, "reads its features from features.csv")):
        if kind == "single" and section.get(key) is not None:
            raise ConfigError(f"{key} applies to tu datasets only; a single dataset {why}")


def _train_config(cfg: dict, args) -> TrainConfig:
    t = dict(_field(cfg, "train", dict, {}))
    for key, val in (("epochs", args.epochs), ("learning_rate", args.lr), ("seed", args.seed)):
        if val is not None:
            t[key] = val
    try:
        return TrainConfig(**t)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from None


def _experiment_parts(cfg: dict, base_dir: str):
    ds = _field(cfg, "dataset", dict)
    path, kind = _field(ds, "path", str), _field(ds, "kind", str, "single")
    texts = _field(cfg, "designs", list)
    if not all(isinstance(t, str) for t in texts):
        raise ConfigError(f"designs must be a list of strings, got {json.dumps(texts)}")
    designs = [parse_design(t, base_dir=base_dir) for t in texts]
    arch = _field(cfg, "architecture", str)
    if not designs:
        raise ConfigError("designs must be non-empty")
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not os.path.isdir(path):
        raise ConfigError(f"dataset path {path!r} is not a directory")
    try:
        spec = parse_architecture(
            arch,
            output_activation=_field(cfg, "output_activation", str, "linear"),
            hidden_bias=_field(cfg, "hidden_bias", bool, False),
            output_bias=_field(cfg, "output_bias", bool, True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lap = _laplacian_kind(_field(cfg, "laplacian", str, "sym"))
    return path, kind, ds, designs, arch, spec, lap


def _out_file(out_dir, name):
    """Path of a run output. The run directory is made at the first write, so a
    run refused for its config, before or during set-up, leaves none behind."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_run(out_dir, cfg, tconfig, extra, result=None):
    """Write result.json (when a result is given) and provenance.json; both
    record the optimizer's name and constants as the optimizer reports them."""
    optimizer = Adam(tconfig.learning_rate).metadata()
    if result is not None:
        with open(_out_file(out_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump({**result, "optimizer": optimizer}, fh, indent=2)
    doc = {
        "config": cfg,
        "resolved_seed": tconfig.seed,
        "version": __version__,
        "numpy": np.__version__,
        "optimizer": optimizer,
        **extra,
    }
    with open(_out_file(out_dir, "provenance.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=str)


def _write_metrics_csv(path, metrics):
    cols = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    extra = [c for c in ("test_loss", "test_acc") if metrics and c in metrics[0]]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols + extra) + "\n")
        for row in metrics:
            fh.write(",".join(str(row.get(c, "")) for c in cols + extra) + "\n")


def _set_up(dataset, lap, designs, points=None):
    """Decompose each graph of the run once, then hand out, one point at a
    time, the kernel sets (one per graph) of each design list in points: one
    list per sweep point, or designs alone. Each comes with the run's record
    for provenance.json: lambda_max and average_degree (one value per graph
    of a TU set) and the coverage of designs on the first graph. The last
    point's kernel sets drop each basis once it is read, so no basis is held
    while that point trains."""
    tu = isinstance(dataset, MultiGraphDataset)
    graphs = dataset.graphs if tu else [dataset.graph]
    points = points or [designs]
    bases, first_node = [], 1
    for graph_id, g in enumerate(graphs, start=1):   # ids as in DS_graph_indicator.txt
        try:
            bases.append(decompose(build_laplacian(g, lap), lap, cache_dir=_cache_dir()))
        except IsolatedNode as exc:
            if not tu:
                raise
            # the TU files number nodes 1.. across the set, in graph order
            raise ConfigError(f"graph {graph_id}: {IsolatedNode(first_node + exc.node)}") from None
        first_node += g.n
    cov = coverage(designs, bases[0])
    if cov < 0.01:
        warnings.warn(f"designed responses cover the spectrum poorly (min sum {cov:.3g} < 0.01)")
    lambda_max, degrees = [b.lambda_max for b in bases], [average_degree(g) for g in graphs]
    record = {"lambda_max": lambda_max if tu else lambda_max[0],
              "average_degree": degrees if tu else degrees[0], "coverage": cov}
    for point in points[:-1]:
        yield record, [design_kernelset(b, point) for b in bases]
    yield record, [design_kernelset(bases.pop(0), points[-1]) for _ in graphs]


def _sweep_etas(cfg, designs) -> list:
    """The exponents of a single dataset's sweep_eta, [] without a sweep: a
    list of numbers, each the eta of the one lowpass design that designs
    must then hold."""
    sweep = _field(cfg, "sweep_eta", list, [])
    if not all(isinstance(eta, (int, float)) and not isinstance(eta, bool) for eta in sweep):
        raise ConfigError(f"sweep_eta must be a list of numbers, got {json.dumps(sweep)}")
    lowpass = sum(isinstance(d, LowPass) for d in designs)
    if sweep and lowpass != 1:
        raise ConfigError("sweep_eta varies the eta of a lowpass design, but designs has "
                          f"{lowpass or 'none'}")
    return sweep


def _run_transductive(cfg, spec, designs, lap, dataset, tconfig, out_dir, sweep):
    """Train on the graph; with a sweep (see _sweep_etas), re-train once per
    low-pass exponent instead and select by minimum validation loss."""
    _check_split(dataset)
    if sweep and not dataset.masks["val"].any():
        raise ConfigError("sweep_eta selects by validation loss, but the split has no val nodes")
    points = _set_up(dataset, lap, designs, [
        [LowPass(eta=float(eta)) if isinstance(d, LowPass) else d for d in designs]
        for eta in sweep])
    rows = []
    for eta in sweep or [None]:
        record, (kernels,) = next(points)
        result = train(spec, kernels, dataset, tconfig, track_test=True)
        del kernels   # the next point's kernel set is formed without this one
        if sweep:
            min_val_loss = min(m["val_loss"] for m in result.metrics)
            max_val_acc = max(m["val_acc"] for m in result.metrics)
            rows.append({"eta": eta, "min_val_loss": min_val_loss, "max_val_acc": max_val_acc})
            print(f"eta={eta}: min val loss {min_val_loss:.4f}, max val acc {max_val_acc:.4f}")
    if sweep:
        best = min(rows, key=lambda r: r["min_val_loss"])
        doc = {"sweep": rows, "selected_eta": best["eta"], "criterion": "min_val_loss"}
        with open(_out_file(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        _write_run(out_dir, cfg, tconfig, record)
        print(f"sweep: selected eta={best['eta']}")
        return EXIT_OK

    _write_metrics_csv(_out_file(out_dir, "metrics.csv"), result.metrics)
    save_checkpoint(result.params, _out_file(out_dir, "checkpoint.json"))
    last = result.metrics[-1]
    # a split without val nodes has no val scores, and so no best-val epoch
    best_val = max(result.metrics, key=lambda m: m["val_acc"]) if "val_acc" in last else {}
    final = {
        "test_accuracy": last.get("test_acc"),
        "test_accuracy_at_best_val": best_val.get("test_acc"),
        "best_val_epoch": best_val.get("epoch"),
        "final": last,
        "coverage": record["coverage"],
    }
    _write_run(out_dir, cfg, tconfig, record, result=final)
    print(f"train: test accuracy {last.get('test_acc')}")
    return EXIT_OK


def _run_inductive(cfg, spec, designs, lap, dataset, tconfig, out_dir, folds, repeats):
    [(record, kernelsets)] = _set_up(dataset, lap, designs)
    result = crossvalidate(dataset, kernelsets, spec, tconfig, folds=folds, repeats=repeats)
    final = {
        "cv_mean_accuracy": result.mean,
        "cv_std_accuracy": result.std,
        "std_defined": result.std_defined,
        "repeat_accuracies": result.repeat_accuracies,
        "best_epochs": result.best_epochs,
        "coverage": record["coverage"],
    }
    _write_run(out_dir, cfg, tconfig, {"n_graphs": len(dataset), **record}, result=final)
    print(f"train: CV accuracy {result.mean:.4f} +/- {result.std:.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config must be a JSON object, got {json.dumps(cfg)}")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    _check_fields(cfg)
    path, kind, ds, designs, arch, spec, lap = _experiment_parts(cfg, base_dir)
    tconfig = _train_config(cfg, args)
    out_dir = args.out or _field(cfg, "output_dir", str, "") or "run"
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
    _check_out_dir(out_dir, "output_dir")
    # settings a dataset kind cannot run are refused before the dataset is loaded
    _check_problem(spec, graph_level=kind == "tu")
    if kind == "single":
        run = functools.partial(_run_transductive, sweep=_sweep_etas(cfg, designs))
        dataset = load_single_graph(path)
        graphs = [dataset.graph]
    else:
        if any(isinstance(d, Tabulated) for d in designs):
            raise ConfigError("a tabulated design applies to single datasets only; "
                              "its values belong to one graph's eigenvalues")
        cv_cfg = _field(cfg, "cv", dict, {})
        folds, repeats = _field(cv_cfg, "folds", int, 10), _field(cv_cfg, "repeats", int, 1)
        _check_cv(folds, repeats)
        use_attributes = _field(ds, "use_attributes", bool, False)
        dataset = load_tu_dataset(path, use_attributes=use_attributes)
        graphs = dataset.graphs
        _check_cv(folds, repeats, len(graphs))
        run = functools.partial(_run_inductive, folds=folds, repeats=repeats)
    n_max = max(g.n for g in graphs)
    for d in designs:
        d.check_graph(n_max)
    f0 = graphs[0].features.shape[1]
    # node and graph labels alike are classes 0..n_classes-1
    final_width = spec.widths(f0)[-1]
    if final_width != dataset.n_classes:
        raise ConfigError(f"architecture {arch!r} ends with width {final_width}, "
                          f"dataset has {dataset.n_classes} classes")
    return run(cfg, spec, designs, lap, dataset, tconfig, out_dir)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    failures = 0
    for name, err in gradcheck_suite(seed=args.seed):
        status = "OK" if err < 1e-5 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status:4s} {name:48s} max rel err {err:.3e}")
    if failures:
        print(f"gradcheck: {failures} case(s) above 1e-5")
        return EXIT_CHECK_FAILED
    print("gradcheck: all cases pass")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgconv",
        description="Spectral-designed graph convolutions: analysis and training.",
    )
    parser.add_argument("--strict-repro", action="store_true",
                        help="force single-threaded BLAS for bitwise-reproducible runs")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="back-calculate kernel frequency profiles")
    pa.add_argument("--graph", required=True, help="ring<N> or a single-graph dataset directory")
    pa.add_argument("--kernel", required=True,
                    help="gcn | cheb:<k> | cayley:<h>:<r> | design:<expr>[;<expr>...] | gat:<seed>")
    pa.add_argument("--laplacian", default="sym", choices=[k.value for k in LaplacianKind])
    pa.add_argument("--trials", type=int, default=1,
                    help="with gat kernels: number of sampled kernels for mean/std profiles")
    pa.add_argument("--abs", action="store_true", help="export absolute values (plotting)")
    pa.add_argument("--export-kernels", action="store_true",
                    help="also write each support matrix as kernel_<i>.csv")
    pa.add_argument("--out", default="analysis", help="output directory")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("train", help="run a training experiment from a JSON config")
    pt.add_argument("--config", required=True)
    pt.add_argument("--epochs", type=int, default=None, help="override config epochs")
    pt.add_argument("--lr", type=float, default=None, help="override learning rate")
    pt.add_argument("--seed", type=int, default=None, help="override seed")
    pt.add_argument("--out", default=None, help="override output directory")
    pt.set_defaults(func=cmd_train)

    pg = sub.add_parser("gradcheck", help="finite-difference check of all layer/loss gradients")
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    return _run(_build_parser().parse_args(argv))


def _run(args) -> int:
    try:
        # --strict-repro pins BLAS or refuses here, before the command runs
        with _blas.one_thread() if args.strict_repro else contextlib.nullcontext():
            return args.func(args)
    # before the config-error handler: LinAlgError is a ValueError
    except (TrainingDiverged, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # JSONDecodeError is a ValueError; numpy's MemoryError says in one line
    # what an architecture too wide to allocate would need
    except (ConfigError, OSError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
