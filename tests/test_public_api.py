"""The public API of specgconv, listed in full: every name the package
exports, and the parameters of each exported function. Adding, removing or
renaming one shows up as a change to these lists. And the library holds no
function that only the tests call, nor a refusal worded in two modules."""
import ast
import inspect
import types
from pathlib import Path

import specgconv

EXPORTED = [
    "Adam", "AllPass", "BandPass", "CVResult", "CayleyBasis", "ChebBasis", "Dense",
    "DepthwiseSeparableConv", "ExpLowPass", "FrequencyProfile", "Graph", "HighPass",
    "KernelSet", "LaplacianKind", "LowPass", "ModelSpec", "MultiGraphDataset",
    "MultiSupportConv", "OneMinusRatio", "ReadoutMeanMax", "SingleGraphDataset",
    "SpectralBasis", "Tabulated", "TrainConfig", "TrainResult", "TrainingDiverged",
    "average_degree", "build_laplacian", "cayley_bmatrix", "cayley_theta", "cheb_kernels",
    "coverage", "crossvalidate", "decompose", "design_bmatrix", "design_kernel",
    "design_kernelset", "evaluate", "export_profile", "format_design", "fourier",
    "gat_profile_stats", "gat_sample_kernel", "gcn_cutoff",
    "gcn_kernel", "gcn_theoretical_profile", "init_parameters", "inverse_fourier",
    "load_single_graph", "load_tu_dataset", "make_folds", "make_ring", "param_count",
    "parse_architecture", "parse_design", "profile", "profile_deviation", "train",
]

PARAMETERS = {
    "Adam": ("lr",),
    "average_degree": ("g",),
    "build_laplacian": ("g", "kind"),
    "cayley_bmatrix": ("basis", "h", "r"),
    "cayley_theta": ("x",),
    "cheb_kernels": ("L", "lambda_max", "n_kernels"),
    "coverage": ("designs", "basis"),
    "crossvalidate": ("dataset", "kernelsets", "spec", "config", "folds", "repeats"),
    "decompose": ("L", "kind", "cache_dir"),
    "design_bmatrix": ("basis", "designs"),
    "design_kernel": ("basis", "design"),
    "design_kernelset": ("basis", "designs"),
    "evaluate": ("design", "basis"),
    "export_profile": ("p", "path", "absolute"),
    "format_design": ("design",),
    "fourier": ("basis", "x"),
    "gat_profile_stats": ("g", "trials", "seed", "basis"),
    "gat_sample_kernel": ("g", "seed"),
    "gcn_cutoff": ("d_bar",),
    "gcn_kernel": ("g",),
    "gcn_theoretical_profile": ("d_bar", "lam"),
    "init_parameters": ("spec", "f0", "n_supports", "rng"),
    "inverse_fourier": ("basis", "x_ft"),
    "load_single_graph": ("directory",),
    "load_tu_dataset": ("directory", "use_attributes"),
    "make_folds": ("dataset", "k", "seed"),
    "make_ring": ("n",),
    "param_count": ("spec", "f0", "n_supports"),
    "parse_architecture": ("arch", "output_activation", "hidden_bias", "output_bias"),
    "parse_design": ("text", "base_dir"),
    "profile": ("C", "basis"),
    "profile_deviation": ("p", "oracle"),
    "train": ("spec", "kernelsets", "data", "config", "train_idx", "val_idx", "track_test"),
}


def test_exported_names_are_the_listed_ones():
    names = sorted(name for name, value in vars(specgconv).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(EXPORTED)


def test_exported_functions_take_the_listed_parameters():
    functions = {name: getattr(specgconv, name) for name in EXPORTED
                 if inspect.isfunction(getattr(specgconv, name))}
    assert set(functions) | {"Adam"} == set(PARAMETERS)
    for name, params in PARAMETERS.items():
        assert tuple(inspect.signature(getattr(specgconv, name)).parameters) == params, name


ROOT = Path(__file__).resolve().parents[1]

# Library functions that nothing in src/, tools/ or perfbench/ calls, each
# kept for the reason given.
UNCALLED = {
    "spectral.fourier": "the paper's graph Fourier transform U^T x",
    "spectral.inverse_fourier": "the paper's inverse graph Fourier transform U x",
    "filters.gcn_theoretical_profile": "the paper's average-degree GCN response, "
                                       "checked by the acceptance suite",
    "filters.cayley_bmatrix": "the paper's CayleyNet B matrix, checked by the acceptance suite",
    "analysis.profile_deviation": "the deviation of a profile from the paper's theoretical one",
    "nn.param_count": "the paper's closed-form parameter counts (acceptance criterion 7)",
    "nn.load_checkpoint": "reads the checkpoint.json that nn.save_checkpoint writes",
    "analysis.load_profile_csv": "reads the profile CSV that analysis.export_profile writes",
}


def _library_functions():
    """(qualified name, module path, node) of every module-level function and
    every method that is not a dunder in src/specgconv."""
    for path in sorted((ROOT / "src" / "specgconv").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", path, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        yield f"{path.stem}.{node.name}.{sub.name}", path, sub


def test_every_library_function_has_a_caller_outside_the_tests():
    """A function counts as called when its name is read as a name or an
    attribute anywhere in src/, tools/ or perfbench/ outside its own body; an
    import, such as a re-export in __init__.py, is no call."""
    reads = {}
    for directory in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    reads.setdefault(name, []).append((path, node))
    uncalled = []
    for qualname, path, fn in _library_functions():
        own = {id(node) for node in ast.walk(fn)}
        if all(p == path and id(node) in own for p, node in reads.get(fn.name, [])):
            uncalled.append(qualname)
    assert sorted(uncalled) == sorted(UNCALLED)


def _refusal_template(node):
    """The message template of `raise X("...")` or `raise X(f"...")`, each
    formatted field blanked to {}; None for any other node."""
    call = node.exc if isinstance(node, ast.Raise) else None
    if not isinstance(call, ast.Call) or not call.args:
        return None
    message = call.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in message.values)
    return None


def test_no_refusal_is_worded_in_two_modules():
    """Each rule a run must meet is refused from one module, so its wording
    cannot drift between copies. One module may raise a message twice."""
    modules = {}
    for path in sorted((ROOT / "src" / "specgconv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            template = _refusal_template(node)
            if template is not None:
                modules.setdefault(template, set()).add(path.stem)
    shared = {template: sorted(names) for template, names in modules.items() if len(names) > 1}
    assert shared == {}
