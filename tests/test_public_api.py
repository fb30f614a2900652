"""The public API of specgconv, listed in full: every name the package
exports, and the parameters of each exported function. Adding, removing or
renaming one shows up as a change to these lists."""
import inspect
import types

import specgconv

EXPORTED = [
    "Adam", "AllPass", "BandPass", "CVResult", "CayleyBasis", "ChebBasis", "Dense",
    "DepthwiseSeparableConv", "ExpLowPass", "FrequencyProfile", "Graph", "HighPass",
    "KernelSet", "LaplacianKind", "LowPass", "ModelSpec", "MultiGraphDataset",
    "MultiSupportConv", "OneMinusRatio", "ReadoutMeanMax", "SingleGraphDataset",
    "SpectralBasis", "Tabulated", "TrainConfig", "TrainResult", "TrainingDiverged",
    "average_degree", "build_laplacian", "cayley_bmatrix", "cayley_theta", "cheb_kernels",
    "coverage", "crossvalidate", "decompose", "design_bmatrix", "design_kernel",
    "design_kernelset", "evaluate", "export_profile", "format_design", "forward_depthwise",
    "forward_multisupport", "fourier", "gat_profile_stats", "gat_sample_kernel", "gcn_cutoff",
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
    "export_profile": ("p", "path", "include_full", "absolute"),
    "format_design": ("design",),
    "forward_depthwise": ("H", "kernels", "depthwise", "weight", "bias", "activation"),
    "forward_multisupport": ("H", "kernels", "weights", "bias", "activation"),
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
    "param_count": ("spec", "f0", "n_supports", "separable"),
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
