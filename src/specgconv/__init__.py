"""Spectral-designed graph convolutions.

Design convolution supports from custom frequency responses, back-calculate
the frequency profile of any existing support, and train small convolutional
graph networks (multi-support and depthwise separable layers) on single- and
multi-graph problems.
"""

__version__ = "0.1.0"

from .graphs import Graph, LaplacianKind, average_degree, build_laplacian, make_ring
from .spectral import SpectralBasis, decompose, fourier, inverse_fourier
from .filters import (
    AllPass,
    BandPass,
    CayleyBasis,
    ChebBasis,
    ExpLowPass,
    HighPass,
    LowPass,
    OneMinusRatio,
    Tabulated,
    cayley_bmatrix,
    cayley_theta,
    coverage,
    design_bmatrix,
    evaluate,
    format_design,
    gcn_cutoff,
    gcn_theoretical_profile,
    parse_design,
)
from .kernels import (
    KernelSet,
    cheb_kernels,
    design_kernel,
    design_kernelset,
    gat_sample_kernel,
    gcn_kernel,
)
from .analysis import (
    FrequencyProfile,
    export_profile,
    gat_profile_stats,
    profile,
    profile_deviation,
)
from .nn import (
    Adam,
    CVResult,
    Dense,
    DepthwiseSeparableConv,
    ModelSpec,
    MultiSupportConv,
    ReadoutMeanMax,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    crossvalidate,
    init_parameters,
    param_count,
    parse_architecture,
    train,
)
from .data import (
    MultiGraphDataset,
    SingleGraphDataset,
    load_single_graph,
    load_tu_dataset,
    make_folds,
)
