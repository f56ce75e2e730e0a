"""Low-rank, translation-invariant approximation of parametric dictionaries.

The package builds interpolating rank-``L`` surrogates for continuously
parameterized families of unit-norm atoms whose correlation structure is
translation invariant.  The surrogate interpolates the family exactly at a
grid of nodes, reproduces a raised-cosine correlation kernel everywhere,
and exposes closed-form approximation errors and inner products that never
require materializing atom vectors.  A fixed-center Taylor expansion of
the atom map is included as the classical baseline, and a CLI drives
reproducible experiments from JSON configuration files.
"""

from .config import ExperimentConfig, SelectAtomConfig, Tolerances, load_config
from .errors import (
    ConfigError,
    DomainError,
    IllConditionedError,
    NoValidDecomposition,
    TidictError,
    TruncationError,
)
from .gram import (
    GramSystem,
    NodeGrid,
    build_gram,
    decompose_gram_1d,
    decompose_grid,
    decompose_gram_separable,
    verify_decomposition,
)
from .kernels import (
    DiscreteEmbedding,
    GaussianIsotropicKernel,
    ParamBox,
)
from .lowrank import LowRankDictionary, SelectAtomSettings
from .raised_cosine import RaisedCosineKernel, ValidationReport
from .taylor import TaylorApproximation, multi_indices

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "SelectAtomConfig",
    "Tolerances",
    "load_config",
    "ConfigError",
    "DomainError",
    "IllConditionedError",
    "NoValidDecomposition",
    "TidictError",
    "TruncationError",
    "GramSystem",
    "NodeGrid",
    "build_gram",
    "decompose_gram_1d",
    "decompose_grid",
    "decompose_gram_separable",
    "verify_decomposition",
    "DiscreteEmbedding",
    "GaussianIsotropicKernel",
    "ParamBox",
    "LowRankDictionary",
    "SelectAtomSettings",
    "RaisedCosineKernel",
    "ValidationReport",
    "TaylorApproximation",
    "multi_indices",
    "__version__",
]
