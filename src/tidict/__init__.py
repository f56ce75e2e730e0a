"""Low-rank, translation-invariant approximation of parametric dictionaries.

The package builds interpolating rank-``L`` surrogates for continuously
parameterized families of unit-norm atoms whose correlation structure is
translation invariant.  The surrogate interpolates the family exactly at a
grid of nodes, reproduces a raised-cosine correlation kernel everywhere,
and exposes closed-form approximation errors and inner products that never
require materializing atom vectors.  A fixed-center Taylor expansion of
the atom map is included as the classical baseline, and a CLI drives
reproducible experiments from JSON configuration files.

The public names load their submodule on first use, so ``import tidict``
loads no numpy, and :mod:`tidict.cli` can limit BLAS to one thread first.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "IllConditionedError",
    "NoValidDecomposition",
    "TidictError",
    "TruncationError",
    "DiscreteEmbedding",
    "GaussianIsotropicKernel",
    "ParamBox",
    "RaisedCosineKernel",
    "ValidationReport",
    "GramSystem",
    "NodeGrid",
    "build_gram",
    "decompose_gram_1d",
    "decompose_grid",
    "decompose_gram_separable",
    "verify_decomposition",
    "LowRankDictionary",
    "SelectAtomSettings",
    "TaylorApproximation",
    "multi_indices",
    "ExperimentConfig",
    "SelectAtomConfig",
    "Tolerances",
    "load_config",
    "__version__",
]

# in import order, so the first of them that has a public name defines it
_SUBMODULES = ("errors", "kernels", "raised_cosine", "gram", "lowrank", "taylor", "config")


def __getattr__(name):
    if name in __all__:
        for sub in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{sub}")
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
