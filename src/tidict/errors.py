"""Exception types shared across the package, and the JSON number hook."""

import math


class TidictError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TidictError, ValueError):
    """An argument lies outside the domain an operation is defined on.

    Raised for malformed parameter vectors, dimension mismatches, empty or
    inverted boxes, non-positive spacings and similar structural problems.
    """


class TruncationError(TidictError):
    """Too much atom mass falls outside the discretization window.

    Raised when the pre-normalization norm deficit of a sampled atom exceeds
    the embedding's tolerance, i.e. the finite grid cannot faithfully
    represent the requested atom.
    """


class IllConditionedError(TidictError):
    """A Gram matrix is numerically singular or exceeds the condition limit."""


class NoValidDecomposition(TidictError):
    """No admissible raised-cosine decomposition exists for the given data.

    Signals complex or out-of-range spectral roots, negative or vanishing
    recovered weights, coalescing frequencies, or a reconstruction residual
    above tolerance.
    """


class ConfigError(TidictError):
    """An experiment configuration file is missing, unreadable or invalid."""


def finite_number(text: str) -> float:
    """``json.loads`` float/constant hook rejecting ``NaN``, ``Infinity`` and overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value
