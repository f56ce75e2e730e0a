"""Experiment configuration: JSON loading, schema validation, defaults.

A configuration file pins everything an experiment run needs: the kernel,
the node grid, the evaluation region, the discretization window for
baselines, solver knobs and tolerances.  The file is validated against the
JSON schema shipped in ``tidict/schemas/config.schema.json`` before any
object is built; structural problems raise :class:`ConfigError` carrying
the offending path.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ConfigError, TidictError
from .gram import CONDITION_LIMIT, PSD_TOL, RESIDUAL_TOL, NodeGrid
from .kernels import DiscreteEmbedding, GaussianIsotropicKernel, ParamBox
from .lowrank import SelectAtomSettings

__all__ = ["ExperimentConfig", "Tolerances", "SelectAtomConfig", "load_config"]

EMBEDDING_PAD_SIGMAS = 6.5
DEFAULT_RESOLUTION = 50
DEFAULT_SAMPLES_PER_AXIS = 256


@dataclass(frozen=True)
class Tolerances:
    residual: float = RESIDUAL_TOL
    node_interpolation: float = 1e-7
    kernel_match: float = 1e-10
    unit_norm: float = 1e-10
    psd_margin: float = PSD_TOL
    rank_svals: float = 1e-8
    condition_limit: float = CONDITION_LIMIT


@dataclass(frozen=True)
class SelectAtomConfig:
    theta_true: np.ndarray
    snr_db: float | None
    oracle_per_axis: int
    search: ParamBox
    settings: SelectAtomSettings


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment setup (defaults already applied)."""

    seed: int
    kernel: GaussianIsotropicKernel
    grid: NodeGrid
    evaluation: ParamBox
    resolution: tuple
    embedding: DiscreteEmbedding
    taylor_order: int
    taylor_center: np.ndarray
    select_atom: SelectAtomConfig
    tolerances: Tolerances
    num_pairs: int
    out_dir: str | None


SCHEMA_FILE = "schemas/config.schema.json"


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """Validator of the shipped schema, built once per process.

    The schema is package data, so it is not checked against the metaschema
    here; the test suite does that.
    """
    text = resources.files(__package__).joinpath(SCHEMA_FILE).read_text(encoding="utf-8")
    return jsonschema.Draft202012Validator(json.loads(text))


def _finite_number(text: str) -> float:
    """JSON number parser that rejects ``NaN``, ``Infinity`` and overflow to infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _overrides(cls, section: dict) -> dict:
    """The entries of ``section`` that set a defaulted field of dataclass ``cls``.

    Each value is coerced to the type of the field's default, so the
    dataclass stays the only place that states the default.
    """
    return {
        f.name: type(f.default)(section[f.name])
        for f in fields(cls)
        if f.default is not MISSING and f.name in section
    }


def _vector(value, dim: int, field: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,) and dim > 1:
        arr = np.repeat(arr, dim)
    if arr.shape != (dim,):
        raise ConfigError(f"{field}: expected {dim} value(s), got {arr.shape[0]}")
    return arr


def _int_vector(value, dim: int, field: str) -> tuple:
    arr = np.atleast_1d(np.asarray(value, dtype=int))
    if arr.shape == (1,) and dim > 1:
        arr = np.repeat(arr, dim)
    if arr.shape != (dim,):
        raise ConfigError(f"{field}: expected {dim} value(s), got {arr.shape[0]}")
    return tuple(int(v) for v in arr)


def load_config(path) -> ExperimentConfig:
    """Read, validate and resolve a configuration file.

    Raises
    ------
    ConfigError
        If the file is missing or unreadable, is not valid UTF-8 JSON, holds
        a non-finite number, fails schema validation (the message names
        the JSON path of the violation), or describes inconsistent objects
        (for example mismatched dimensions).
    """
    path = Path(path)
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"),
            parse_float=_finite_number,
            parse_constant=_finite_number,
        )
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(
            f"config file {path} violates the schema at {error.json_path}: {error.message}"
        ) from error

    try:
        return _resolve(raw)
    except ConfigError:
        raise
    except TidictError as exc:
        raise ConfigError(f"config file {path} is inconsistent: {exc}") from exc
    except OverflowError as exc:  # an integer beyond float or int64 range
        raise ConfigError(f"config file {path} holds a number out of range: {exc}") from exc


def _resolve(raw: dict) -> ExperimentConfig:
    kcfg = raw["kernel"]
    dim = int(kcfg["dim"])
    kernel = GaussianIsotropicKernel(sigma=float(kcfg["sigma"]), dim=dim)

    gcfg = raw["grid"]
    grid = NodeGrid(
        origin=_vector(gcfg["origin"], dim, "grid.origin"),
        spacing=_vector(gcfg["spacing"], dim, "grid.spacing"),
        counts=_int_vector(gcfg["counts"], dim, "grid.counts"),
    )

    glo, ghi = grid.bounds()
    ecfg = raw.get("evaluation", {})
    eval_lower = _vector(ecfg.get("lower", glo), dim, "evaluation.lower")
    eval_upper = _vector(ecfg.get("upper", ghi), dim, "evaluation.upper")
    evaluation = ParamBox(eval_lower, eval_upper)
    resolution = _int_vector(
        ecfg.get("resolution", DEFAULT_RESOLUTION), dim, "evaluation.resolution"
    )

    pad = EMBEDDING_PAD_SIGMAS * kernel.sigma
    mcfg = raw.get("embedding", {})
    emb_lower = _vector(
        mcfg.get("lower", np.minimum(glo, eval_lower) - pad), dim, "embedding.lower"
    )
    emb_upper = _vector(
        mcfg.get("upper", np.maximum(ghi, eval_upper) + pad), dim, "embedding.upper"
    )
    embedding = DiscreteEmbedding(
        kernel=kernel,
        lower=emb_lower,
        upper=emb_upper,
        samples_per_axis=_int_vector(
            mcfg.get("samples_per_axis", DEFAULT_SAMPLES_PER_AXIS),
            dim,
            "embedding.samples_per_axis",
        ),
        **_overrides(DiscreteEmbedding, mcfg),
    )

    tcfg = raw.get("taylor", {})
    taylor_order = int(tcfg.get("order", 2))
    taylor_center = _vector(
        tcfg.get("center", evaluation.center), dim, "taylor.center"
    )

    scfg = raw.get("select_atom", {})
    search_cfg = scfg.get("search")
    if search_cfg is None:
        search = evaluation
    else:
        search = ParamBox(
            _vector(search_cfg["lower"], dim, "select_atom.search.lower"),
            _vector(search_cfg["upper"], dim, "select_atom.search.upper"),
        )
    snr = scfg.get("snr_db")
    select_atom = SelectAtomConfig(
        theta_true=_vector(
            scfg.get("theta_true", evaluation.center), dim, "select_atom.theta_true"
        ),
        snr_db=None if snr is None else float(snr),
        oracle_per_axis=int(scfg.get("oracle_per_axis", 200)),
        search=search,
        settings=SelectAtomSettings(**_overrides(SelectAtomSettings, scfg)),
    )

    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        kernel=kernel,
        grid=grid,
        evaluation=evaluation,
        resolution=resolution,
        embedding=embedding,
        taylor_order=taylor_order,
        taylor_center=taylor_center,
        select_atom=select_atom,
        tolerances=Tolerances(**_overrides(Tolerances, raw.get("tolerances", {}))),
        num_pairs=int(raw.get("validation", {}).get("num_pairs", 1000)),
        out_dir=raw.get("out_dir"),
    )
