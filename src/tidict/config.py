"""Experiment configuration: JSON loading, schema validation, defaults.

A configuration file pins everything an experiment run needs: the kernel,
the node grid, the evaluation region, the discretization window for
baselines, solver knobs and tolerances.  The file is validated against the
JSON schema shipped in ``tidict/schemas/config.schema.json`` before any
object is built; structural problems raise :class:`ConfigError` carrying
the offending path.  The check implements the draft 2020-12 keywords that
schema uses, and nothing else; the test suite checks that it uses no other.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, TidictError, finite_number
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

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    # draft 2020-12: 2.0 is an integer, and true is neither an integer nor a number
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# the keywords _violations checks, plus the annotations it skips
_KEYWORDS = frozenset({
    "$schema", "$id", "title", "$defs", "$ref", "type", "const", "required",
    "properties", "additionalProperties", "anyOf", "items", "minItems",
    "minimum", "exclusiveMinimum",
})


def _is_type(value, types) -> bool:
    return any(_TYPES[t](value) for t in ([types] if isinstance(types, str) else types))


@functools.cache
def _schema() -> dict:
    """The shipped schema, read once per process."""
    return json.loads((Path(__file__).parent / SCHEMA_FILE).read_text(encoding="utf-8"))


def _violations(schema: dict, value, path: tuple = ()) -> list:
    """Every violation of ``schema`` by ``value``, in the order jsonschema finds them.

    Each is ``(relevance, message, context)``.  ``relevance`` is jsonschema's
    sort key ``(-depth, path, wrong type)``, where ``path`` holds the property
    names and array indices from the root, and ``context`` holds an anyOf's
    branch violations.  jsonschema's key also ranks anyOf below other
    keywords on the same value; that never decides here, because no
    subschema of the shipped schema puts another keyword beside an anyOf.
    """
    out = []

    def fail(message, context=()):
        wrong_type = not ("type" in schema and _is_type(value, schema["type"]))
        out.append(((-len(path), path, wrong_type), message, context))

    is_number = _TYPES["number"](value)
    for key, arg in schema.items():
        if key == "$ref":  # the schema refers only to "#/$defs/<name>"
            out += _violations(_schema()["$defs"][arg.removeprefix("#/$defs/")], value, path)
        elif key == "type" and not _is_type(value, arg):
            types = ", ".join(map(repr, [arg] if isinstance(arg, str) else arg))
            fail(f"{value!r} is not of type {types}")
        elif key == "const" and value != arg:  # the schema's one const is a string
            fail(f"{arg!r} was expected")
        elif key == "minimum" and is_number and value < arg:
            fail(f"{value!r} is less than the minimum of {arg!r}")
        elif key == "exclusiveMinimum" and is_number and value <= arg:
            fail(f"{value!r} is less than or equal to the minimum of {arg!r}")
        elif key == "anyOf":
            context = []
            for sub in arg:
                errs = _violations(sub, value, path)
                if not errs:
                    break
                context += errs
            else:
                fail(f"{value!r} is not valid under any of the given schemas", context)
        elif isinstance(value, list):
            if key == "minItems" and len(value) < arg:
                fail(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
            elif key == "items":
                for i, item in enumerate(value):
                    out += _violations(arg, item, path + (i,))
        elif isinstance(value, dict):
            if key == "required":
                for name in arg:
                    if name not in value:
                        fail(f"{name!r} is a required property")
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        out += _violations(sub, value[name], path + (name,))
            elif key == "additionalProperties":
                extras = sorted(set(value) - set(schema.get("properties", {})))
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    fail(f"Additional properties are not allowed ({names} {verb} unexpected)")
    return out


def _schema_error(raw) -> tuple[str, str] | None:
    """JSON path and message of the violation jsonschema's ``best_match`` reports.

    The most relevant violation wins: the shallowest, then the one with the
    greatest path, then one on a value of the wrong type.  An anyOf descends
    to its deepest branch violation, unless the two most specific tie.
    ``None`` when ``raw`` satisfies the schema.
    """
    best = max(_violations(_schema(), raw), key=lambda v: v[0], default=None)
    while best is not None and best[2]:
        first, *second = sorted(best[2], key=lambda v: v[0])[:2]
        if second and first[0] == second[0][0]:
            break
        best = first
    if best is None:
        return None
    # the keys on a path are property names of the schema, all plain identifiers
    path = best[0][1]
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), best[1]


def _integer(value) -> int:
    """An integer setting as a C long, like each count of :func:`_vector` with ``dtype=int``.

    From 2**63 on numpy raises :class:`OverflowError`, which
    :func:`load_config` reports as a number out of range.
    """
    return int(np.asarray(value, dtype=int))


def _overrides(cls, section: dict) -> dict:
    """The entries of ``section`` that set a defaulted field of dataclass ``cls``.

    Each value is coerced to the type of the field's default, an integer
    by :func:`_integer`, so the dataclass stays the only place that states
    the default.
    """
    return {
        f.name: (_integer if isinstance(f.default, int) else type(f.default))(section[f.name])
        for f in fields(cls)
        if f.default is not MISSING and f.name in section
    }


def _vector(value, dim: int, field: str, dtype=float) -> np.ndarray:
    """A per-axis setting as ``dim`` values of ``dtype``, one value repeated on every axis.

    An integer of 2**63 or more raises :class:`OverflowError`, as in :func:`_integer`.
    """
    arr = np.atleast_1d(np.asarray(value, dtype=dtype))
    if arr.shape == (1,) and dim > 1:
        arr = np.repeat(arr, dim)
    if arr.shape != (dim,):
        raise ConfigError(f"{field}: expected {dim} value(s), got {arr.shape[0]}")
    return arr


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
            parse_float=finite_number,
            parse_constant=finite_number,
        )
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    error = _schema_error(raw)
    if error is not None:
        raise ConfigError(f"config file {path} violates the schema at {error[0]}: {error[1]}")

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
        counts=_vector(gcfg["counts"], dim, "grid.counts", int),
    )

    glo, ghi = grid.bounds()
    # an axis with one node has no extent: the default box takes the node's cell
    half = np.where(np.array(grid.counts) == 1, 0.5 * grid.spacing, 0.0)
    glo, ghi = glo - half, ghi + half
    ecfg = raw.get("evaluation", {})
    eval_lower = _vector(ecfg.get("lower", glo), dim, "evaluation.lower")
    eval_upper = _vector(ecfg.get("upper", ghi), dim, "evaluation.upper")
    evaluation = ParamBox(eval_lower, eval_upper)
    resolution = _vector(
        ecfg.get("resolution", DEFAULT_RESOLUTION), dim, "evaluation.resolution", int
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
        samples_per_axis=_vector(
            mcfg.get("samples_per_axis", DEFAULT_SAMPLES_PER_AXIS),
            dim,
            "embedding.samples_per_axis",
            int,
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
    if snr is not None:
        snr = float(snr)
        try:
            10.0 ** (-snr / 10.0)  # the noise energy, which must be a float
        except OverflowError:
            raise ConfigError(
                f"select_atom.snr_db: {snr:g} dB gives a noise energy 10^({-snr / 10.0:g}) "
                "beyond the float range; use at least -3082 dB"
            ) from None
    select_atom = SelectAtomConfig(
        theta_true=_vector(
            scfg.get("theta_true", evaluation.center), dim, "select_atom.theta_true"
        ),
        snr_db=snr,
        oracle_per_axis=_integer(scfg.get("oracle_per_axis", 200)),
        search=search,
        settings=SelectAtomSettings(**_overrides(SelectAtomSettings, scfg)),
    )

    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        kernel=kernel,
        grid=grid,
        evaluation=evaluation,
        resolution=tuple(resolution.tolist()),
        embedding=embedding,
        taylor_order=taylor_order,
        taylor_center=taylor_center,
        select_atom=select_atom,
        tolerances=Tolerances(**_overrides(Tolerances, raw.get("tolerances", {}))),
        num_pairs=_integer(raw.get("validation", {}).get("num_pairs", 1000)),
        out_dir=raw.get("out_dir"),
    )
