import functools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import tidict.config
from tidict import ConfigError, SelectAtomSettings, Tolerances, load_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {
    "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 1},
    "grid": {"origin": 0.0, "spacing": 1.0, "counts": 6},
}


def with_number(section, key, literal):
    """MINIMAL with ``section.key`` set to a raw number literal, as bytes."""
    text = json.dumps(dict(MINIMAL, **{section: {**MINIMAL.get(section, {}), key: 12345.5}}))
    return text.replace("12345.5", literal).encode()


class TestDefaults:
    def test_minimal_config_resolves(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.seed == 0
        assert cfg.kernel.sigma == 1.0 and cfg.kernel.dim == 1
        assert cfg.grid.counts == (6,)
        assert np.allclose(cfg.grid.nodes[:, 0], np.arange(6.0))
        assert cfg.out_dir is None
        assert cfg.num_pairs == 1000

    def test_evaluation_defaults_to_grid_bounds(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert np.allclose(cfg.evaluation.lower, [0.0])
        assert np.allclose(cfg.evaluation.upper, [5.0])
        assert cfg.resolution == (50,)

    def test_one_node_axis_defaults_to_the_node_cell(self, tmp_path):
        grid = {"origin": [0.0, 0.0], "spacing": [0.5, 1.0], "counts": [1, 3]}
        payload = dict(MINIMAL, kernel={"kernel": "gaussian", "sigma": 1.0, "dim": 2}, grid=grid)
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.evaluation.lower.tolist() == [-0.25, 0.0]
        assert cfg.evaluation.upper.tolist() == [0.25, 2.0]
        assert cfg.taylor_center.tolist() == [0.0, 1.0]
        # an explicit empty axis is still refused
        payload["evaluation"] = {"lower": [0.0, 0.0], "upper": [0.0, 2.0]}
        with pytest.raises(ConfigError, match="empty box"):
            load_config(write_config(tmp_path, payload))

    def test_embedding_defaults_pad_by_sigma(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        # window covers grid and evaluation region plus 6.5 sigma on each side
        assert np.allclose(cfg.embedding.lower, [-6.5])
        assert np.allclose(cfg.embedding.upper, [11.5])
        assert cfg.embedding.samples_per_axis == (256,)
        assert cfg.embedding.truncation_tol == 1e-3

    def test_taylor_defaults_to_evaluation_centroid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.taylor_order == 2
        assert np.allclose(cfg.taylor_center, [2.5])

    def test_select_atom_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        sa = cfg.select_atom
        assert np.allclose(sa.theta_true, [2.5])
        assert sa.snr_db is None
        assert sa.oracle_per_axis == 200
        assert np.allclose(sa.search.lower, cfg.evaluation.lower)
        assert np.allclose(sa.search.upper, cfg.evaluation.upper)
        assert sa.settings.coarse_per_axis == 32
        assert sa.settings.num_starts == 8

    def test_dataclass_defaults_are_the_only_copy(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.tolerances == Tolerances()
        assert cfg.select_atom.settings == SelectAtomSettings()

    def test_tolerance_defaults(self, tmp_path):
        tol = load_config(write_config(tmp_path, MINIMAL)).tolerances
        assert tol.residual == 1e-8
        assert tol.node_interpolation == 1e-7
        assert tol.kernel_match == 1e-10
        assert tol.condition_limit == 1e12


class TestFullConfig:
    def test_every_field_honoured(self, tmp_path):
        payload = {
            "seed": 42,
            "out_dir": "results",
            "kernel": {"kernel": "gaussian", "sigma": 0.5, "dim": 2},
            "grid": {"origin": [0.0, 1.0], "spacing": [0.5, 1.0], "counts": [2, 3]},
            "evaluation": {"lower": [0.0, 0.0], "upper": [1.0, 4.0], "resolution": [20, 40]},
            "embedding": {
                "lower": [-4.0, -4.0],
                "upper": [5.0, 8.0],
                "samples_per_axis": [128, 64],
                "truncation_tol": 1e-2,
            },
            "taylor": {"order": 3, "center": [0.5, 2.0]},
            "select_atom": {
                "theta_true": [0.3, 0.7],
                "snr_db": 20.0,
                "oracle_per_axis": 101,
                "coarse_per_axis": 16,
                "num_starts": 4,
                "max_iter": 30,
                "grad_tol": 1e-9,
                "search": {"lower": [0.0, 0.0], "upper": [1.0, 2.0]},
            },
            "tolerances": {"residual": 1e-9, "condition_limit": 1e10},
            "validation": {"num_pairs": 500},
        }
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.seed == 42
        assert cfg.out_dir == "results"
        assert cfg.kernel.sigma == 0.5 and cfg.kernel.dim == 2
        assert cfg.grid.counts == (2, 3)
        assert np.allclose(cfg.grid.spacing, [0.5, 1.0])
        assert np.allclose(cfg.evaluation.upper, [1.0, 4.0])
        assert cfg.resolution == (20, 40)
        assert cfg.embedding.samples_per_axis == (128, 64)
        assert cfg.embedding.truncation_tol == 1e-2
        assert cfg.taylor_order == 3
        assert np.allclose(cfg.taylor_center, [0.5, 2.0])
        sa = cfg.select_atom
        assert np.allclose(sa.theta_true, [0.3, 0.7])
        assert sa.snr_db == 20.0
        assert sa.oracle_per_axis == 101
        assert np.allclose(sa.search.upper, [1.0, 2.0])
        assert sa.settings.coarse_per_axis == 16
        assert sa.settings.num_starts == 4
        assert sa.settings.max_iter == 30
        assert sa.settings.grad_tol == 1e-9
        assert cfg.tolerances.residual == 1e-9
        assert cfg.tolerances.condition_limit == 1e10
        assert cfg.num_pairs == 500

    def test_scalars_broadcast_across_axes(self, tmp_path):
        payload = {
            "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 3},
            "grid": {"origin": 0.0, "spacing": 1.0, "counts": 2},
            "embedding": {"samples_per_axis": 32},
        }
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.grid.counts == (2, 2, 2)
        assert np.allclose(cfg.grid.spacing, [1.0, 1.0, 1.0])
        assert cfg.embedding.samples_per_axis == (32, 32, 32)


class TestSchema:
    def test_shipped_schema_is_valid(self):
        schema_file = resources.files("tidict").joinpath(tidict.config.SCHEMA_FILE)
        schema = json.loads(schema_file.read_text(encoding="utf-8"))
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_every_schema_keyword_is_implemented(self):
        schema_file = resources.files("tidict").joinpath(tidict.config.SCHEMA_FILE)
        used = set()
        additional = []

        def collect(node):
            used.update(node)
            if "additionalProperties" in node:
                additional.append(node["additionalProperties"])
            for key in ("properties", "$defs"):
                for sub in node.get(key, {}).values():
                    collect(sub)
            for sub in node.get("anyOf", []) + ([node["items"]] if "items" in node else []):
                collect(sub)

        collect(json.loads(schema_file.read_text(encoding="utf-8")))
        assert used <= tidict.config._KEYWORDS
        assert tidict.config._KEYWORDS - used == set()
        # the walker implements additionalProperties as false only, not as a schema
        assert additional and all(arg is False for arg in additional)

    def test_load_config_loads_no_jsonschema(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        bad = write_config(tmp_path, dict(MINIMAL, extra=1), name="bad.json")
        script = (
            "import sys\n"
            "from tidict import ConfigError, load_config\n"
            f"load_config({str(path)!r})\n"
            "try:\n"
            f"    load_config({str(bad)!r})\n"
            "except ConfigError:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('jsonschema', 'referencing')))\n"
        )
        src = str(Path(tidict.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[]"


# every field set, with vectors
FULL = {
    "seed": 42,
    "out_dir": "results",
    "kernel": {"kernel": "gaussian", "sigma": 0.5, "dim": 2},
    "grid": {"origin": [0.0, 1.0], "spacing": [0.5, 1.0], "counts": [2, 3]},
    "evaluation": {"lower": [0.0, 0.0], "upper": [1.0, 4.0], "resolution": [20, 40]},
    "embedding": {
        "lower": [-4.0, -4.0],
        "upper": [5.0, 8.0],
        "samples_per_axis": [128, 64],
        "truncation_tol": 1e-2,
    },
    "taylor": {"order": 3, "center": [0.5, 2.0]},
    "select_atom": {
        "theta_true": [0.3, 0.7],
        "snr_db": 20.0,
        "oracle_per_axis": 101,
        "coarse_per_axis": 16,
        "num_starts": 4,
        "max_iter": 30,
        "grad_tol": 1e-9,
        "search": {"lower": [0.0, 0.0], "upper": [1.0, 2.0]},
    },
    "tolerances": {
        "residual": 1e-9,
        "node_interpolation": 1e-7,
        "kernel_match": 1e-10,
        "unit_norm": 1e-10,
        "psd_margin": 1e-10,
        "condition_limit": 1e10,
    },
    "validation": {"num_pairs": 500},
}

# values tried at every property: wrong types, bools, null, values at and
# below every minimum and exclusiveMinimum, empty arrays, bad array items, a
# const mismatch, and integer-valued floats
PROBES = [
    "x", "laplacian", {}, None, True, -1, 0, 1, 0.0, 2.0, 2.5,
    [], [1.0, "a"], [1, 2.5], [2.0, 3.0], [True], [None, "a"],
]


def _objects(schema, value, path=()):
    """(path, subschema) of every object the schema describes that ``value`` holds."""
    if "$ref" in schema:
        schema = tidict.config._schema()["$defs"][schema["$ref"].split("/")[-1]]
    if "properties" in schema and isinstance(value, dict):
        yield path, schema
        for name, sub in schema["properties"].items():
            if name in value:
                yield from _objects(sub, value[name], path + (name,))


DROP = object()


def _edit(doc, path, value=DROP):
    """A copy of ``doc`` with ``path`` set to ``value``, or dropped.

    The copy is unchanged where the path runs through a value that is not
    an object.
    """
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict):
        if value is DROP:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return out


@functools.cache
def edits():
    """One property probed, one required key dropped, or one unknown key added, as (path, value)."""
    out = []
    for path, schema in _objects(tidict.config._schema(), FULL):
        for name in schema["properties"]:
            out += [(path + (name,), probe) for probe in PROBES]
        out += [(path + (name,), DROP) for name in schema.get("required", [])]
        out += [(path + ("bogus",), 1), (path + ("zz",), 2)]
    return tuple(out)


VALID = [
    FULL,
    MINIMAL,
    dict(MINIMAL, seed=3.0, grid={"origin": 0, "spacing": 1, "counts": 6.0}),
    _edit(FULL, ("grid", "counts"), [2.0, 3.0]),
    _edit(FULL, ("select_atom", "snr_db"), None),
    _edit(FULL, ("evaluation",), {"lower": 0, "upper": 1.0, "resolution": 20}),
    _edit(FULL, ("embedding",), {}),
]


@functools.cache
def validator():
    schema_file = resources.files("tidict").joinpath(tidict.config.SCHEMA_FILE)
    return jsonschema.Draft202012Validator(json.loads(schema_file.read_text(encoding="utf-8")))


def best_match(errors):
    """JSON path and message of jsonschema's best match, as the walker reports them."""
    best = jsonschema.exceptions.best_match(errors)
    return None if best is None else (best.json_path, best.message)


def jsonschema_error(doc):
    return best_match(validator().iter_errors(doc))


def walker_path(doc):
    error = tidict.config._schema_error(doc)
    return None if error is None else error[0]


class TestSchemaWalker:
    """The schema walker against jsonschema's Draft202012Validator and best_match.

    Messages are compared too: the walker words them as jsonschema 4.26 does.
    """

    @pytest.mark.parametrize("doc", VALID, ids=range(len(VALID)))
    def test_accepts_what_jsonschema_accepts(self, doc):
        assert jsonschema_error(doc) is None
        assert tidict.config._schema_error(doc) is None

    def test_single_violations(self):
        docs = [_edit(FULL, *e) for e in edits()]
        errors = [list(validator().iter_errors(d)) for d in docs]
        want = [best_match(e) for e in errors]
        assert [tidict.config._schema_error(d) for d in docs] == want
        paths = {w and w[0] for w in want}
        assert None in paths and "$" in paths and "$.grid.origin[1]" in paths
        # every kind of violation the schema admits occurs
        flat = [e for errs in errors for e in errs]
        assert {e.validator for e in flat} == {
            "type", "const", "required", "additionalProperties", "anyOf", "minimum",
            "exclusiveMinimum",
        }
        assert {c.validator for e in flat for c in e.context} == {"type", "minItems"}

    def test_several_violations(self):
        rng = np.random.default_rng(7)
        docs = []
        for k in (2, 3, 5):
            for _ in range(100):
                doc = FULL
                for i in rng.choice(len(edits()), size=k, replace=False):
                    doc = _edit(doc, *edits()[i])
                docs.append(doc)
        want = [jsonschema_error(d) for d in docs]
        assert sum(w is not None for w in want) > 250
        assert [tidict.config._schema_error(d) for d in docs] == want

    @pytest.mark.parametrize(
        "doc, path",
        [
            (_edit(FULL, ("grid", "origin"), [1, "a"]), "$.grid.origin[1]"),
            (_edit(FULL, ("grid", "origin"), "x"), "$.grid.origin"),
            (_edit(_edit(FULL, ("kernel", "sigma"), -1.0), ("extra",), 1), "$"),
            (_edit(_edit(FULL, ("kernel", "sigma"), -1.0), ("grid", "counts"), 1.5), "$.kernel.sigma"),
        ],
        ids=["anyOf-item", "anyOf-type", "shallowest-wins", "greatest-path-wins"],
    )
    def test_reported_paths(self, doc, path):
        assert walker_path(doc) == path

    @pytest.mark.parametrize(
        "doc, message",
        [
            (dict(MINIMAL, extra=1), "'extra' was unexpected"),
            (dict(MINIMAL, zz=1, extra=1), "'extra', 'zz' were unexpected"),
            (dict(MINIMAL, kernel={"kernel": "laplacian", "sigma": 1.0, "dim": 1}), "'gaussian' was expected"),
            (dict(MINIMAL, seed=True), "True is not of type 'integer'"),
            (dict(MINIMAL, seed=-1), "-1 is less than the minimum of 0"),
            (dict(MINIMAL, grid={"origin": 0.0, "spacing": [], "counts": 6}), "[] should be non-empty"),
            ({"kernel": MINIMAL["kernel"]}, "'grid' is a required property"),
            # a retired tolerance is refused like any unknown key
            (dict(MINIMAL, tolerances={"rank_svals": 1e-8}), "'rank_svals' was unexpected"),
        ],
        ids=[
            "additional", "two-additional", "const", "type", "minimum", "minItems", "required",
            "retired-rank-svals",
        ],
    )
    def test_messages(self, doc, message):
        assert message in tidict.config._schema_error(doc)[1]


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_required_section(self, tmp_path):
        payload = {"kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 1}}
        with pytest.raises(ConfigError, match="grid"):
            load_config(write_config(tmp_path, payload))

    def test_schema_violation_names_json_path(self, tmp_path):
        payload = {
            "kernel": {"kernel": "gaussian", "sigma": -1.0, "dim": 1},
            "grid": {"origin": 0.0, "spacing": 1.0, "counts": 6},
        }
        with pytest.raises(ConfigError, match=r"\$\.kernel\.sigma"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_kernel_family_rejected(self, tmp_path):
        payload = dict(MINIMAL, kernel={"kernel": "laplacian", "sigma": 1.0, "dim": 1})
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, payload))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            load_config(write_config(tmp_path, payload))

    def test_dimension_mismatch_rejected(self, tmp_path):
        payload = dict(
            MINIMAL, grid={"origin": [0.0, 0.0], "spacing": 1.0, "counts": 6}
        )
        with pytest.raises(ConfigError, match="expected 1 value"):
            load_config(write_config(tmp_path, payload))

    def test_inconsistent_objects_reported_as_config_error(self, tmp_path):
        payload = dict(MINIMAL, evaluation={"lower": 5.0, "upper": 0.0})
        with pytest.raises(ConfigError, match="inconsistent"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config file"),
            (
                json.dumps(MINIMAL).replace("gaussian", "gau\u00dfian").encode("latin-1"),
                "not valid JSON: 'utf-8' codec can't decode",
            ),
            # json.loads accepts these, and NaN passes exclusiveMinimum: a NaN
            # condition_limit would switch the conditioning guard off
            (with_number("tolerances", "condition_limit", "NaN"), "NaN is not a finite"),
            (with_number("tolerances", "residual", "Infinity"), "Infinity is not a finite"),
            (with_number("embedding", "truncation_tol", "-Infinity"), "-Infinity is not a finite"),
            (with_number("tolerances", "condition_limit", "1e400"), "1e400 is not a finite"),
            (with_number("tolerances", "condition_limit", "1" + "0" * 400), "out of range"),
            (with_number("grid", "counts", "1" + "0" * 30), "out of range"),
        ],
        ids=[
            "directory", "latin-1", "nan", "infinity", "minus-infinity", "overflow",
            "float-overflow-int", "int64-overflow-int",
        ],
    )
    def test_unusable_file_rejected(self, tmp_path, content, message):
        path = tmp_path
        if content is not None:
            path = tmp_path / "config.json"
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
