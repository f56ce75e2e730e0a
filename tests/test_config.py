import json
from importlib import resources

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

    def test_load_config_does_not_check_the_schema(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("checked the shipped schema against the metaschema")

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", fail)
        tidict.config._validator.cache_clear()
        try:
            path = write_config(tmp_path, MINIMAL)
            load_config(path)
            load_config(path)
        finally:
            tidict.config._validator.cache_clear()


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
