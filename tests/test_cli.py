import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tidict
from tidict.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def config_1d(**overrides):
    payload = {
        "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 1},
        "grid": {"origin": 0.0, "spacing": 1.0, "counts": 6},
        "validation": {"num_pairs": 200},
    }
    payload.update(overrides)
    return payload


def config_2d(**overrides):
    payload = {
        "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 2},
        "grid": {"origin": [0.0, 0.0], "spacing": 1.0, "counts": [2, 3]},
        "embedding": {"samples_per_axis": 128},
        "validation": {"num_pairs": 200},
    }
    payload.update(overrides)
    return payload


class TestDecompose:
    def test_writes_kernel_and_report(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out = tmp_path / "out"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        kernel = json.loads((out / "kernel.json").read_text())
        assert kernel["rank"] == 6
        assert kernel["lambda0"] == 0.0
        assert len(kernel["terms"]) == 3
        report = json.loads((out / "decompose_report.json").read_text())
        assert report["rank"] == 6
        assert report["num_terms"] == 3
        assert report["residual"] <= 1e-8
        assert report["psd_margin"] >= -1e-10
        assert report["condition_number"] > 1.0

    def test_2d_grid(self, tmp_path):
        cfg = write_config(tmp_path, config_2d())
        out = tmp_path / "out"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        kernel = json.loads((out / "kernel.json").read_text())
        assert kernel["rank"] == 6
        assert kernel["lambda0"] == 0.0
        assert len(kernel["terms"]) == 3
        assert all(len(t["w"]) == 2 for t in kernel["terms"])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["decompose", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["decompose", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("kernel.json", "decompose_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestErrormap:
    def test_csv_rows_and_node_zeros(self, tmp_path):
        payload = config_1d(evaluation={"resolution": 21})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["errormap", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "errormap.csv").read_text().splitlines()
        assert lines[0] == "theta1,error"
        assert len(lines) == 22
        data = np.loadtxt(out / "errormap.csv", delimiter=",", skiprows=1)
        assert data.shape == (21, 2)
        # resolution 21 over [0, 5] lands on every node
        node_rows = data[::4]
        assert np.allclose(node_rows[:, 0], np.arange(6.0))
        assert np.all(node_rows[:, 1] <= 1e-7)
        assert np.all(data[:, 1] >= 0.0)
        assert np.max(data[:, 1]) > 1e-3


class TestCompareTaylor:
    def test_summary_and_margin(self, tmp_path):
        payload = config_2d(evaluation={"resolution": 25}, taylor={"order": 2})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["compare-taylor", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["rank"] == 6
        assert summary["taylor_order"] == 2
        assert summary["proposed"]["max"] < summary["taylor"]["max"]
        assert summary["margin"]["max"] > 0.0
        raw = (out / "compare.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "theta1,theta2,error_proposed,error_taylor"
        assert len(lines) == 1 + 25 * 25
        # 17 significant digits, shortest form of the parsed value
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            assert all(c == format(float(c), ".17g") for c in cells)

    def test_rank_mismatch_exits_1(self, tmp_path, capsys):
        # six nodes give rank 6 but a degree-2 expansion in one parameter has rank 3
        payload = config_1d(taylor={"order": 2})
        cfg = write_config(tmp_path, payload)
        assert main(["compare-taylor", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "rank mismatch" in capsys.readouterr().err


class TestSelectAtom:
    def test_noiseless_recovery(self, tmp_path):
        payload = config_1d(select_atom={"theta_true": 2.3})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["select-atom", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "select_atom.json").read_text())
        assert result["snr_db"] is None
        assert result["theta_true"] == [2.3]
        assert abs(result["theta_selected"][0] - 2.3) < 5e-3
        assert result["distance"] <= result["oracle_cell_diagonal"]
        assert result["surrogate_value"] == pytest.approx(1.0, abs=1e-3)

    def test_noisy_recovery_is_seeded(self, tmp_path):
        payload = config_1d(seed=11, select_atom={"theta_true": 2.3, "snr_db": 20.0})
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["select-atom", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["select-atom", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "select_atom.json").read_bytes() == (
            out2 / "select_atom.json"
        ).read_bytes()
        result = json.loads((out1 / "select_atom.json").read_text())
        assert result["distance"] <= 3.0 * result["oracle_cell_diagonal"]


    def test_3d_config_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled an atom")

        monkeypatch.setattr(tidict.DiscreteEmbedding, "atom", fail)
        monkeypatch.setattr(tidict.DiscreteEmbedding, "atoms", fail)
        payload = {
            "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 3},
            "grid": {"origin": 0.0, "spacing": 1.0, "counts": [2, 2, 2]},
            "embedding": {"samples_per_axis": 16},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["select-atom", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "at most 2 parameter axes" in capsys.readouterr().err


class TestValidate:
    def test_passes_on_good_config(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "structure",
            "decomposition_residual",
            "psd_margin",
            "node_interpolation",
            "kernel_match",
            "unit_norm",
            "rank_bound",
        ]
        assert all(list(c) == ["name", "passed", "value", "threshold"] for c in report["checks"])
        assert all(c["passed"] for c in report["checks"])

    def test_odd_grid_has_constant_term(self, tmp_path):
        payload = config_1d(grid={"origin": 0.0, "spacing": 1.0, "counts": 5})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        kernel = json.loads((out / "kernel.json").read_text())
        assert kernel["rank"] == 5
        assert kernel["lambda0"] > 0.0
        assert len(kernel["terms"]) == 2

    def test_serialized_kernel_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out = tmp_path / "out"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        code = main(
            [
                "validate",
                "--config",
                cfg,
                "--out",
                str(out),
                "--kernel-json",
                str(out / "kernel.json"),
            ]
        )
        assert code == 0

    def test_tampered_kernel_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out = tmp_path / "out"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        kernel = json.loads((out / "kernel.json").read_text())
        for term in kernel["terms"]:
            term["lambda"] = -term["lambda"]
        bad = tmp_path / "bad_kernel.json"
        bad.write_text(json.dumps(kernel))
        code = main(
            ["validate", "--config", cfg, "--out", str(out), "--kernel-json", str(bad)]
        )
        assert code == 3
        report = json.loads((out / "validate_report.json").read_text())
        assert report["passed"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "structure" in failed
        assert "kernel_match" in failed
        keys = ["name", "passed", "value", "threshold"]
        structure, *rest = report["checks"]
        assert list(structure) == keys + ["issues"]
        assert len(structure["issues"]) == structure["value"] > 0
        assert all(list(c) == keys for c in rest)


    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read"),
            ("{oops", "not valid JSON"),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"w": ["\u00df"]}]}'.encode("latin-1"),
                "not valid JSON",
                id="latin-1",
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"lambda": 0.5}]}', "malformed", id="no-w"
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"w": [1.0]}]}', "malformed", id="no-lambda"
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": 3}', "malformed", id="terms-not-a-list"
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"lambda": 0.5, "w": ["x"]}]}',
                "malformed",
                id="w-not-numeric",
            ),
        ],
    )
    def test_unreadable_kernel_json_exits_1(self, tmp_path, capsys, content, message):
        cfg = write_config(tmp_path, config_1d())
        kernel = tmp_path / "kernel.json"
        if isinstance(content, str):
            kernel.write_text(content)
        elif content is not None:
            kernel.write_bytes(content)
        code = main(
            ["validate", "--config", cfg, "--out", str(tmp_path), "--kernel-json", str(kernel)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestErrorPaths:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["decompose", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["decompose", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_violation_names_path(self, tmp_path, capsys):
        payload = config_1d(kernel={"kernel": "gaussian", "sigma": -1.0, "dim": 1})
        cfg = write_config(tmp_path, payload)
        assert main(["decompose", "--config", cfg]) == 1
        assert "$.kernel.sigma" in capsys.readouterr().err

    def test_ill_conditioned_grid_exits_2(self, tmp_path, capsys):
        payload = config_1d(grid={"origin": 0.0, "spacing": 0.01, "counts": 6})
        cfg = write_config(tmp_path, payload)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "condition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("config-is-directory", "cannot read config file"),
            ("config-latin-1", "not valid JSON"),
            ("config-nan", "NaN is not a finite number"),
            ("out-is-file", "cannot write output"),
        ],
    )
    def test_unusable_input_or_output_exits_1(self, tmp_path, capsys, case, message):
        cfg = Path(write_config(tmp_path, config_1d()))
        out = tmp_path / "out"
        if case == "config-is-directory":
            cfg = tmp_path
        elif case == "config-latin-1":
            cfg.write_bytes(cfg.read_text().replace("gaussian", "gau\u00dfian").encode("latin-1"))
        elif case == "config-nan":
            payload = config_1d(tolerances={"condition_limit": 12345.5})
            cfg.write_text(json.dumps(payload).replace("12345.5", "NaN"))
        else:
            out.write_text("")
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err

    def test_no_subcommand_exits_1(self):
        assert main([]) == 1


class TestRuntimeDependencies:
    def test_subcommands_do_not_import_scipy(self, tmp_path):
        # scipy is a test-only dependency: the CLI must run on numpy alone
        payload = config_2d(evaluation={"resolution": 5}, taylor={"order": 2})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        script = textwrap.dedent(
            f"""
            import sys
            from tidict.cli import main
            for sub in ("decompose", "compare-taylor", "select-atom"):
                assert main([sub, "--config", {cfg!r}, "--out", {str(out)!r}]) == 0, sub
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = str(Path(tidict.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[]"
