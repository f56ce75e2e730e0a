import functools
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tidict
import tidict._csvformat
import tidict.cli
from oracles import savetxt_csv
from tidict.cli import main


SUBCOMMANDS = ("decompose", "errormap", "compare-taylor", "select-atom", "validate")


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


def _neighbours(values, steps=1):
    """``values`` with their ``steps`` nearest doubles below and above."""
    out = [values]
    down = up = values
    with np.errstate(over="ignore"):  # beyond the largest double is inf
        for _ in range(steps):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            out += [down, up]
    return np.concatenate(out)


@functools.cache
def _csv_families():
    """Value families for the CSV writer, each a flat float array."""
    rng = np.random.default_rng(20)
    fmt = tidict._csvformat
    tiny = np.finfo(float).tiny
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    n = rng.integers(10**15, 2**51, size=20_000).astype(float)
    digits = rng.integers(1, 10 ** rng.integers(1, 18, size=40_000), dtype=np.int64)
    decades = rng.uniform(fmt._KMIN - 3, fmt._KMAX + 4, size=100_000)
    return {
        # every exponent, both signs, NaN payloads
        "bit_patterns": rng.integers(0, 2**64, size=2**20, dtype=np.uint64).view(float),
        "specials": np.concatenate([
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny],
            np.array([1, 2, 2**52 - 1, 2**52, 2**63 + 1], dtype=np.uint64).view(float),
            _neighbours(np.array([5e-324, 2.2250738585072014e-308, np.finfo(float).max]), 3),
            rng.integers(1, 2**52, size=2_000, dtype=np.uint64).view(float),
        ]),
        "powers_of_ten": np.concatenate([_neighbours(powers, 2), -powers]),
        # exact 17-digit ties, which % rounds half to even
        "ties": np.concatenate([n + 0.25, n + 0.75, -(n + 0.25), np.arange(1, 4097) * 2.0**-24]),
        "table_edges": np.concatenate([
            _neighbours(np.array([fmt._AMIN, fmt._AMAX, 1e-5, 1e-4, 1e16, 1e17, 1e100]), 5),
            _neighbours(np.array([1e16 - 1, 1e17 - 8, 1e17 - 16]), 5),
        ]),
        # few significant digits: trailing-zero stripping in every format class
        "short": digits * 10.0 ** rng.integers(-25, 25, size=digits.size),
        "decades": rng.choice([-1.0, 1.0], decades.size) * rng.uniform(1, 10, decades.size)
        * 10.0**np.floor(decades),
    }


class TestWriteCsv:
    BLOCK = tidict.cli._CSV_BLOCK

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1]
    )
    def test_bytes_match_savetxt(self, tmp_path, rows, cols):
        special = [-0.0, 5e-324, 1e300, 3.0, -7.0, 0.0, 0.1, -1e-300]
        values = np.random.default_rng(rows + cols).normal(size=rows * cols)
        values[: min(values.size, len(special))] = special[: values.size]
        data = values.reshape(rows, cols)
        header = [f"c{j}" for j in range(cols)]
        tidict.cli._write_csv(tmp_path / "got.csv", header, data)
        savetxt_csv(tmp_path / "want.csv", header, data)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "family",
        ["bit_patterns", "specials", "powers_of_ten", "ties", "table_edges", "short", "decades"],
    )
    def test_value_families_match_savetxt(self, tmp_path, family):
        values = _csv_families()[family]
        cols = 4 if values.size % 4 == 0 else 1
        data = values.reshape(-1, cols)
        header = [f"c{j}" for j in range(cols)]
        tidict.cli._write_csv(tmp_path / "got.csv", header, data)
        savetxt_csv(tmp_path / "want.csv", header, data)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_runs_in_bounded_memory(self, tmp_path):
        # buffers are per block: the peak does not grow with the row count
        data = np.random.default_rng(3).normal(size=(400_000, 3))
        tracemalloc.start()
        try:
            tidict.cli._write_csv(tmp_path / "big.csv", ["a", "b", "c"], data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    def test_rank_mismatch_is_checked_before_the_build(self, tmp_path, capsys):
        # a degree-3000 expansion in two parameters has rank 4.5e6: building
        # its derivative Gram matrix would need hundreds of terabytes
        cfg = write_config(tmp_path, config_2d(taylor={"order": 3000}))
        start = time.perf_counter()
        assert main(["compare-taylor", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "rank mismatch" in err


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
            pytest.param(
                '{"lambda0": NaN, "rank": 2, "terms": [{"lambda": 0.5, "w": [1.0]}]}',
                "not a finite number",
                id="nan-lambda",
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"lambda": 0.5, "w": [Infinity]}]}',
                "not a finite number",
                id="infinity-w",
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"lambda": 1e400, "w": [1.0]}]}',
                "not a finite number",
                id="float-overflow",
            ),
            pytest.param(
                '{"lambda0": 0.0, "rank": 2, "terms": [{"lambda": 1%s, "w": [1.0]}]}' % ("0" * 400),
                "malformed",
                id="int-overflow",
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
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_extreme_sigma_exits_1(self, tmp_path, capsys, sigma):
        # both pass the schema; 4 sigma^2 underflows to 0 or overflows
        cfg = write_config(tmp_path, config_2d(kernel={"kernel": "gaussian", "sigma": sigma, "dim": 2}))
        for sub in SUBCOMMANDS:
            assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 1, sub
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and "sigma" in err

    @pytest.mark.parametrize("sigma", [1e-160, 1e-100, 1e-20])
    def test_tiny_sigma_exits_0_with_finite_outputs_or_1(self, tmp_path, capsys, sigma):
        # 1e-160: 1 / (4 sigma^2) overflows; 1e-100: the Taylor Gram matrix
        # overflows; 1e-100 and 1e-20: the test atom has no mass on the lattice
        payload = config_2d(
            kernel={"kernel": "gaussian", "sigma": sigma, "dim": 2},
            evaluation={"resolution": 10},
            taylor={"order": 2},
            select_atom={"theta_true": [0.37, 0.81], "snr_db": 20.0},
        )
        cfg = write_config(tmp_path, payload)
        codes = {}
        for sub in SUBCOMMANDS:
            out = tmp_path / sub
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes[sub] = main([sub, "--config", cfg, "--out", str(out)])
            err = capsys.readouterr().err
            if codes[sub] == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), sub
                continue
            assert codes[sub] == 0 and err == "", sub
            for path in out.iterdir():
                if path.suffix == ".csv":
                    values = np.loadtxt(path, delimiter=",", skiprows=1)
                else:
                    values = np.array(list(_json_numbers(json.loads(path.read_text()))))
                assert np.all(np.isfinite(values)), (sub, path.name)
        if sigma == 1e-160:
            assert set(codes.values()) == {1}
        else:
            assert codes["select-atom"] == 1
            assert codes["compare-taylor"] == (1 if sigma == 1e-100 else 0)

    def test_sigma_just_inside_the_bound_runs_without_warnings(self, tmp_path, capsys):
        # 4 sigma^2 is finite and nonzero, but |delta|^2 / (4 sigma^2) overflows
        # to inf for every nonzero displacement, and exp(-inf) is the exact 0
        payload = config_2d(
            kernel={"kernel": "gaussian", "sigma": 1.2e-154, "dim": 2},
            grid={"origin": [0.0, 0.0], "spacing": 1.0, "counts": [2, 5]},
            evaluation={"resolution": 10},
        )
        cfg = write_config(tmp_path, payload)
        for sub in ("decompose", "errormap", "validate"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 0, sub
            assert capsys.readouterr().err == "", sub
        report = json.loads((tmp_path / "out" / "decompose_report.json").read_text())
        assert report["condition_number"] == 1.0
        errors = np.loadtxt(tmp_path / "out" / "errormap.csv", delimiter=",", skiprows=1)[:, -1]
        assert np.all(np.isfinite(errors))


def _json_numbers(obj):
    """Every number in a parsed JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _json_numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


class TestRuntimeDependencies:
    def test_subcommands_do_not_import_scipy(self, tmp_path):
        # scipy and jsonschema are test-only dependencies: the CLI must run on
        # numpy alone; the CSV writer's tables need no fractions or decimal
        payload = config_2d(evaluation={"resolution": 5}, taylor={"order": 2})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        script = textwrap.dedent(
            f"""
            import sys
            from tidict.cli import main
            for sub in {SUBCOMMANDS!r}:
                assert main([sub, "--config", {cfg!r}, "--out", {str(out)!r}]) == 0, sub
            print(sorted(m for m in sys.modules if m.split(".")[0] in
                         ("scipy", "jsonschema", "referencing", "fractions", "decimal")))
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
