import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tidict
import tidict._csvformat
import tidict.cli
import tidict.kernels
from oracles import fine_grid_argmax, savetxt_csv
from tidict import Tolerances
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


ONE_NODE_AXIS = config_2d(
    grid={"origin": [0.0, 0.0], "spacing": 1.0, "counts": [1, 3]}, taylor={"order": 1}
)


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

    @pytest.mark.parametrize("sub", ["decompose", "errormap", "compare-taylor", "validate"])
    def test_grid_with_one_node_on_an_axis(self, tmp_path, sub):
        # the default evaluation box spans the lone node's cell on that axis
        cfg = write_config(tmp_path, ONE_NODE_AXIS)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, config_1d())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["decompose", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["decompose", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("kernel.json", "decompose_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_axis_condition_numbers(self, tmp_path):
        # one per axis, whose product is cond(G); reruns keep the bytes
        cfg = write_config(tmp_path, README_2D)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["decompose", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["decompose", "--config", cfg, "--out", str(out2)]) == 0
        name = "decompose_report.json"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        report = json.loads((out1 / name).read_text())
        axis = report["axis_condition_numbers"]
        assert len(axis) == 2 and all(cond > 1.0 for cond in axis)
        assert np.prod(axis) == pytest.approx(report["condition_number"], rel=1e-12)


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
    # tidict.kernels._CHUNK, patched below its 4,096 rows so that the savetxt
    # oracle cases stay small
    BLOCK = 1024

    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1]
    )
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, rows, cols):
        monkeypatch.setattr(tidict.kernels, "_CHUNK", self.BLOCK)
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

    def test_blocks_reach_the_file_in_order_under_contention(self, tmp_path, monkeypatch):
        # blocks of 97 rows on 8 workers, switching threads as often as the interpreter can
        data = np.random.default_rng(8).normal(size=(5_000, 3))
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        tidict.cli._write_csv(tmp_path / "one.csv", ["a", "b", "c"], data[:, :1], data[:, 1:])
        want = (tmp_path / "one.csv").read_bytes()
        monkeypatch.setattr(tidict.kernels, "_MAX_WORKERS", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(5):
                tidict.cli._write_csv(tmp_path / f"{i}.csv", ["a", "b", "c"], data[:, :1], data[:, 1:])
        finally:
            sys.setswitchinterval(interval)
        assert all((tmp_path / f"{i}.csv").read_bytes() == want for i in range(5))

    @pytest.mark.parametrize("block", [2, 3], ids=["calling-thread", "pool-thread"])
    def test_a_failing_block_stops_the_writer(self, tmp_path, monkeypatch, block):
        # on two workers the other one waits for its turn, or formats the next block
        data = np.arange(1_000.0)[:, None]
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        format_rows = tidict.cli.format_rows

        def failing(table, ws):
            if table[0, 0] == block * 97:
                raise OSError(f"block {block}")
            return format_rows(table, ws)

        monkeypatch.setattr(tidict.cli, "format_rows", failing)
        before, raised = threading.active_count(), []

        def write():
            try:
                tidict.cli._write_csv(tmp_path / "x.csv", ["a"], data)
            except OSError as exc:
                raised.append(str(exc))

        start = time.perf_counter()
        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert time.perf_counter() - start < 5.0
        assert raised == [f"block {block}"]
        assert threading.active_count() == before

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

    def test_a_narrow_window_changes_no_output(self, tmp_path, capsys):
        # the window cuts off the atoms at the expansion center [0.5, 1] and
        # at theta_true, but only select-atom samples or correlates atoms
        payload = config_2d(
            evaluation={"resolution": 25},
            taylor={"order": 2},
            select_atom={"theta_true": [0.5118216247002567, 1.9009273926518706], "snr_db": 20.0},
        )
        wide = write_config(tmp_path, payload, "wide.json")
        payload["embedding"] = {"lower": [-1.0, -1.0], "upper": [2.0, 3.0], "samples_per_axis": 128}
        narrow = write_config(tmp_path, payload, "narrow.json")
        outs = [tmp_path / "wide", tmp_path / "narrow"]
        for cfg, out in zip((wide, narrow), outs):
            assert main(["compare-taylor", "--config", cfg, "--out", str(out)]) == 0
        for name in ("compare.csv", "compare_summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        capsys.readouterr()
        assert main(["select-atom", "--config", narrow, "--out", str(tmp_path / "select")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "outside the window" in err


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

    def test_grid_with_one_node_on_an_axis_exits_1(self, tmp_path, capsys):
        # the surrogate is constant along axis 1, where it would return the
        # search box's lower bound whatever the signal
        payload = dict(ONE_NODE_AXIS, select_atom={"theta_true": [0.37, 0.81], "snr_db": 20.0})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["select-atom", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "axis 1" in err
        assert not (out / "select_atom.json").exists()

    def test_3d_recovery_samples_no_node_atom(self, tmp_path, monkeypatch):
        sample = tidict.DiscreteEmbedding.atoms

        def one_atom(self, thetas):
            if np.asarray(thetas).reshape(-1, self.dim).shape[0] > 1:
                raise AssertionError("sampled more than the signal atom")
            return sample(self, thetas)

        monkeypatch.setattr(tidict.DiscreteEmbedding, "atoms", one_atom)
        for seed in (1, 2, 3, 4):
            payload = {
                "seed": seed,
                "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 3},
                "grid": {"origin": 0.0, "spacing": 1.0, "counts": [2, 3, 2]},
                "embedding": {"samples_per_axis": 32},
                "select_atom": {
                    "theta_true": [0.37, 1.21, 0.64],
                    "snr_db": 20.0,
                    "oracle_per_axis": 40,
                },
            }
            cfg = write_config(tmp_path, payload)
            assert main(["select-atom", "--config", cfg, "--out", str(tmp_path)]) == 0
            result = json.loads((tmp_path / "select_atom.json").read_text())
            assert result["distance"] <= 0.5 * result["oracle_cell_diagonal"], seed

    @pytest.mark.parametrize(
        "payload",
        [
            config_1d(seed=11, select_atom={"theta_true": 2.3, "snr_db": 20.0}),
            config_2d(seed=5, select_atom={"theta_true": [0.37, 0.81], "snr_db": 20.0}),
        ],
        ids=["1d", "2d"],
    )
    def test_oracle_matches_the_fine_grid_reference(self, tmp_path, payload):
        path = write_config(tmp_path, payload)
        assert main(["select-atom", "--config", path, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "select_atom.json").read_text())
        # the CLI's test signal, rebuilt from the config
        cfg = tidict.load_config(path)
        emb, sel = cfg.embedding, cfg.select_atom
        noise = np.random.default_rng(cfg.seed).standard_normal(emb.size)
        noise *= 10.0 ** (-sel.snr_db / 20.0) / np.linalg.norm(noise)
        signal = emb.atom(sel.theta_true) + noise
        theta, value, cell = fine_grid_argmax(emb, sel.search, signal, sel.oracle_per_axis)
        assert result["theta_oracle"] == theta.tolist()
        assert result["oracle_value"] == pytest.approx(value, rel=1e-13)
        assert result["oracle_cell_diagonal"] == cell

    def test_runs_in_bounded_memory(self, tmp_path):
        # about one 256x256 signal: the 25 node atoms alone would take 12.5 MiB
        payload = {
            "seed": 3,
            "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 2},
            "grid": {"origin": [0.0, 0.0], "spacing": 1.0, "counts": [5, 5]},
            "embedding": {"samples_per_axis": 256},
            "select_atom": {"theta_true": [1.37, 2.81], "snr_db": 20.0},
        }
        cfg = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            code = main(["select-atom", "--config", cfg, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2e6

    def test_3d_runs_in_a_few_signal_tensors(self, tmp_path):
        # the 64^3 signal takes 2 MiB; its noise, an atom of the same size
        # or the oracle's partial contractions would each add about 1x more
        payload = {
            "seed": 1,
            "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 3},
            "grid": {"origin": 0.0, "spacing": 1.0, "counts": [2, 3, 2]},
            "embedding": {"samples_per_axis": 64},
            "select_atom": {"theta_true": [0.37, 1.21, 0.64], "snr_db": 20.0, "oracle_per_axis": 64},
        }
        cfg = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            code = main(["select-atom", "--config", cfg, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4.0 * 64**3 * 8


class TestLatticeArgmax:
    @staticmethod
    def _embedding(dim):
        samples = {1: 300, 2: (64, 50), 3: (20, 16, 12)}[dim]
        return tidict.DiscreteEmbedding(tidict.GaussianIsotropicKernel(0.8, dim), [-5.0] * dim, [6.0] * dim, samples)

    @pytest.mark.parametrize("slab_rows", [8, 16, None])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_argmax_of_the_whole_tensor(self, monkeypatch, dim, slab_rows):
        if slab_rows is not None:
            monkeypatch.setattr(tidict.kernels, "_SLAB_ROWS", slab_rows)
        emb = self._embedding(dim)
        rng = np.random.default_rng(dim)
        for first in (8, 9, 17, 63, 65, 200):
            axes = [np.linspace(-1.0, 2.0, first)] + [np.linspace(-1.0, 2.0, c) for c in (5, 4)[: dim - 1]]
            # the peak near the start, the middle and the end of the first axis
            for centre in (-0.9, 0.55, 1.95):
                signal = np.zeros(emb.samples_per_axis)
                emb.add_atom(signal, [centre] + [0.5] * (dim - 1))
                signal += 0.1 * rng.standard_normal(emb.samples_per_axis)
                whole = emb.correlations(signal, axes)
                index, value = tidict.cli._lattice_argmax(emb, signal, axes)
                assert index == np.unravel_index(np.argmax(whole), whole.shape)
                assert value == whole[index]  # bit for bit

    @pytest.mark.parametrize("slab_rows", [8, 16])
    def test_a_tie_across_slabs_goes_to_the_first_point(self, monkeypatch, slab_rows):
        monkeypatch.setattr(tidict.kernels, "_SLAB_ROWS", slab_rows)
        emb = self._embedding(2)
        axes = [np.linspace(-1.0, 2.0, 40), np.linspace(-1.0, 2.0, 5)]
        axes[0][34] = axes[0][2]  # rows 2 and 34 lie in different slabs
        signal = np.zeros(emb.samples_per_axis)
        emb.add_atom(signal, [axes[0][2], axes[1][3]])
        whole = emb.correlations(signal, axes)
        assert whole[34, 3] == whole[2, 3] == np.max(whole)
        assert tidict.cli._lattice_argmax(emb, signal, axes) == ((2, 3), whole[2, 3])
        # an all-zero signal ties everywhere
        assert tidict.cli._lattice_argmax(emb, np.zeros(emb.size), axes) == ((0, 0), 0.0)


# validate's part of the README 2-D 2x3 config, and of the 1-D spacing-0.5 L=20
# config near the condition limit, with the default 1,000 pairs
README_2D = {
    "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 2},
    "grid": {"origin": [0.0, 0.0], "spacing": 1.0, "counts": [2, 3]},
    "seed": 1,
}
COND_1D = {
    "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 1},
    "grid": {"origin": 0.0, "spacing": 0.5, "counts": 20},
    "seed": 1,
}


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

    @pytest.mark.parametrize("payload", [README_2D, COND_1D], ids=["readme-2d", "cond-1d"])
    def test_report_does_not_depend_on_the_block(self, tmp_path, monkeypatch, payload):
        # 1,000 pairs in one block, and in ten blocks of 97 and one of 30
        cfg = write_config(tmp_path, payload)
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "one")])
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "many")]) == code
        report = "validate_report.json"
        assert (tmp_path / "many" / report).read_bytes() == (tmp_path / "one" / report).read_bytes()

    def test_every_check_fails_on_some_corrupted_kernel(self, tmp_path):
        """Each check fails on one of four corruptions of the README 2-D kernel.

        The report's checks must be exactly those some corruption fails, so
        a check that cannot fail, or a comparison that always passes, fails
        this test.
        """
        cfg = write_config(tmp_path, README_2D)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 0
        good = (tmp_path / "kernel.json").read_text()
        fails = {
            "frequencies-scaled": {
                "decomposition_residual", "node_interpolation", "kernel_match", "unit_norm",
            },
            "term-dropped": {
                "structure", "decomposition_residual", "node_interpolation", "unit_norm",
            },
            "weight-negated": {
                "structure", "decomposition_residual", "psd_margin", "node_interpolation",
                "kernel_match",
            },
            "weight-nudged": {"kernel_match", "unit_norm"},
        }
        for case, want in fails.items():
            kernel = json.loads(good)
            terms = kernel["terms"]
            if case == "frequencies-scaled":
                for term, factor in zip(terms, (0.5, 2.0, 3.0)):
                    term["w"] = [1.3 * v for v in term["w"]]
                    term["lambda"] *= factor
            elif case == "term-dropped":
                terms.pop()
            elif case == "weight-negated":
                terms[1]["lambda"] *= -1.0
            else:
                terms[1]["lambda"] *= 1.0 + 1e-9
            bad = tmp_path / f"{case}.json"
            bad.write_text(json.dumps(kernel))
            out = tmp_path / case
            args = ["validate", "--config", cfg, "--out", str(out), "--kernel-json", str(bad)]
            assert main(args) == 3, case
            report = json.loads((out / "validate_report.json").read_text())
            assert {c["name"] for c in report["checks"] if not c["passed"]} == want, case
        assert {c["name"] for c in report["checks"]} == set().union(*fails.values())

    def test_every_tolerance_is_read(self, tmp_path):
        # each tolerance but the condition limit is the threshold of one check
        names = [f.name for f in dataclasses.fields(Tolerances) if f.name != "condition_limit"]
        values = {name: 1.5e-3 * (i + 1) for i, name in enumerate(names)}
        cfg = write_config(tmp_path, config_1d(tolerances=values))
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
        report = json.loads((tmp_path / "v" / "validate_report.json").read_text())
        thresholds = [c["threshold"] for c in report["checks"]]
        assert all(thresholds.count(v) == 1 for v in values.values()), thresholds
        # and a condition limit below cond(G) refuses the grid
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        cond = json.loads((tmp_path / "d" / "decompose_report.json").read_text())["condition_number"]
        cfg = write_config(tmp_path, config_1d(tolerances={"condition_limit": cond / 2}), "limit.json")
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "d")]) == 2

    def test_reports_the_residual_of_a_fresh_decomposition(self, tmp_path, capsys):
        # cond-1d's residual, 1.852e-10, is over a tolerance of 1e-12:
        # decompose refuses the kernel, and validate reports every check
        cfg = write_config(tmp_path, dict(COND_1D, tolerances={"residual": 1e-12}))
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert "misses the node Gram matrix by 1.852e-10 (tolerance 1e-12)" in capsys.readouterr().err
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
        checks = json.loads((tmp_path / "v" / "validate_report.json").read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "structure",
            "decomposition_residual",
            "psd_margin",
            "node_interpolation",
            "kernel_match",
            "unit_norm",
        ]
        assert all(list(c) == ["name", "passed", "value", "threshold"] for c in checks)
        assert all(math.isfinite(c["value"]) for c in checks)
        structure, residual = checks[:2]
        assert structure["passed"]
        assert not residual["passed"] and f"{residual['value']:.3e}" == "1.852e-10"
        assert residual["threshold"] == 1e-12

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
            # decompose's own kernel.json with one field corrupted
            pytest.param(lambda d: d.update(rank=6.5), "malformed", id="fractional-rank"),
            pytest.param(lambda d: d.update(rank="6"), "malformed", id="string-rank"),
            pytest.param(lambda d: d.update(lambda0=False), "malformed", id="boolean-lambda0"),
            pytest.param(
                lambda d: d["terms"][0].update({"lambda": str(d["terms"][0]["lambda"])}),
                "malformed",
                id="string-lambda",
            ),
            pytest.param(
                lambda d: d["terms"][0].update(w=[str(d["terms"][0]["w"][0])]),
                "malformed",
                id="string-w-entry",
            ),
            pytest.param(lambda d: d["terms"][2].update(w="2"), "malformed", id="string-w"),
        ],
    )
    def test_unreadable_kernel_json_exits_1(self, tmp_path, capsys, content, message):
        cfg = write_config(tmp_path, config_1d())
        kernel = tmp_path / "kernel.json"
        if callable(content):
            assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            data = json.loads(kernel.read_text())
            content(data)
            kernel.write_text(json.dumps(data))
        elif isinstance(content, str):
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


GRID_3D = {
    "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 3},
    "grid": {"origin": 0.0, "spacing": 1.0, "counts": 6},
    "evaluation": {"resolution": 10},
    "seed": 1,
}


@pytest.mark.parametrize(
    "payload, sub, name",
    [
        (dict(README_2D, taylor={"order": 2}), "errormap", "errormap.csv"),
        (dict(README_2D, taylor={"order": 2}), "compare-taylor", "compare.csv"),
        (GRID_3D, "errormap", "errormap.csv"),
    ],
    ids=["readme-2d-errormap", "readme-2d-compare-taylor", "grid-3d-errormap"],
)
def test_sweep_rows_do_not_depend_on_the_block(tmp_path, monkeypatch, payload, sub, name):
    """Every CSV row has the same bits in blocks of 97 points as in one block of 4,096.

    The CSV shows each row's bits, where validate's report keeps only the
    largest deviation over its pairs.  readme-2d sweeps 2,500 points and
    grid-3d 1,000.  cond-1d is left out: on its 20-node grid a row's bits do
    depend on its block, and ROADMAP.md records it under "Block bits" in
    the per-axis errors item.
    """
    cfg = write_config(tmp_path, payload)
    monkeypatch.setattr(tidict.kernels, "_CHUNK", 4096)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "many")]) == 0
    assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize(
    "payload, chunk",
    [
        # 10^5 points: 25 blocks of the default 4,096 rows
        (dict(COND_1D, evaluation={"resolution": 100_000}, taylor={"order": 19}), None),
        # 2,500 points: 26 blocks of 97 rows
        (dict(README_2D, taylor={"order": 2}), 97),
    ],
    ids=["cond-1d", "readme-2d-chunk-97"],
)
def test_sweep_outputs_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, payload, chunk):
    """errormap.csv and compare.csv are the same bytes on one CPU as on two."""
    cfg = write_config(tmp_path, payload)
    if chunk is not None:
        monkeypatch.setattr(tidict.kernels, "_CHUNK", chunk)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        for sub in ("errormap", "compare-taylor"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / str(cpus))]) == 0
    for name in ("errormap.csv", "compare.csv"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


# the README's example config, and a 1-D spacing-0.5 grid of 12 nodes
README_EXAMPLE = {
    "seed": 7,
    "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 2},
    "grid": {"origin": [0.0, 0.0], "spacing": 1.0, "counts": [2, 3]},
    "evaluation": {"resolution": 50},
    "taylor": {"order": 2},
    "select_atom": {"theta_true": [0.37, 0.81], "snr_db": 20.0},
}
GRID_1D_12 = config_1d(
    grid={"origin": 0.0, "spacing": 0.5, "counts": 12}, taylor={"order": 11}, select_atom={"theta_true": 2.3}
)


def _translated(payload, origin):
    moved = json.loads(json.dumps(payload))
    moved["grid"]["origin"] = (np.asarray(payload["grid"]["origin"]) + origin).tolist()
    moved["select_atom"]["theta_true"] = (np.asarray(payload["select_atom"]["theta_true"]) + origin).tolist()
    return moved


@pytest.mark.parametrize("payload, origin", [(README_EXAMPLE, 1e10), (GRID_1D_12, 1e6)], ids=["readme-2d", "1d-12"])
def test_a_grid_far_from_zero_runs_as_one_at_zero(tmp_path, capsys, payload, origin):
    # cross terms and the surrogate's phases are differences to the node grid
    results = []
    for shift in (0.0, origin):
        out = tmp_path / str(shift)
        cfg = write_config(tmp_path, _translated(payload, shift), name=f"{shift}.json")
        for sub in SUBCOMMANDS:
            assert main([sub, "--config", cfg, "--out", str(out)]) == 0, (shift, sub, capsys.readouterr().err)
        checks = json.loads((out / "validate_report.json").read_text())["checks"]
        selected = json.loads((out / "select_atom.json").read_text())["theta_selected"]
        results.append(({c["name"]: c["value"] for c in checks}, np.asarray(selected) - shift))
    (values0, theta0), (values, theta) = results
    for name, value in values.items():
        assert 0.5 * values0[name] <= value <= 2.0 * values0[name], name
    if payload is GRID_1D_12:
        assert np.max(np.abs(theta - theta0)) <= 1e-9


def test_only_decompose_and_validate_form_the_psd_margin(tmp_path, monkeypatch):
    # the dense L x L raised-cosine Gram and its eigvalsh serve the PSD margin alone
    cfg = write_config(tmp_path, README_EXAMPLE)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def refuse(a):
        raise AssertionError("eigvalsh called")

    def count(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for sub in ("errormap", "compare-taylor", "select-atom"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 0, sub
    monkeypatch.setattr(np.linalg, "eigvalsh", count)
    for sub in ("decompose", "validate"):
        calls.clear()
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 0, sub
        assert calls == [(6, 6)], sub


_CLOSED_FORM = (
    "G^-1 amplifies the axis decomposition's residual near the condition limit; "
    "ROADMAP item 'The Gaussian axis decomposition in closed form' mends it"
)


@pytest.mark.parametrize(
    "count",
    [
        pytest.param(L, marks=pytest.mark.xfail(strict=True, reason=_CLOSED_FORM)) if L in (18, 20) else L
        for L in range(2, 21)
    ],
)
def test_validate_passes_on_1d_grids_at_spacing_half(tmp_path, count):
    # at L = 18 kernel_match fails (1.3e-10); at L = 20, cond-1d,
    # node_interpolation (1.6e-7) and kernel_match (1.6e-10) do
    cfg = write_config(tmp_path, dict(COND_1D, grid={"origin": 0.0, "spacing": 0.5, "counts": count}))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0


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

    @pytest.mark.parametrize(
        "sub, section, key, value",
        [
            ("select-atom", "select_atom", "oracle_per_axis", 1e20),
            ("select-atom", "select_atom", "coarse_per_axis", 1e20),
            ("validate", "validation", "num_pairs", 1e20),
            # 14.2 PiB of pairs: numpy's request fails before it touches memory
            ("validate", "validation", "num_pairs", 10**15),
        ],
        ids=["oracle-per-axis", "coarse-per-axis", "num-pairs-past-int64", "num-pairs-past-memory"],
    )
    def test_oversized_setting_exits_1(self, tmp_path, capsys, sub, section, key, value):
        cfg = write_config(tmp_path, config_2d(**{section: {key: value}}))
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "sub, section, key",
        [
            ("decompose", "grid", "counts"),
            ("errormap", "evaluation", "resolution"),
            ("select-atom", "select_atom", "oracle_per_axis"),
            ("select-atom", "select_atom", "coarse_per_axis"),
            ("validate", "validation", "num_pairs"),
            ("select-atom", "embedding", "samples_per_axis"),
        ],
    )
    def test_a_count_past_numpy_arrays_exits_1(self, tmp_path, capsys, sub, section, key):
        # 2^61 float64s are more bytes than numpy's largest array: it raised
        # ValueError, which ended in a traceback
        payload = config_1d()
        payload.setdefault(section, {})[key] = 2**61
        cfg = write_config(tmp_path, payload)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "out of range" in err

    @pytest.mark.parametrize(
        "sub, payload",
        [
            ("errormap", config_1d(evaluation={"lower": -1e200, "upper": 1e200, "resolution": 11})),
            ("select-atom", config_1d(select_atom={"theta_true": 2.3, "search": {"lower": -1e200, "upper": 1e200}})),
            ("decompose", config_1d(grid={"origin": 0.0, "spacing": 1e300, "counts": 6})),
        ],
        ids=["evaluation-box", "search-box", "spacing"],
    )
    def test_distances_whose_square_overflows_warn_nothing(self, tmp_path, capsys, sub, payload):
        # numpy warned "overflow encountered in multiply": the Gaussian squared outside its guard
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err == "" if code == 0 else err.startswith("error: ") and len(err.splitlines()) == 1
        assert code == 0 or sub != "errormap"

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

    @pytest.mark.parametrize("snr_db", [-7000.0, -4000.0])
    def test_select_atom_with_an_unbounded_noise_energy_exits_1(self, tmp_path, capsys, snr_db):
        # 10^(-snr_db / 10) overflows: at -7000 dB the noise scale raised
        # OverflowError, at -4000 dB the Newton gradient norm overflowed
        cfg = write_config(tmp_path, config_1d(select_atom={"theta_true": 2.3, "snr_db": snr_db}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select-atom", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "select_atom.snr_db" in err

    def test_select_atom_at_minus_3000_db_runs_without_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_1d(select_atom={"theta_true": 2.3, "snr_db": -3000.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select-atom", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        result = json.loads((tmp_path / "out" / "select_atom.json").read_text())
        assert all(np.isfinite(v) for v in _json_numbers(result))

    @pytest.mark.parametrize(
        "counts, message",
        [([2, 2], "theta[0]=0.005025"), ([2, 3], "theta[1]=1.0 ")],
        ids=["oracle-lattice", "node"],
    )
    def test_select_atom_with_a_massless_profile_exits_1(self, tmp_path, capsys, counts, message):
        # sigma 1e-20 and theta_true on a lattice point: the signal atom has
        # mass, but the oracle's second point, or the node at theta[1] = 1,
        # falls between lattice points and has none
        payload = config_2d(
            kernel={"kernel": "gaussian", "sigma": 1e-20, "dim": 2},
            grid={"origin": [0.0, 0.0], "spacing": 1.0, "counts": counts},
            select_atom={"theta_true": [0.0, 0.0], "snr_db": None},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["select-atom", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "no mass" in err and message in err
        assert not (tmp_path / "out" / "select_atom.json").exists()

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
    def test_importing_the_cli_loads_no_thread_pool(self):
        # the sweep imports them only when it runs on two threads: at import
        # time they would add to every start-up
        script = "import sys, tidict.cli; print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])"
        src = str(Path(tidict.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[]"

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

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @classmethod
    def _python(cls, script, **env):
        """stdout of ``script`` in a fresh interpreter, the BLAS thread variables removed, ``env`` set."""
        src = str(Path(tidict.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k not in cls.BLAS_VARS}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(base, **env), capture_output=True, text=True, check=True
        )
        return proc.stdout

    def test_importing_the_package_loads_no_numpy(self):
        # so that the command line can limit BLAS to one thread before numpy loads
        script = (
            "import sys, tidict\n"
            "print('numpy' in sys.modules)\n"
            "from tidict import GramSystem\n"
            "print(GramSystem.__module__, 'numpy' in sys.modules)\n"
        )
        assert self._python(script).splitlines() == ["False", "tidict.gram True"]

    def test_the_cli_sets_one_blas_thread_unless_the_caller_set_one(self):
        script = f"import os, tidict.cli; print([os.environ[v] for v in {self.BLAS_VARS!r}])"
        assert self._python(script) == "['1', '1', '1']\n"
        assert self._python(script, OPENBLAS_NUM_THREADS="2") == "['2', '1', '1']\n"

    def test_grid_3d_outputs_do_not_depend_on_the_blas_threads_of_the_environment(self, tmp_path):
        # with OpenBLAS's default thread count on 2 CPUs, psd_margin moved in its last digits
        cfg = write_config(tmp_path, GRID_3D)
        outputs = []
        for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / str(len(outputs))
            script = textwrap.dedent(
                f"""
                from tidict.cli import main
                for sub in ("decompose", "validate"):
                    assert main([sub, "--config", {cfg!r}, "--out", {str(out)!r}]) == 0
                """
            )
            self._python(script, **env)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["decompose_report.json", "kernel.json", "validate_report.json"]
        assert outputs[0] == outputs[1]
