"""The README's examples run as written."""

import re
from pathlib import Path

import numpy as np

from tidict import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    # the atom-selection snippet recovers the atom it sampled
    assert abs(float(namespace["theta_hat"][0]) - 2.3) < 0.05


def test_example_config_loads(tmp_path):
    (config,) = _blocks("json")
    path = tmp_path / "config.json"
    path.write_text(config)
    cfg = load_config(path)
    assert cfg.kernel.dim == 2 and cfg.grid.counts == (2, 3)
    assert np.array_equal(cfg.select_atom.theta_true, [0.37, 0.81])
