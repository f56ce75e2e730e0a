"""Output checks run on every subcommand invocation of the benchmark.

The first invocation of each subcommand in a run gets the content checks
below; every later invocation must produce byte-identical files.  Values
in ``errormap.csv`` and ``compare.csv`` are compared against reference
outputs stored in ``perfbench/reference/`` (written by
``make_reference.py`` at the commit that introduced the benchmark).
These two files do not depend on the workload seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

OUTPUT_FILES = {
    "decompose": ("kernel.json", "decompose_report.json"),
    "errormap": ("errormap.csv",),
    "compare-taylor": ("compare.csv", "compare_summary.json"),
    "select-atom": ("select_atom.json",),
    "validate": ("validate_report.json",),
}
REFERENCE_FILES = ("errormap.csv", "compare.csv")

# A value passes when |value - reference| <= ATOL + RTOL * |reference|.
# This admits the shifts the roadmap expects: node errors at the ~1e-7
# roundoff floor moving to ~3e-8 (feature-map path) and Taylor errors
# moving at the 1e-12 level, or to ~1e-8 where the error itself is near
# zero (kernel-only Taylor).  Interior errors are 1e-3 .. 1e-1 on
# readme-2d and grid-3d, so a wrong value there does not pass.
ATOL = 1e-6
RTOL = 1e-7

# The program's default tolerances, fixed here so that the check does not
# move if a later change moves the defaults.
RESIDUAL_TOL = 1e-8
PSD_TOL = 1e-10

# select-atom accuracy: acceptance claim 09 accepts a 20 dB selection within
# three oracle cells.  Over 300 seeds, theta_true uniform in the search box,
# the largest distance seen was 1.18 cells on readme-2d and 0.50 on cond-1d;
# one cell is exceeded on a few percent of readme-2d seeds.
SELECT_CELLS = 3.0

# Stored references are quantized as q = round(asinh(v / _A) / _S) and kept
# as differences down each column.  The step is _A * _S = 2.5e-7 absolute
# for |v| well below _A and _S = 2.5e-8 relative above it, so decoding
# moves a value by at most an eighth of the check tolerance.
_A = 10.0
_S = 2.5e-8


def encode(values: np.ndarray) -> np.ndarray:
    q = np.rint(np.arcsinh(values / _A) / _S).astype(np.int64)
    return np.diff(q, axis=0, prepend=np.zeros((1, q.shape[1]), dtype=np.int64))


def decode(stored: np.ndarray) -> np.ndarray:
    return _A * np.sinh(np.cumsum(stored, axis=0) * _S)


def read_csv(path: Path) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_reference(path: Path) -> dict:
    """``{file name: (header, values)}`` from a reference ``.npz``."""
    with np.load(path) as data:
        return {
            name: (str(data[name + ":header"]), decode(data[name]))
            for name in REFERENCE_FILES
            if name in data
        }


def write_reference(out: Path, path: Path) -> None:
    arrays = {}
    for name in REFERENCE_FILES:
        if (out / name).exists():
            header, values = read_csv(out / name)
            arrays[name] = encode(values)
            arrays[name + ":header"] = np.array(header)
    np.savez_compressed(path, **arrays)


def digest(out: Path, sub: str) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES[sub]:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _compare_csv(out: Path, name: str, reference: dict) -> list[str]:
    header, values = read_csv(out / name)
    ref_header, ref = reference[name]
    if header != ref_header:
        return [f"{name}: header {header!r} != reference {ref_header!r}"]
    if values.shape != ref.shape:
        return [f"{name}: shape {values.shape} != reference {ref.shape}"]
    ok = np.abs(values - ref) <= ATOL + RTOL * np.abs(ref)  # NaN fails
    if ok.all():
        return []
    row, col = np.argwhere(~ok)[0]
    return [
        f"{name}: {int((~ok).sum())} value(s) off the reference, first at row "
        f"{row + 1} column {col + 1}: {values[row, col]!r} vs {ref[row, col]!r}"
    ]


def check_outputs(
    sub: str, out: Path, code, reference: dict, rank: int, taylor_must_lose: bool
) -> list[str]:
    """Problems with the files one invocation wrote; empty when they are right.

    A ``validate`` exit 3 is the program reporting a failing invariant, not
    a wrong output: the caller counts it as a failed operation, and the
    report only has to agree with the exit code.
    """
    if not (code == 0 or (sub == "validate" and code == 3)):
        return [f"{sub}: exit {code}"]
    try:
        if sub == "decompose":
            json.loads((out / "kernel.json").read_text())
            report = json.loads((out / "decompose_report.json").read_text())
            problems = []
            if report["rank"] != rank:
                problems.append(f"decompose: rank {report['rank']} != {rank}")
            if not report["residual"] <= RESIDUAL_TOL:
                problems.append(f"decompose: residual {report['residual']!r} > {RESIDUAL_TOL}")
            if not report["psd_margin"] >= -PSD_TOL:
                problems.append(f"decompose: psd margin {report['psd_margin']!r} < {-PSD_TOL}")
            return problems
        if sub == "errormap":
            return _compare_csv(out, "errormap.csv", reference)
        if sub == "compare-taylor":
            problems = _compare_csv(out, "compare.csv", reference)
            summary = json.loads((out / "compare_summary.json").read_text())
            proposed, taylor = summary["proposed"]["max"], summary["taylor"]["max"]
            if taylor_must_lose and not proposed < taylor:
                problems.append(f"compare-taylor: proposed max {proposed!r} >= taylor max {taylor!r}")
            return problems
        if sub == "select-atom":
            result = json.loads((out / "select_atom.json").read_text())
            limit = SELECT_CELLS * result["oracle_cell_diagonal"]
            if not result["distance"] <= limit:
                return [f"select-atom: distance {result['distance']!r} > {limit!r}"]
            return []
        if sub == "validate":
            report = json.loads((out / "validate_report.json").read_text())
            if report["passed"] != (code == 0):
                return [f"validate: report passed={report['passed']} but exit {code}"]
            return []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{sub}: unreadable output: {exc!r}"]
    raise ValueError(f"unknown subcommand {sub!r}")
