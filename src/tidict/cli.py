"""Command-line experiment harness.

Every subcommand reads one JSON configuration file (see
``schemas/config.schema.json``) and writes its results into an output
directory::

    tidict decompose      --config cfg.json --out results
    tidict errormap       --config cfg.json --out results
    tidict compare-taylor --config cfg.json --out results
    tidict select-atom    --config cfg.json --out results
    tidict validate       --config cfg.json --out results [--kernel-json rc.json]

Exit codes: 0 on success, 1 on configuration or usage errors, 2 when no
valid raised-cosine decomposition exists (including ill-conditioned Gram
matrices), 3 when ``validate`` finds a failing invariant.  All outputs are
deterministic: a fixed config produces byte-identical files.

The sweeps' workers (:func:`~tidict.kernels.sweep`) are a run's one layer
of threads: BLAS gets one thread unless the environment sets its own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# BLAS reads these when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from ._csvformat import format_rows
from ._csvformat import workspace as csv_workspace
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DomainError,
    IllConditionedError,
    NoValidDecomposition,
    TruncationError,
)
from .gram import build_gram
from .kernels import blocks, sweep
from .lowrank import LowRankDictionary
from .raised_cosine import RaisedCosineKernel
from .taylor import TaylorApproximation

__all__ = ["build_parser", "main"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", newline="\n")


def _write_csv(path: Path, header, *columns: np.ndarray) -> None:
    """Write a header line and the rows of ``columns`` side by side with 17 significant digits.

    Each of ``columns`` is a 1-D array or a 2-D stack of columns, all with
    the same number of rows.  The rows are formatted in the blocks of
    :func:`~tidict.kernels.blocks` on the workers of
    :func:`~tidict.kernels.sweep`: each stacks a block's columns into its
    own workspace, which the calling thread allocates once per call, and
    formats them there by :func:`~tidict._csvformat.format_rows`.  The
    blocks reach the file in row order, so the bytes are those of
    ``np.savetxt(fmt="%.17g")`` of the stacked table, whatever the number
    of workers, and no copy of the whole table is made.
    """
    edges = np.cumsum([0] + [1 if c.ndim == 1 else c.shape[1] for c in columns])

    def workspace(rows):
        return np.empty((rows, edges[-1])), csv_workspace(rows * edges[-1])

    def body(dst, ws, *block):
        table = ws[0][: len(dst)]
        for c, lo, hi in zip(block, edges, edges[1:]):
            table[:, lo:hi] = c[: len(dst)].reshape(len(dst), -1)
        return format_rows(table, ws[1])

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # a CSV has no per-row result: its (rows, 0) out only counts the rows
        sweep(body, np.empty((columns[0].shape[0], 0)), *columns, workspace=workspace, then=fh.write)


def _theta_header(dim: int) -> list[str]:
    return [f"theta{a + 1}" for a in range(dim)]


def _build_dictionary(
    cfg: ExperimentConfig, rc: RaisedCosineKernel | None = None, check: bool = True
) -> LowRankDictionary:
    """The dictionary of the config's node grid, with the config's tolerances.

    ``rc`` and ``check`` are passed on to :class:`LowRankDictionary`, which
    decomposes the grid when no ``rc`` is given.
    """
    tol = cfg.tolerances
    gram = build_gram(cfg.kernel, cfg.grid, condition_limit=tol.condition_limit)
    return LowRankDictionary(gram, rc, residual_tol=tol.residual, check=check)


def cmd_decompose(cfg: ExperimentConfig, out: Path, args) -> int:
    """Decompose the node Gram matrix and write kernel + quality report."""
    ld = _build_dictionary(cfg)
    rc = ld.rc
    rc.to_json(out / "kernel.json")
    _write_json(
        out / "decompose_report.json",
        {
            "rank": rc.rank,
            "num_terms": rc.num_terms,
            "lambda0": rc.lambda0,
            "residual": ld.residual,
            "psd_margin": ld.psd_margin,
            "condition_number": ld.gram.condition_number,
            "axis_condition_numbers": list(ld.gram.axis_condition_numbers),
        },
    )
    print(
        f"decomposed rank {rc.rank}: {rc.num_terms} cosine term(s), "
        f"residual {ld.residual:.3e}, condition {ld.gram.condition_number:.3e}"
    )
    return 0


def cmd_errormap(cfg: ExperimentConfig, out: Path, args) -> int:
    """Sweep the approximation error over the evaluation region."""
    ld = _build_dictionary(cfg)
    pts = cfg.evaluation.grid(cfg.resolution)
    err = ld.approx_error(pts)
    _write_csv(out / "errormap.csv", _theta_header(cfg.kernel.dim) + ["error"], pts, err)
    print(
        f"errormap: {pts.shape[0]} points, max error {float(np.max(err)):.6e}, "
        f"mean error {float(np.mean(err)):.6e}"
    )
    return 0


def cmd_compare_taylor(cfg: ExperimentConfig, out: Path, args) -> int:
    """Compare the interpolating construction against the polynomial baseline."""
    ld = _build_dictionary(cfg)
    # checked before the build, whose derivative Gram matrix has rank**2 entries
    taylor_rank = math.comb(cfg.taylor_order + cfg.kernel.dim, cfg.kernel.dim)
    if taylor_rank != ld.rank:
        raise ConfigError(
            f"rank mismatch: node grid gives rank {ld.rank} but a degree-"
            f"{cfg.taylor_order} expansion in {cfg.kernel.dim} parameter(s) has rank "
            f"{taylor_rank}; adjust grid.counts or taylor.order"
        )
    taylor = TaylorApproximation.build(cfg.embedding, cfg.taylor_center, cfg.taylor_order)
    pts = cfg.evaluation.grid(cfg.resolution)
    err_p = ld.approx_error(pts)
    err_t = taylor.errors(pts)
    header = _theta_header(cfg.kernel.dim) + ["error_proposed", "error_taylor"]
    _write_csv(out / "compare.csv", header, pts, err_p, err_t)
    summary = {
        "rank": ld.rank,
        "taylor_order": cfg.taylor_order,
        "taylor_center": [float(v) for v in cfg.taylor_center],
        "proposed": {"max": float(np.max(err_p)), "mean": float(np.mean(err_p))},
        "taylor": {"max": float(np.max(err_t)), "mean": float(np.mean(err_t))},
        "margin": {
            "max": float(np.max(err_t) - np.max(err_p)),
            "mean": float(np.mean(err_t) - np.mean(err_p)),
        },
    }
    _write_json(out / "compare_summary.json", summary)
    print(
        f"rank {ld.rank}: proposed max/mean {summary['proposed']['max']:.6e}/"
        f"{summary['proposed']['mean']:.6e}, taylor max/mean "
        f"{summary['taylor']['max']:.6e}/{summary['taylor']['mean']:.6e}"
    )
    return 0


def _lattice_argmax(emb, signal: np.ndarray, axes) -> tuple[tuple, float]:
    """Index and value of the largest correlation of ``signal`` over the lattice ``axes``.

    The exhaustive oracle of ``select-atom``: a running argmax over the
    slabs of :meth:`~tidict.kernels.DiscreteEmbedding.correlation_slabs`,
    so the whole correlation tensor is never held.  Ties go to the first
    lattice point in row-major order, as with ``np.argmax`` of the tensor.
    """
    shape = tuple(len(coords) for coords in axes)
    best = value = None
    for start, slab in emb.correlation_slabs(signal, axes):
        i = int(np.argmax(slab))
        if value is None or slab.flat[i] > value:
            best, value = start * math.prod(shape[1:]) + i, slab.flat[i]
    return np.unravel_index(best, shape), float(value)


def cmd_select_atom(cfg: ExperimentConfig, out: Path, args) -> int:
    """Recover an atom parameter from (optionally noisy) dual projections."""
    # along an axis with one node the surrogate has no frequency: it is constant there
    for a, count in enumerate(cfg.grid.counts):
        if count == 1:
            raise ConfigError(
                f"select-atom: grid.counts is 1 on axis {a + 1}, along which the "
                "surrogate is constant; select-atom needs at least two nodes per axis"
            )
    ld = _build_dictionary(cfg)
    emb = cfg.embedding
    sel = cfg.select_atom
    rng = np.random.default_rng(cfg.seed)
    emb.check_window(sel.theta_true)
    # one buffer: the noise, or zeros, and the atom added into it
    if sel.snr_db is None:
        signal = np.zeros(emb.size)
    else:
        signal = rng.standard_normal(emb.size)
        signal *= 10.0 ** (-sel.snr_db / 20.0) / np.linalg.norm(signal)
    emb.add_atom(signal, sel.theta_true)
    emb.check_window(ld.nodes)
    projections = ld.gram.solve_rows(emb.correlations(signal, ld.grid.axes).ravel())
    theta_hat, value = ld.select_atom(projections, sel.search, sel.settings)

    box, n = sel.search, sel.oracle_per_axis
    oracle_axes = box.axes(n)
    best, oracle_value = _lattice_argmax(emb, signal, oracle_axes)
    theta_star = np.array([oracle_axes[a][i] for a, i in enumerate(best)])
    cell_diag = float(np.linalg.norm((box.upper - box.lower) / (n - 1)))
    distance = float(np.linalg.norm(theta_hat - theta_star))
    _write_json(
        out / "select_atom.json",
        {
            "theta_true": [float(v) for v in sel.theta_true],
            "snr_db": sel.snr_db,
            "theta_selected": [float(v) for v in theta_hat],
            "surrogate_value": value,
            "theta_oracle": [float(v) for v in theta_star],
            "oracle_value": oracle_value,
            "distance": distance,
            "oracle_cell_diagonal": cell_diag,
        },
    )
    print(
        f"selected theta {[round(float(v), 6) for v in theta_hat]} "
        f"(oracle distance {distance:.6e}, oracle cell diagonal {cell_diag:.6e})"
    )
    return 0


def cmd_validate(cfg: ExperimentConfig, out: Path, args) -> int:
    """Run the full invariant suite; exit 3 when any check fails."""
    rc = None
    if args.kernel_json:
        rc = RaisedCosineKernel.from_json(args.kernel_json, dim=cfg.kernel.dim)
    ld = _build_dictionary(cfg, rc, check=False)
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    node_err = float(np.max(ld.approx_error(ld.nodes)))

    pairs_a = cfg.evaluation.sample(rng, cfg.num_pairs)
    pairs_b = cfg.evaluation.sample(rng, cfg.num_pairs)
    exact = np.empty(cfg.num_pairs)
    for dst, a, b in blocks(exact, pairs_a, pairs_b):
        dst[:] = ld.rc.eval(a - b)[: len(dst)]
    match = float(np.max(np.abs(ld.approx_inner(pairs_a, pairs_b) - exact)))
    norm_dev = float(np.max(np.abs(ld.approx_inner(pairs_a, pairs_a) - 1.0)))

    checks = [
        {"name": name, "passed": passed, "value": value, "threshold": threshold}
        for name, value, threshold, passed in (
            ("structure", float(len(ld.structure.issues)), 0.0, ld.structure.ok),
            ("decomposition_residual", ld.residual, tol.residual,
             ld.residual <= tol.residual),
            ("psd_margin", ld.psd_margin, tol.psd_margin,
             ld.psd_margin >= -tol.psd_margin),
            ("node_interpolation", node_err, tol.node_interpolation,
             node_err <= tol.node_interpolation),
            ("kernel_match", match, tol.kernel_match, match <= tol.kernel_match),
            ("unit_norm", norm_dev, tol.unit_norm, norm_dev <= tol.unit_norm),
        )
    ]
    if ld.structure.issues:
        checks[0]["issues"] = list(ld.structure.issues)

    passed = all(c["passed"] for c in checks)
    _write_json(
        out / "validate_report.json",
        {"passed": passed, "rank": ld.rank, "checks": checks},
    )
    for c in checks:
        print(
            f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
            f"value {c['value']:.6e}, threshold {c['threshold']:.6e}"
        )
    print("validation " + ("passed" if passed else "failed"))
    return 0 if passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidict",
        description="Low-rank translation-invariant dictionary experiments.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory (default: out_dir from the config, else the current directory)")
        p.set_defaults(func=func)
        return p

    add("decompose", cmd_decompose, "decompose the node Gram matrix")
    add("errormap", cmd_errormap, "sweep the approximation error over a region")
    add(
        "compare-taylor",
        cmd_compare_taylor,
        "compare against the fixed-center polynomial baseline",
    )
    add("select-atom", cmd_select_atom, "recover an atom parameter from projections")
    p_val = add("validate", cmd_validate, "run the invariant suite")
    p_val.add_argument(
        "--kernel-json",
        default=None,
        help="validate this serialized kernel instead of a freshly decomposed one",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        out = Path(args.out) if args.out else Path(cfg.out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out, args)
    except (ConfigError, DomainError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoValidDecomposition, IllConditionedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the config and kernel files raise ConfigError/DomainError when
        # unreadable, so this is the output directory
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config asking for more than the machine holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
