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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._csvformat import format_rows
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DomainError,
    IllConditionedError,
    NoValidDecomposition,
    TruncationError,
)
from .gram import build_gram, decompose_grid
from .lowrank import LowRankDictionary
from .raised_cosine import RaisedCosineKernel
from .taylor import TaylorApproximation

__all__ = ["build_parser", "main"]

# rows formatted per block by _write_csv
_CSV_BLOCK = 1024


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", newline="\n")


def _write_csv(path: Path, header, rows: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D array with 17 significant digits.

    Rows are formatted ``_CSV_BLOCK`` at a time by
    :func:`~tidict._csvformat.format_rows`; the bytes are those of
    ``np.savetxt(fmt="%.17g")``.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            fh.write(format_rows(rows[start : start + _CSV_BLOCK]))


def _theta_header(dim: int) -> list[str]:
    return [f"theta{a + 1}" for a in range(dim)]


def _build_dictionary(
    cfg: ExperimentConfig, rc: RaisedCosineKernel | None = None, check: bool = True
) -> LowRankDictionary:
    """The dictionary of the config's node grid, every subcommand's build path.

    ``rc`` replaces the freshly decomposed raised-cosine kernel; ``check``
    is passed on to :class:`LowRankDictionary`.
    """
    tol = cfg.tolerances
    gram = build_gram(cfg.kernel, cfg.grid, condition_limit=tol.condition_limit)
    if rc is None:
        rc = decompose_grid(cfg.kernel, cfg.grid, residual_tol=tol.residual)
    return LowRankDictionary(
        cfg.kernel, gram, rc, residual_tol=tol.residual, check=check
    )


def cmd_decompose(cfg: ExperimentConfig, out: Path, args) -> int:
    """Decompose the node Gram matrix and write kernel + quality report."""
    ld = _build_dictionary(cfg)
    rc, report = ld.rc, ld.report
    rc.to_json(out / "kernel.json")
    _write_json(
        out / "decompose_report.json",
        {
            "rank": rc.rank,
            "num_terms": rc.num_terms,
            "lambda0": rc.lambda0,
            "residual": report.residual,
            "psd_margin": report.psd_margin,
            "condition_number": ld.gram.condition_number,
        },
    )
    print(
        f"decomposed rank {rc.rank}: {rc.num_terms} cosine term(s), "
        f"residual {report.residual:.3e}, condition {ld.gram.condition_number:.3e}"
    )
    return 0


def cmd_errormap(cfg: ExperimentConfig, out: Path, args) -> int:
    """Sweep the approximation error over the evaluation region."""
    ld = _build_dictionary(cfg)
    pts = cfg.evaluation.grid(cfg.resolution)
    err = ld.approx_error(pts)
    _write_csv(
        out / "errormap.csv",
        _theta_header(cfg.kernel.dim) + ["error"],
        np.column_stack([pts, err]),
    )
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
    _write_csv(
        out / "compare.csv",
        _theta_header(cfg.kernel.dim) + ["error_proposed", "error_taylor"],
        np.column_stack([pts, err_p, err_t]),
    )
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


def _oracle_correlation(cfg: ExperimentConfig, signal: np.ndarray):
    """Exhaustive correlation maximization on a fine lattice over the search box.

    Uses the separable structure of the sampled atoms so that all
    correlations come out of one matrix product per axis; supports one and
    two parameter axes (:func:`cmd_select_atom` rejects more).
    """
    emb = cfg.embedding
    box = cfg.select_atom.search
    n = cfg.select_atom.oracle_per_axis
    axes = [np.linspace(box.lower[a], box.upper[a], n) for a in range(emb.dim)]
    profiles = []
    for a in range(emb.dim):
        p = np.exp(
            -((emb.axes[a][None, :] - axes[a][:, None]) ** 2)
            / (2.0 * emb.kernel.sigma**2)
        )
        profiles.append(p)
    if emb.dim == 1:
        corr = (profiles[0] @ signal) / np.linalg.norm(profiles[0], axis=1)
        best = int(np.argmax(corr))
        theta = np.array([axes[0][best]])
        value = float(corr[best])
    else:
        r = signal.reshape(emb.samples_per_axis)
        num = profiles[0] @ r @ profiles[1].T
        norms0 = np.linalg.norm(profiles[0], axis=1)
        norms1 = np.linalg.norm(profiles[1], axis=1)
        corr = num / np.outer(norms0, norms1)
        flat = int(np.argmax(corr))
        i, j = np.unravel_index(flat, corr.shape)
        theta = np.array([axes[0][i], axes[1][j]])
        value = float(corr[i, j])
    cell = np.array([(box.upper[a] - box.lower[a]) / (n - 1) for a in range(emb.dim)])
    return theta, value, float(np.linalg.norm(cell))


def cmd_select_atom(cfg: ExperimentConfig, out: Path, args) -> int:
    """Recover an atom parameter from (optionally noisy) dual projections."""
    if cfg.kernel.dim > 2:
        # checked before any atom is sampled: the node atoms alone would
        # fill gigabytes on a 3-D lattice
        raise ConfigError("select-atom oracle supports at most 2 parameter axes")
    ld = _build_dictionary(cfg)
    emb = cfg.embedding
    sel = cfg.select_atom
    rng = np.random.default_rng(cfg.seed)
    signal = emb.atom(sel.theta_true)
    if sel.snr_db is not None:
        noise = rng.standard_normal(emb.size)
        noise *= 10.0 ** (-sel.snr_db / 20.0) / np.linalg.norm(noise)
        signal = signal + noise
    node_atoms = emb.atoms(ld.nodes)
    projections = ld.gram.solve_rows(node_atoms @ signal)
    theta_hat, value = ld.select_atom(projections, sel.search, sel.settings)
    theta_star, oracle_value, cell_diag = _oracle_correlation(cfg, signal)
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
    structure = ld.rc.validate()
    report = ld.report
    node_err = float(np.max(ld.approx_error(ld.nodes)))

    pairs_a = cfg.evaluation.sample(rng, cfg.num_pairs)
    pairs_b = cfg.evaluation.sample(rng, cfg.num_pairs)
    exact = ld.rc.eval(pairs_a - pairs_b)
    match = float(np.max(np.abs(ld.approx_inner(pairs_a, pairs_b) - exact)))
    norm_dev = float(np.max(np.abs(ld.approx_inner(pairs_a, pairs_a) - 1.0)))

    thetas = cfg.evaluation.sample(rng, 2 * ld.rank)
    coeff = ld.coefficients(thetas)
    inner = ld.gram.solve_rows(coeff) @ coeff.T
    svals = np.linalg.svd(inner, compute_uv=False)
    tail = float(svals[ld.rank]) if svals.shape[0] > ld.rank else 0.0

    checks = [
        {"name": name, "passed": passed, "value": value, "threshold": threshold}
        for name, value, threshold, passed in (
            ("structure", float(len(structure.issues)), 0.0, structure.ok),
            ("decomposition_residual", report.residual, tol.residual,
             report.residual <= tol.residual),
            ("psd_margin", report.psd_margin, tol.psd_margin,
             report.psd_margin >= -tol.psd_margin),
            ("node_interpolation", node_err, tol.node_interpolation,
             node_err <= tol.node_interpolation),
            ("kernel_match", match, tol.kernel_match, match <= tol.kernel_match),
            ("unit_norm", norm_dev, tol.unit_norm, norm_dev <= tol.unit_norm),
            ("rank_bound", tail, tol.rank_svals, tail <= tol.rank_svals),
        )
    ]
    if structure.issues:
        checks[0]["issues"] = list(structure.issues)

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


if __name__ == "__main__":
    sys.exit(main())
