"""End-to-end and per-layer benchmark of the tidict command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload readme-2d --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

The benchmark writes the workload's config from ``--seed``, imports the
package from ``src/`` and calls ``tidict.cli.main`` in-process, one call
at a time (one client, closed loop).  Every invocation's outputs are
checked (see ``checks.py``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from wrapped calls (see
``tracing.py``).  A human-readable report goes to stdout, followed by one
JSON line; timings, samples and spans go to ``perfbench/results/`` only,
never into the CLI's ``--out`` directory.
"""

from __future__ import annotations

import os

# One client in a closed loop on a small shared machine: a single BLAS
# thread keeps timings steady (unset, OpenBLAS threads gave 17-37 %
# IQR/median on some subcommands on a shared 2-CPU Xeon host).  Must be
# set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

ALL_SUBCOMMANDS = tuple(checks.OUTPUT_FILES)
PERCENTILES = (50, 75, 90, 95, 99)
# Timings in the JSON line.  The per-subcommand medians are in the report
# and the result file only: on a shared 2-CPU host their spread over ten
# runs was 15-50 %, more than a bound of at most 25 % can hold.
END_TO_END_TIMINGS = ("setup_s", "pass_s")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # everything except seed and select_atom.theta_true
    search: tuple  # (lower, upper): the evaluation box, which defaults to the grid bounds
    subcommands: tuple
    rank: int
    taylor_must_lose: bool = False


def _gaussian(dim: int) -> dict:
    return {"kernel": "gaussian", "sigma": 1.0, "dim": dim}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-2d",
            {
                "kernel": _gaussian(2),
                "grid": {"origin": [0.0, 0.0], "spacing": 1.0, "counts": [2, 3]},
                "evaluation": {"resolution": 50},
                "taylor": {"order": 2},
                "select_atom": {"snr_db": 20.0},
            },
            ([0.0, 0.0], [1.0, 2.0]),
            ALL_SUBCOMMANDS,
            rank=6,
            taylor_must_lose=True,
        ),
        Workload(
            "cond-1d",
            {
                "kernel": _gaussian(1),
                "grid": {"origin": 0.0, "spacing": 0.5, "counts": 20},
                "evaluation": {"resolution": 100000},
                "taylor": {"order": 19},
                "select_atom": {"snr_db": 20.0},
            },
            ([0.0], [9.5]),
            ALL_SUBCOMMANDS,
            rank=20,
        ),
        Workload(
            "grid-3d",
            {
                "kernel": _gaussian(3),
                "grid": {"origin": 0.0, "spacing": 1.0, "counts": 6},
                "evaluation": {"resolution": 10},
            },
            ([0.0] * 3, [5.0] * 3),
            ("decompose", "errormap", "validate"),
            rank=216,
        ),
    )
}


def make_config(workload: Workload, seed: int) -> dict:
    """The workload's config with ``seed`` and a ``theta_true`` drawn from it."""
    lower, upper = (np.asarray(b, dtype=float) for b in workload.search)
    config = copy.deepcopy(workload.config)
    config["seed"] = seed
    theta = np.random.default_rng(seed).uniform(lower, upper)
    config.setdefault("select_atom", {})["theta_true"] = theta.tolist()
    return config


class Bench:
    """Invokes subcommands of one workload and counts failed invocations.

    An invocation fails when it exits non-zero or its outputs fail a check;
    ``problems`` collects the checks that failed, which make the run
    incorrect (a ``validate`` exit 3 alone is a failure, not a problem).
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        import tidict.cli

        self.main = tidict.cli.main
        self.workload = workload
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(make_config(workload, seed), indent=2))
        self.out = work / "out"
        self.out.mkdir()
        self.reference = checks.load_reference(REFERENCE / f"{workload.name}.npz")
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = Counter()
        self.problems: list[str] = []

    def invoke(self, sub: str, tracer: tracing.Tracer | None = None) -> float:
        """Run one subcommand, check it, and return its wall time in seconds."""
        for name in checks.OUTPUT_FILES[sub]:
            (self.out / name).unlink(missing_ok=True)
        argv = [sub, "--config", str(self.config_path), "--out", str(self.out)]
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.new_trace(sub)
            span = tracer.span("cli.main")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            with span:
                try:
                    code = self.main(argv)
                except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
                    code = repr(exc)
            elapsed = time.perf_counter() - start
        self.check(sub, code)
        return elapsed

    def check(self, sub: str, code) -> None:
        digest = checks.digest(self.out, sub)
        if sub not in self.first:
            w = self.workload
            problems = checks.check_outputs(
                sub, self.out, code, self.reference, w.rank, w.taylor_must_lose
            )
            self.first[sub] = (digest, problems)
        first_digest, problems = self.first[sub]
        if digest != first_digest:
            problems = problems + [f"{sub}: outputs differ from its first invocation"]
        self.attempted += 1
        if code != 0 or problems:
            self.failed[sub] += 1
        self.problems.extend(p for p in problems if p not in self.problems)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> dict:
        """One call of every subcommand: their wall times, without the checks between them."""
        return {sub: self.invoke(sub, tracer) for sub in self.workload.subcommands}


SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import tidict.cli
t1 = time.perf_counter()
from tidict.config import load_config
load_config(sys.argv[1])
print(json.dumps({"import_s": t1 - t0}))
"""


def setup_once(config_path: Path) -> tuple[float, dict]:
    """Wall time of a fresh interpreter importing tidict.cli and loading the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return time.perf_counter() - start, json.loads(proc.stdout)


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest listed percentile with at least 10 samples above it."""
    out = {"median": statistics.median(samples), "n": len(samples), "percentile": None}
    fits = [p for p in PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
    if fits:
        out["percentile"] = fits[-1]
        out[f"p{fits[-1]}"] = float(np.percentile(samples, fits[-1]))
    return out


def layer_stats(tracers: list[tracing.Tracer]) -> tuple[list, dict]:
    """Self time, inclusive time and work by layer: per traced pass, and by subcommand.

    The by-subcommand times are means over the traced passes.
    """
    totals = []
    by_sub = defaultdict(lambda: defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0}))
    for tracer in tracers:
        own = tracing.self_times(tracer.spans)
        stats = defaultdict(float)
        for span, self_s in zip(tracer.spans, own):
            sub = tracer.labels[span.trace]
            name = "cli" if span.name == "cli.main" else span.name
            incl_s = span.end - span.start
            stats[name + ".self"] += self_s
            stats[name + ".incl"] += incl_s
            stats[name + ".work"] += span.work
            if name == "cli":
                stats[f"cli.self.{sub}"] += self_s
            by_sub[sub][name]["self_s"] += self_s / len(tracers)
            by_sub[sub][name]["incl_s"] += incl_s / len(tracers)
        totals.append(stats)
    return totals, {sub: dict(layers) for sub, layers in by_sub.items()}


def per_layer_metrics(totals: list, samples: dict, diagnostics: dict) -> dict:
    def med(fn):
        return statistics.median(fn(t) for t in totals)

    def self_s(layer):
        return med(lambda t: t[layer + ".self"])

    def incl_s(layer):
        return med(lambda t: t[layer + ".incl"])

    def rate(layer):
        return med(lambda t: t[layer + ".work"] / t[layer + ".incl"] if t[layer + ".incl"] else 0.0)

    m = {
        "cli.import_s": (statistics.median(samples["import_s"]), "s"),
        "config.load_config_s": (self_s("config.load_config"), "s"),
        "gram.build_gram_s": (self_s("gram.build_gram"), "s"),
        "gram.decompose_grid_s": (self_s("gram.decompose_grid"), "s"),
        "gram.verify_decomposition_s": (self_s("gram.verify_decomposition"), "s"),
        "raised_cosine.validate_s": (self_s("raised_cosine.validate"), "s"),
        "raised_cosine.eval_s": (self_s("raised_cosine.eval"), "s"),
        # the constructor's own code is a few shape checks: its cost is the
        # verify_decomposition beneath it, so this one is inclusive time
        "lowrank.construct_s": (incl_s("lowrank.construct"), "s"),
        "lowrank.select_atom_s": (self_s("lowrank.select_atom"), "s"),
        "taylor.build_s": (self_s("taylor.build"), "s"),
        "taylor.errors_s": (self_s("taylor.errors"), "s"),
        "lowrank.approx_error_pts_per_s": (rate("lowrank.approx_error"), "1/s"),
        "lowrank.approx_inner_pairs_per_s": (rate("lowrank.approx_inner"), "1/s"),
        "raised_cosine.eval_deltas_per_s": (rate("raised_cosine.eval"), "1/s"),
        "taylor.errors_pts_per_s": (rate("taylor.errors"), "1/s"),
        "kernels.atoms_per_s": (rate("kernels.atoms"), "1/s"),
        "lowrank.cos_evals": (med(lambda t: t["lowrank.coefficients.work"]), "count"),
        "taylor.samples": (med(lambda t: t["taylor.errors.work"]), "count"),
        "trace.overhead_frac": (
            statistics.median(samples["traced_pass_s"]) / statistics.median(samples["pass_s"]) - 1.0,
            "1",
        ),
    }
    for sub in ALL_SUBCOMMANDS:
        m[f"cli.self_s.{sub}"] = (med(lambda t: t[f"cli.self.{sub}"]), "s")
    m.update(diagnostics)
    return m


def diagnostics(out: Path) -> dict:
    """Deterministic numbers from the first pass's reports; not timed."""
    decomposed = json.loads((out / "decompose_report.json").read_text())
    checks_ = json.loads((out / "validate_report.json").read_text())["checks"]
    node_error = next(c["value"] for c in checks_ if c["name"] == "node_interpolation")
    return {
        "gram.condition_number": (decomposed["condition_number"], "1"),
        "gram.residual": (decomposed["residual"], "1"),
        "gram.psd_margin": (decomposed["psd_margin"], "1"),
        "lowrank.node_error_max": (node_error, "1"),
    }


def environment() -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = proc.stdout.strip() or None
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        with contextlib.suppress(importlib.metadata.PackageNotFoundError):
            versions[pkg] = importlib.metadata.version(pkg)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """One pass to warm up, then rounds for about ``seconds``.

    A round is one fresh-interpreter set-up, one pass and, with ``trace``,
    one traced pass.  Interleaving spreads every metric's samples over the
    whole window.  Another round starts while at least half a round's time
    is left.
    """
    bench.run_pass()
    # the benchmark process is fresh and has now run exactly one pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples, tracers = defaultdict(list), []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, child = setup_once(bench.config_path)
        samples["setup_s"].append(wall)
        samples["import_s"].append(child["import_s"])
        times = bench.run_pass()
        samples["pass_s"].append(sum(times.values()))
        for sub, t in times.items():
            samples[sub].append(t)
        if trace:
            tracers.append(tracing.Tracer())
            with tracing.instrument(tracers[-1]):
                samples["traced_pass_s"].append(sum(bench.run_pass(tracers[-1]).values()))
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            break
    return {"peak_rss_mb": peak_rss_mb, "samples": samples, "tracers": tracers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        # one fresh process per workload, so that peak_rss_mb stays per workload
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if not (SRC / "tidict" / "cli.py").is_file():
        print(f"error: no tidict sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tidict

    if Path(tidict.__file__).resolve().parent != SRC / "tidict":
        print(f"error: imported tidict from {tidict.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RESULTS))
    try:
        bench = Bench(workload, args.seed, work)
        run = measure(bench, args.seconds, bool(args.trace))
        diag = diagnostics(bench.out) if args.trace else {}
    finally:
        shutil.rmtree(work)

    samples = run["samples"]
    timings = {"setup_s": summarize(samples["setup_s"])}
    for sub in workload.subcommands:
        timings[sub.replace("-", "_") + "_s"] = summarize(samples[sub])
    timings["pass_s"] = summarize(samples["pass_s"])
    failed = sum(bench.failed.values())
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": not bench.problems,
        "problems": bench.problems,
        "attempted": bench.attempted,
        "failed": failed,
        "failed_by_subcommand": dict(bench.failed),
        "ops_failed_frac": failed / bench.attempted,
        "peak_rss_mb": run["peak_rss_mb"],
        "timings": timings,
        "samples": samples,
    }
    if args.trace:
        totals, by_sub = layer_stats(run["tracers"])
        metrics = per_layer_metrics(totals, samples, diag)
        result["layers_by_subcommand"] = by_sub
        result["spans"] = [[vars(s) for s in t.spans] for t in run["tracers"]]
        result["span_labels"] = [t.labels for t in run["tracers"]]
    else:
        metrics = {name: (timings[name]["median"], "s") for name in END_TO_END_TIMINGS}
        metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    report(result, timings, path)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def report(result: dict, timings: dict, path: Path) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"blas_threads {env['blas_threads']}  nproc {env['nproc']}  cpu {env['cpu']}")
    for name, t in timings.items():
        tail = f"  p{t['percentile']} {t['p' + str(t['percentile'])]:.6f} s" if t["percentile"] else ""
        print(f"  {name:<20} median {t['median']:.6f} s{tail}  n={t['n']}")
    print(f"  {'peak_rss_mb':<20} {result['peak_rss_mb']:.1f} MB")
    print(f"  {'ops_failed_frac':<20} {result['ops_failed_frac']:.3f} "
          f"({result['failed']}/{result['attempted']}) {result['failed_by_subcommand']}")
    if result["trace"]:
        for sub, layers in result["layers_by_subcommand"].items():
            top = sorted(layers.items(), key=lambda kv: -kv[1]["incl_s"])
            print(f"  {sub}, self/inclusive s: "
                  + ", ".join(f"{k} {v['self_s']:.4f}/{v['incl_s']:.4f}" for k, v in top))
        for name, m in result["metrics"].items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  results in {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
