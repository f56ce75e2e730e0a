"""perfbench's per-layer mode runs against the package as it is.

The traced pass wraps package functions by name and reads attributes of
their arguments to count work, so a rename or a dropped attribute in
``tidict`` breaks it without failing any other test.
"""

import os
import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (first: it fixes the BLAS thread count before numpy loads)
import tracing  # noqa: E402

import tidict.kernels  # noqa: E402

LAYERS = (
    "gram.build_gram",
    "gram.decompose_grid",
    "gram.verify_decomposition",
    "taylor.build",
    "taylor.errors",
    "lowrank.approx_error",
    "lowrank.approx_inner",
    "raised_cosine.eval",
    "lowrank.select_atom",
)


def test_a_traced_readme_2d_pass_spans_every_layer(tmp_path):
    bench = run.Bench(run.WORKLOADS["readme-2d"], seed=1, work=tmp_path)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        bench.run_pass(tracer)
    assert sum(bench.failed.values()) == 0
    assert bench.problems == []
    spans = Counter(s.name for s in tracer.spans)
    assert all(spans[name] > 0 for name in LAYERS), spans
    work = Counter()
    for s in tracer.spans:
        work[s.name] += s.work
    assert work["taylor.errors"] > 0
    # validate's default 1,000 pairs: one kernel reference and two approx_inner sweeps
    assert work["raised_cosine.eval"] == 1000
    assert work["lowrank.approx_inner"] == 2000


def test_a_traced_pass_on_two_threads_keeps_one_span_stack(tmp_path, monkeypatch):
    """approx_error's blocks run on worker threads and enter no traced span.

    readme-2d's 2,500 points in blocks of 97 rows take two workers when two
    CPUs are there.  The tracer keeps one span stack, so a span entered from
    a worker could nest under another thread's span and outlive it: every
    span must be entered from the test's thread, and lie inside its parent.
    """
    monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
    names = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        work = tmp_path / str(cpus)
        work.mkdir()
        bench = run.Bench(run.WORKLOADS["readme-2d"], seed=1, work=work)
        tracer, threads = tracing.Tracer(), set()
        enter = tracer.span

        def span(*args):
            threads.add(threading.get_ident())
            return enter(*args)

        tracer.span = span
        with tracing.instrument(tracer):
            bench.run_pass(tracer)
        assert sum(bench.failed.values()) == 0 and bench.problems == []
        assert threads == {threading.get_ident()}
        for s in tracer.spans:
            if s.parent is not None:
                parent = tracer.spans[s.parent]
                assert parent.start <= s.start <= s.end <= parent.end, (s, parent)
        names[cpus] = Counter(s.name for s in tracer.spans)
    assert names[2] == names[1]
