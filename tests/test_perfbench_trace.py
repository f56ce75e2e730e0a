"""perfbench's per-layer mode runs against the package as it is.

The traced pass wraps package functions by name and reads attributes of
their arguments to count work, so a rename or a dropped attribute in
``tidict`` breaks it without failing any other test.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (first: it fixes the BLAS thread count before numpy loads)
import tracing  # noqa: E402

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
