"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (first: it fixes the BLAS thread count before numpy loads)
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_direct_children_only():
    span = tracing.Span
    spans = [
        span("cli.main", 1, None, 0.0, 10.0),
        span("lowrank.approx_error", 1, 0, 1.0, 4.0),
        span("raised_cosine.eval", 1, 1, 2.0, 3.0),
        span("gram.build_gram", 1, 0, 5.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_layer_stats_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    tracer.new_trace("errormap")
    with tracer.span("cli.main"):
        with tracer.span("lowrank.approx_error", work=7):
            with tracer.span("raised_cosine.eval", work=3):
                sum(range(10000))
        with tracer.span("raised_cosine.eval", work=5):
            sum(range(10000))
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    (stats,), by_sub = run.layer_stats([tracer])
    root = tracer.spans[0]
    total_self = sum(v for k, v in stats.items() if k.endswith(".self"))
    assert total_self == pytest.approx(root.end - root.start)
    assert stats["cli.self.errormap"] == pytest.approx(stats["cli.self"])
    assert stats["raised_cosine.eval.work"] == 8
    assert set(by_sub) == {"errormap"}


def test_instrument_restores_every_wrapped_function():
    import tidict.cli
    from tidict.lowrank import LowRankDictionary
    from tidict.taylor import TaylorApproximation

    before = (tidict.cli.build_gram, LowRankDictionary.__dict__["approx_error"],
              TaylorApproximation.__dict__["build"])
    with tracing.instrument(tracing.Tracer()):
        assert tidict.cli.build_gram is not before[0]
    after = (tidict.cli.build_gram, LowRankDictionary.__dict__["approx_error"],
             TaylorApproximation.__dict__["build"])
    assert after == before


def _bench(name, tmp_path):
    return run.Bench(run.WORKLOADS[name], seed=3, work=tmp_path)


def _corrupt_one_value(path: Path) -> None:
    lines = path.read_text().split("\n")
    row = lines[100].split(",")
    row[-1] = repr(float(row[-1]) + 1e-3)
    lines[100] = ",".join(row)
    path.write_text("\n".join(lines))


def test_good_outputs_pass(tmp_path):
    bench = _bench("readme-2d", tmp_path)
    for sub in ("decompose", "errormap", "select-atom", "validate"):
        bench.invoke(sub)
    assert (bench.attempted, sum(bench.failed.values()), bench.problems) == (4, 0, [])


def test_corrupted_value_on_first_invocation_is_a_failed_operation(tmp_path):
    bench = _bench("readme-2d", tmp_path)
    argv = ["errormap", "--config", str(bench.config_path), "--out", str(bench.out)]
    assert bench.main(argv) == 0
    _corrupt_one_value(bench.out / "errormap.csv")
    bench.check("errormap", 0)
    assert bench.failed["errormap"] == 1
    assert "off the reference" in bench.problems[0]


def test_corrupted_value_on_repeat_is_a_failed_operation(tmp_path):
    bench = _bench("readme-2d", tmp_path)
    bench.invoke("errormap")
    assert bench.failed["errormap"] == 0
    _corrupt_one_value(bench.out / "errormap.csv")
    bench.check("errormap", 0)
    assert bench.failed["errormap"] == 1
    assert "differ from its first invocation" in bench.problems[0]


def test_cond_1d_validate_exit_3_is_a_failed_operation_with_correct_outputs(tmp_path):
    # known defect at the commit that added the benchmark: node_interpolation
    # 1.66e-7 > 1e-7 and kernel_match 1.62e-10 > 1e-10 at cond(G) = 9.1e11
    bench = _bench("cond-1d", tmp_path)
    bench.invoke("validate")
    assert bench.failed["validate"] == 1
    assert bench.problems == []
