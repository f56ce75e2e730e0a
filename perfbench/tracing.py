"""In-memory spans around the tidict functions that ``tidict.cli`` calls.

The wrappers are installed into the benchmark process only, for the
duration of a traced pass, and removed again afterwards; the package
itself is never edited.  Every span records its name, start, end, parent
span, the trace id of the subcommand invocation it belongs to, and how
much work the call was given (points, pairs, deltas or atoms).  Spans are
kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    trace: int
    parent: int | None
    start: float
    end: float = 0.0
    work: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.labels: dict[int, str] = {}  # trace id -> subcommand
        self.trace = 0
        self._stack: list[int] = []

    def new_trace(self, label: str) -> None:
        self.trace += 1
        self.labels[self.trace] = label

    @contextlib.contextmanager
    def span(self, name: str, work: int = 0):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.trace, parent, time.perf_counter(), work=work))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest, so a span's children never
    overlap and their durations add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _points(args, kwargs) -> int:
    """Number of parameter vectors (points, pairs, deltas or atoms) in the first argument."""
    from tidict.kernels import as_param_array

    return as_param_array(args[1], args[0].dim)[0].shape[0]


def _cos_evals(args, kwargs) -> int:
    # coefficients evaluates rc at n*L displacements, K cosines each
    ld = args[0]
    return _points(args, kwargs) * ld.rank * ld.rc.num_terms


def _taylor_samples(args, kwargs) -> int:
    return _points(args, kwargs) * args[0].embedding.size


def _layers():
    """(span name, owner, attribute, work counter) for every traced boundary."""
    import tidict.config as config
    import tidict.gram as gram
    from tidict.kernels import DiscreteEmbedding
    from tidict.lowrank import LowRankDictionary
    from tidict.raised_cosine import RaisedCosineKernel
    from tidict.taylor import TaylorApproximation

    return [
        ("config.load_config", config, "load_config", None),
        ("gram.build_gram", gram, "build_gram", None),
        ("gram.decompose_grid", gram, "decompose_grid", None),
        ("gram.verify_decomposition", gram, "verify_decomposition", None),
        ("raised_cosine.eval", RaisedCosineKernel, "eval", _points),
        ("raised_cosine.validate", RaisedCosineKernel, "validate", None),
        ("raised_cosine.feature_map", RaisedCosineKernel, "feature_map", _points),
        ("lowrank.construct", LowRankDictionary, "__init__", None),
        ("lowrank.coefficients", LowRankDictionary, "coefficients", _cos_evals),
        ("lowrank.approx_error", LowRankDictionary, "approx_error", _points),
        ("lowrank.approx_inner", LowRankDictionary, "approx_inner", _points),
        ("lowrank.select_atom", LowRankDictionary, "select_atom", None),
        ("taylor.build", TaylorApproximation, "build", None),
        ("taylor.errors", TaylorApproximation, "errors", _taylor_samples),
        ("kernels.atoms", DiscreteEmbedding, "atoms", _points),
    ]


def _wrap(tracer: Tracer, name: str, fn, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, work(args, kwargs) if work else 0):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary while the context is open.

    Module-level functions are replaced in every tidict module that
    imported them by name (``tidict.cli`` and ``tidict.lowrank`` do), and
    methods on their class, so calls from inside the package are traced
    too.
    """
    patched = []  # (owner, attribute, original)
    modules = [
        m for n, m in sorted(sys.modules.items()) if n == "tidict" or n.startswith("tidict.")
    ]
    for name, owner, attr, work in _layers():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched.append((owner, attr, raw))
            setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__, work)))
        elif isinstance(owner, type):
            patched.append((owner, attr, raw))
            setattr(owner, attr, _wrap(tracer, name, raw, work))
        else:
            wrapper = _wrap(tracer, name, raw, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        patched.append((module, key, raw))
                        setattr(module, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
