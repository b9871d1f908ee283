"""Span recording around the program's layer boundaries.

The program has no instrumentation of its own, so the benchmark replaces,
from outside, the function object a calling module holds (for example the
``solve_lyapunov`` that ``simcompose.abstraction`` calls) with a wrapper
that records a span.  Spans stay in memory; the caller writes them out
once, at the end.
"""

import time
from dataclasses import dataclass

# (holding module, attribute, span name).  A name is the layer that
# defines the function, which is not always the module that calls it.
BOUNDARIES = (
    ("cli", "load_project", "cli.load_project"),
    ("cli", "build_abstractions", "cli.build_abstractions"),
    ("cli", "build_abstraction", "abstraction.build_abstraction"),
    ("cli", "image", "geometry.image"),
    ("abstraction", "check_P_conditions", "abstraction.check_P_conditions"),
    ("abstraction", "decay_certificate", "abstraction.decay_certificate"),
    ("abstraction", "solve_lyapunov", "linalg.solve_lyapunov"),
    ("abstraction", "stabilize", "linalg.stabilize"),
    ("abstraction", "image", "geometry.image"),
    ("abstraction", "kernel", "geometry.kernel"),
    ("geometry", "image", "geometry.image"),
    ("geometry", "kernel", "geometry.kernel"),
    ("cli", "run_compose", "cli.run_compose"),
    ("cli", "gain_matrices", "compose.gain_matrices"),
    ("cli", "small_gain", "compose.small_gain"),
    ("cli", "compose_simfn", "compose.compose_simfn"),
    ("cli", "build_input_signal", "cli.build_input_signal"),
    ("cli", "resolve_initial_states", "cli.resolve_initial_states"),
    ("simulate", "refine_and_run", "simulate.refine_and_run"),
    ("simulate", "compose_abstractions", "compose.compose_abstractions"),
    ("simulate", "build_monolithic", "systems.build_monolithic"),
    ("simulate", "bound_report", "simulate.bound_report"),
    ("simulate", "write_csv", "simulate.write_csv"),
    ("simulate", "write_gnuplot", "simulate.write_gnuplot"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    size: int = 0  # leading dimension of the first matrix argument, where recorded


class Tracer:
    """Records spans while installed; restores every wrapped function on removal."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved = []
        self.op = -1

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        tracer = self
        sized = name == "linalg.solve_lyapunov"

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer.op)
            if sized:
                span.size = len(args[0])
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in BOUNDARIES:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# Span names counted together under one metric as well as on their own.
GROUPS = {"geometry.image": "geometry.image_kernel", "geometry.kernel": "geometry.image_kernel"}

# Top-level spans that belong to the export, not to the pipeline.
EXPORT = ("simulate.write_csv", "simulate.write_gnuplot")


@dataclass
class Totals:
    total_s: float = 0.0  # outermost spans only, so nesting is not counted twice
    self_s: float = 0.0
    calls: int = 0
    kron_bytes: int = 0


def _nested_in(spans: list[Span], index: int, key: str) -> bool:
    j = spans[index].parent
    while j is not None:
        if spans[j].name == key or GROUPS.get(spans[j].name) == key:
            return True
        j = spans[j].parent
    return False


def summarize(spans: list[Span]) -> dict:
    """Totals per operation id and span name (and group).

    Self time is a span's duration minus the durations of its children;
    the key ``"top"`` holds the summed top-level pipeline spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    out: dict = {}
    for i, span in enumerate(spans):
        per = out.setdefault(span.op, {})
        duration = span.end - span.start
        if span.parent is None and span.name not in EXPORT:
            per.setdefault("top", Totals()).total_s += duration
        for key in (span.name, GROUPS.get(span.name)):
            if key is None:
                continue
            totals = per.setdefault(key, Totals())
            totals.calls += 1
            totals.self_s += duration - child[i]
            totals.kron_bytes += 8 * span.size ** 4
            if not _nested_in(spans, i, key):
                totals.total_s += duration
    return out
