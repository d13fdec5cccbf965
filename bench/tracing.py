"""Span recording around the public blockade functions, from outside the library.

Tracer.installed() swaps the module attributes the layers call through for
wrappers that record one span per call (name, start, end, parent, the
truncation dim of its argument, the exception class if it raised) in
memory, and restores the originals on exit.  Spans recorded in forked pool
workers never come back, so traced sweeps run with workers=1.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute the callers look up, span name).  Span names are
# "<layer>.<function>": build_h_eff belongs to the model layer although
# steady calls it through its own namespace.  The benchmark itself calls
# run_sweep, converged_steady_state and the serialisers through their
# modules, so those calls are traced too.
TRACED = (
    ("blockade.steady", "liouvillian", "steady.liouvillian"),
    ("blockade.steady", "build_h_eff", "model.build_h_eff"),
    ("blockade.steady", "observables", "steady.observables"),
    ("blockade.steady", "steady_state", "steady.steady_state"),
    ("blockade.steady", "converged_steady_state", "steady.converged_steady_state"),
    ("blockade.sweep", "converged_steady_state", "steady.converged_steady_state"),
    ("blockade.sweep", "amplitudes_closed_form", "analytic.amplitudes_closed_form"),
    ("blockade.sweep", "run_sweep", "sweep.run_sweep"),
    ("blockade.cli", "sweep_to_csv", "cli.sweep_to_csv"),
    ("blockade.cli", "sweep_to_json", "cli.sweep_to_json"),
)

RUNGS = tuple(range(12, 61, 6))
FAILURE_CLASSES = ("ConvergenceError", "SteadyStateError", "ValueError")

NAME, START, END, PARENT, DIM, ERROR = range(6)


def _dim_of(args) -> int | None:
    """Truncation dim of a FockSpace or DensityMatrix argument, if any."""
    for arg in args:
        dim = getattr(arg, "dim", None)
        if isinstance(dim, int):
            return dim
    return None


class Tracer:
    """Records spans in memory; also counts reads of SweepRow.g2_analytic."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Rows whose g2_analytic was read, by id; holding them keeps ids unique.
        self.analytic_rows_read: dict[int, object] = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _dim_of(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Route the traced public names through span-recording wrappers."""
        sweep = importlib.import_module("blockade.sweep")
        read = self.analytic_rows_read

        class ReadCountingRow(sweep.SweepRow):
            def __getattribute__(self, attr):
                if attr == "g2_analytic":
                    read[id(self)] = self
                return object.__getattribute__(self, attr)

        patches = [(sweep, "SweepRow", ReadCountingRow)]
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            patches.append((module, attr, self._wrap(name, getattr(module, attr))))
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, replacement in patches:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "fields": ["name", "start", "end", "parent", "dim", "error"], "spans": self.spans}, handle)


def layer_metrics(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `passes` identical traced passes.

    Counts are per pass, so they repeat exactly for a given seed.  Times
    are means per call (or per point) in ms; self time is a span's duration
    minus its direct children's.
    """
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ms[span[PARENT]] += (span[END] - span[START]) * 1e3
    calls = Counter()
    total_ms = defaultdict(float)
    self_ms = defaultdict(float)
    dims = Counter()
    failures = Counter()
    failed_ms = 0.0
    point_ms = 0.0
    last_rung = {}
    for index, span in enumerate(spans):
        name, dim = span[NAME], span[DIM]
        ms = (span[END] - span[START]) * 1e3
        for key in (name, (name, dim)):
            calls[key] += 1
            total_ms[key] += ms
            self_ms[key] += ms - child_ms[index]
        if name == "steady.steady_state":
            last_rung[span[PARENT]] = dim
        elif name == "steady.converged_steady_state":
            point_ms += ms
            if span[ERROR]:
                failures[span[ERROR]] += 1
                failed_ms += ms
    for index, span in enumerate(spans):
        if span[NAME] == "steady.converged_steady_state":
            dims["fail" if span[ERROR] else last_rung.get(index)] += 1

    points = calls["steady.converged_steady_state"]

    def per_call(key, table) -> float:
        return table[key] / calls[key] if calls[key] else 0.0

    def per_point(value) -> float:
        return value / points if points else 0.0

    m = {}
    for rung in RUNGS:
        m[f"steady.steady_state.calls.d{rung}"] = (calls["steady.steady_state", rung] / passes, "count")
        m[f"steady.liouvillian.calls.d{rung}"] = (calls["steady.liouvillian", rung] / passes, "count")
        m[f"sweep.dims.d{rung}"] = (dims[rung] / passes, "count")
    m["sweep.dims.fail"] = (dims["fail"] / passes, "count")
    for rung in RUNGS:
        m[f"steady.liouvillian.ms.d{rung}"] = (per_call(("steady.liouvillian", rung), total_ms), "ms")
        m[f"steady.steady_state.self_ms.d{rung}"] = (per_call(("steady.steady_state", rung), self_ms), "ms")
    m["steady.liouvillian.ms.per_point"] = (per_point(total_ms["steady.liouvillian"]), "ms")
    m["steady.steady_state.self_ms.per_point"] = (per_point(self_ms["steady.steady_state"]), "ms")
    m["steady.liouvillian.computed_bytes.per_point"] = (
        per_point(sum(16 * rung**4 * calls["steady.liouvillian", rung] for rung in RUNGS)),
        "bytes",
    )
    m["model.build_h_eff.ms"] = (per_call("model.build_h_eff", total_ms), "ms")
    m["steady.observables.ms"] = (per_call("steady.observables", total_ms), "ms")
    m["steady.converged_steady_state.rungs_per_point"] = (per_point(calls["steady.steady_state"]), "rungs/point")
    for cls in FAILURE_CLASSES:
        m[f"steady.failures.{cls}"] = (failures[cls] / passes, "count")
    m["steady.failures.other"] = (sum(n for cls, n in failures.items() if cls not in FAILURE_CLASSES) / passes, "count")
    m["steady.failures.ms"] = (failed_ms / passes, "ms")
    m["steady.failures.time_share"] = (failed_ms / point_ms if point_ms else 0.0, "ratio")
    m["analytic.amplitudes_closed_form.calls"] = (calls["analytic.amplitudes_closed_form"] / passes, "count")
    m["analytic.amplitudes_closed_form.ms"] = (per_call("analytic.amplitudes_closed_form", total_ms), "ms")
    m["sweep.run_sweep.ms"] = (per_call("sweep.run_sweep", total_ms), "ms")
    m["cli.sweep_to_csv.ms"] = (per_call("cli.sweep_to_csv", total_ms), "ms")
    m["cli.sweep_to_json.ms"] = (per_call("cli.sweep_to_json", total_ms), "ms")
    return m
