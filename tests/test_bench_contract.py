"""The names bench/tracing.py wraps must stay where it looks them up.

The tracer resolves each traced function with a bare getattr on the module
the library calls it through, so renaming or deleting one of them breaks the
traced benchmark run; these tests load the tracer unmodified and check it.
"""

import importlib
import importlib.util
from pathlib import Path

import blockade.sweep as sweep
from blockade.model import SystemParams

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TRACED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_sweep_records_rung_dims():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    axes = [sweep.GridAxis.linear("delta", 0.0, 1.0, 2)]
    with tracer.installed():
        # called through the module, as the benchmark does, so the wrapper applies
        result = sweep.run_sweep(SystemParams(f=0.1), axes, workers=1)
    assert [row.status for row in result.rows] == ["OK", "OK"]
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"sweep.run_sweep", "steady.steady_state", "steady.liouvillian", "steady.observables"} <= names
    dims = sorted({span[tracing.DIM] for span in tracer.spans if span[tracing.NAME] == "steady.steady_state"})
    assert dims == [12, 18]
