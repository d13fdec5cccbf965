"""What the benchmark reads of the library must stay where it looks for it.

The tracer resolves each traced function with a bare getattr on the module
the library calls it through, and the workloads build their inputs from the
public API (GridAxis.linear and its min, max and points(), preset,
SystemParams.replace) and read the rows' fields, so renaming or deleting any
of them breaks the benchmark run; these tests load bench/tracing.py and
bench/workloads.py unmodified and check them.  The library must also
reproduce the seed-0 rows that bench/reference.json records, or the
benchmark run reports correct: false.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from helpers import record_rungs

import blockade.sweep as sweep
from blockade.model import SystemParams
from blockade.steady import SteadyStateError, converged_steady_state

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_bench("tracing")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TRACED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_sweep_records_rung_dims(monkeypatch):
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    # weak drive: D=18 alone; SystemParams(f=1.0) declines the one-rung
    # rule and climbs the ladder after it
    axes = [sweep.GridAxis("f", (0.1, 1.0)), sweep.GridAxis("delta", (0.0, 1.0))]
    # the sweep solves its points in batches, inside which the tracer sees no
    # per-point span, so the rungs are read off the batched solve instead
    rungs, _ = record_rungs(monkeypatch)
    with tracer.installed():
        # called through the module, as the benchmark does, so the wrapper applies
        result = sweep.run_sweep(SystemParams(), axes, workers=1)
    assert [row.status for row in result.rows] == ["OK"] * 4
    assert "sweep.run_sweep" in {span[tracing.NAME] for span in tracer.spans}
    assert [rungs[row.params] for row in result.rows] == [[18], [18], [18, 12, 24], [18]]


def test_workload_inputs_build_and_map_rows_check():
    workloads = load_bench("workloads")
    base, axes = workloads.map_inputs(0)
    points = workloads.map_points(base, axes)
    assert len(points) == workloads.MAP_SIZE**2
    assert len(workloads.ladder_inputs(0)) == sum(count for _, count, _ in workloads.LADDER_STRATA)
    result = sweep.run_sweep(base, axes, workers=1)
    assert [workloads.check_map_row(row, p, None, None) for row, p in zip(result.rows, points)] == [None] * len(points)


def test_library_reproduces_the_seed0_reference_rows():
    # bench/run.py holds every row to bench/reference.json: dim exactly, N
    # and g2 within REFERENCE_RTOL, so a drift fails here before it does there
    workloads = load_bench("workloads")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    base, axes = workloads.map_inputs(0)
    points = workloads.map_points(base, axes)
    rows = sweep.run_sweep(base, axes, workers=1).rows
    assert [
        workloads.check_map_row(row, p, ref, None) for row, p, ref in zip(rows, points, reference["map"]["0"], strict=True)
    ] == [None] * len(points)
    mismatches = []
    for (_, p), ref in zip(workloads.ladder_inputs(0), reference["ladder"]["0"], strict=True):
        try:
            _, obs, dim = converged_steady_state(p)
            outcome = dim, obs.mean_photon, obs.g2
        except SteadyStateError as exc:
            outcome = exc
        mismatches.append(workloads.check_ladder_point(p, outcome, ref))
    assert mismatches == [None] * len(mismatches)
