#!/usr/bin/env python3
"""Benchmark of the blockade library: stock-map sweeps and a strong-drive ladder tail.

Run from a checkout of the repository:

    python3 bench/run.py --workload map_serial --seed 0 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are a report: the
environment, then every metric with its unit, including those left out of
the JSON line.  --trace 0 measures the end-to-end metrics with nothing
wrapped; --trace 1 wraps the public functions of each layer (tracing.py)
and reports the per-layer metrics instead.

    python3 bench/run.py --write-manifest

rewrites BENCHMARK.json from the definitions below.  bench/README.md
describes every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import RUNGS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
REFERENCE_PATH = BENCH_DIR / "reference.json"

RUN_SECONDS = 45
SETUP_REPEATS = 5
POOL_WORKERS = 2
SPOT_CHECKS = 3
# Stock point of the fig1a map used for every warm-up solve.
WARMUP_POINT = {"u": 0.5, "f": 0.1, "phi": 0.2618}

# The workloads BENCHMARK.json lists.
WORKLOADS = {
    "map_serial": "hot path: seeded 6x6 fig1a map via run_sweep(workers=1) plus CSV/JSON output; "
    "D=12->18 solves and per-point sweep/analytic overhead, no large-D work",
    "ladder_tail": "closed loop of single converged_steady_state calls on stratified strong-drive draws "
    "that climb to D=24-54 or fail at D=60; large-D build, LU, memory and failure path",
}
# Runnable by name but left out of BENCHMARK.json: on a 2-CPU host its
# run-to-run spread is the pool/BLAS contention defect itself, too wide to
# keep under a third of the largest bound a listed metric may have
# (see README.md).
UNLISTED_WORKLOADS = {
    "map_pool": "the map_serial grid with workers=2, so only the sweep process pool and its "
    "BLAS-thread contention differ",
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# point_tail_ms is measured and printed but not listed: on ladder_tail it
# spread 21% of its median between runs, close to the largest bound (0.25).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("point_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better.  Times of layers or rungs that some workload never
# reaches would read 0 there, so they stay in the report only.
PER_LAYER = (
    *((f"steady.steady_state.calls.d{d}", "count", "lower") for d in RUNGS),
    *((f"steady.liouvillian.calls.d{d}", "count", "lower") for d in RUNGS),
    *((f"sweep.dims.d{d}", "count", "lower") for d in RUNGS),
    ("sweep.dims.fail", "count", "lower"),
    ("steady.converged_steady_state.rungs_per_point", "rungs/point", "lower"),
    ("steady.liouvillian.computed_bytes.per_point", "bytes", "lower"),
    ("steady.liouvillian.ms.d12", "ms", "lower"),
    ("steady.liouvillian.ms.d18", "ms", "lower"),
    ("steady.steady_state.self_ms.d12", "ms", "lower"),
    ("steady.steady_state.self_ms.d18", "ms", "lower"),
    ("steady.liouvillian.ms.per_point", "ms", "lower"),
    ("steady.steady_state.self_ms.per_point", "ms", "lower"),
    ("model.build_h_eff.ms", "ms", "lower"),
    ("steady.observables.ms", "ms", "lower"),
    ("steady.failures.ConvergenceError", "count", "lower"),
    ("steady.failures.SteadyStateError", "count", "lower"),
    ("steady.failures.ValueError", "count", "lower"),
    ("steady.failures.other", "count", "lower"),
    ("steady.failures.time_share", "ratio", "lower"),
    ("analytic.amplitudes_closed_form.calls", "count", "lower"),
    ("analytic.useful_ratio", "ratio", "higher"),
    ("cli.sweep_to_csv.bytes", "bytes", "lower"),
    ("cli.sweep_to_json.bytes", "bytes", "lower"),
    ("sweep.pool_efficiency", "ratio", "higher"),
    ("inputs.unstable_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blockade
blockade.converged_steady_state(blockade.SystemParams(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def measure_setup() -> list[float]:
    """Seconds to import blockade and finish a first solve, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(WARMUP_POINT)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def blas_libraries() -> list[dict]:
    """The OpenBLAS copies loaded by numpy and scipy, with their thread counts (read only)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        # numpy's copy suffixes its symbols with 64_ (64-bit integer interface)
        for key, restype, stem in (
            ("threads", ctypes.c_int, "scipy_openblas_get_num_threads"),
            ("config", ctypes.c_char_p, "scipy_openblas_get_config"),
        ):
            for symbol in (stem + "64_", stem):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(entry)
    return found


def environment(workload: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BLOCKADE_THREADS")},
    }


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it.

    With fewer than 21 samples that percentile falls below the median, so
    the upper-median sample is reported instead.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def load_reference(kind: str, seed: int):
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[kind].get(str(seed))


class Outcome:
    """Points attempted and failed, the first few failure reasons, and the metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def check(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def repeat_for(seconds: float, one_pass, min_passes: int = 1) -> list:
    """Results of one_pass() called until `seconds` is used up.

    No pass starts once the mean pass so far would end it past the deadline
    (after min_passes), so a run with long passes does not overshoot.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if len(results) >= min_passes and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def run_map(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import blockade.cli as cli
    import blockade.steady as steady
    import blockade.sweep as sweep
    import workloads
    from tracing import Tracer, layer_metrics

    base, axes = workloads.map_inputs(seed)
    params = workloads.map_points(base, axes)
    reference = load_reference("map", seed)
    out = Outcome()
    first = []

    def one_sweep(workers):
        start = time.perf_counter()
        result = sweep.run_sweep(base, axes, workers=workers)
        csv_text = cli.sweep_to_csv(result)
        json_text = cli.sweep_to_json(result)
        elapsed = time.perf_counter() - start
        for i, row in enumerate(result.rows):
            out.check(workloads.check_map_row(row, params[i], reference[i] if reference else None, first[i] if first else None))
        if not first:
            first.extend(result.rows)
        return elapsed, len(csv_text.encode()), len(json_text.encode())

    if not trace:
        workers = POOL_WORKERS if workload == "map_pool" else 1
        times = repeat_for(seconds, lambda: one_sweep(workers)[0], min_passes=3)
        ms_per_point = [1e3 * t / len(params) for t in times]
        tail_ms, tail_pct = tail(ms_per_point)
        out.metrics["points_per_s"] = (statistics.median(len(params) / t for t in times), "1/s")
        out.metrics["point_p50_ms"] = (statistics.median(ms_per_point), "ms")
        out.metrics["point_tail_ms"] = (tail_ms, "ms")
        out.notes.append(f"point latency = sweep wall time / {len(params)} points, one sample per sweep; "
                         f"tail is p{tail_pct:.1f} of {len(times)} sweeps")
    else:
        tracer = Tracer()

        def one_pass():
            with tracer.installed():
                traced = one_sweep(1)
            return traced, one_sweep(1)[0], one_sweep(POOL_WORKERS)[0]

        passes = repeat_for(seconds, one_pass)
        (_, csv_bytes, json_bytes), _, _ = passes[0]
        traced, serial, pooled = ([p[i] for p in passes] for i in range(3))
        out.metrics.update(layer_metrics(tracer.spans, len(passes)))
        computed = out.metrics["analytic.amplitudes_closed_form.calls"][0] * len(passes)
        out.metrics["analytic.useful_ratio"] = (len(tracer.analytic_rows_read) / computed if computed else 0.0, "ratio")
        out.metrics["cli.sweep_to_csv.bytes"] = (csv_bytes, "bytes")
        out.metrics["cli.sweep_to_json.bytes"] = (json_bytes, "bytes")
        out.metrics["sweep.pool_efficiency"] = (
            statistics.median(serial) / (POOL_WORKERS * statistics.median(pooled)), "ratio")
        out.metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(t for t, _, _ in traced) / statistics.median(serial) - 1.0), "%")
        out.notes.append(f"{len(passes)} passes of a traced serial, an untraced serial "
                         f"and an untraced {POOL_WORKERS}-worker sweep")
        write_trace(tracer, workload, seed)
    out.metrics["inputs.unstable_share"] = (sum(map(workloads.is_unstable, params)) / len(params), "ratio")

    # Spot-check the sweep's row assembly against direct solves of the same points.
    for i in random.Random(f"spot:{seed}").sample(range(len(params)), SPOT_CHECKS):
        _, obs, dim = steady.converged_steady_state(params[i])
        row = first[i]
        ok = (row.dim == dim and workloads.rel_close(row.n_mean, obs.mean_photon, workloads.REPEAT_RTOL)
              and workloads.rel_close(row.g2, obs.g2, workloads.REPEAT_RTOL))
        out.check(None if ok else f"sweep row {i} differs from a direct solve")
    return out


def run_ladder(seed: int, seconds: float, trace: bool) -> Outcome:
    import blockade.steady as steady
    import workloads
    from tracing import Tracer, layer_metrics

    points = workloads.ladder_inputs(seed)
    reference = load_reference("ladder", seed)
    out = Outcome()
    solver_failures = 0

    def one_cycle() -> list[float]:
        nonlocal solver_failures
        latencies = []
        for i, (_, p) in enumerate(points):
            start = time.perf_counter()
            try:
                _, obs, dim = steady.converged_steady_state(p)
                outcome = (dim, obs.mean_photon, obs.g2)
            except Exception as exc:  # every failure is checked below, never fatal
                outcome = exc
                solver_failures += 1
            latencies.append(time.perf_counter() - start)
            out.check(workloads.check_ladder_point(p, outcome, reference[i] if reference else None))
        return latencies

    if not trace:
        cycles = repeat_for(seconds, one_cycle)
        latencies = [1e3 * t for cycle in cycles for t in cycle]
        tail_ms, tail_pct = tail(latencies)
        out.metrics["points_per_s"] = (statistics.median(len(points) / sum(cycle) for cycle in cycles), "1/s")
        out.metrics["point_p50_ms"] = (statistics.median(latencies), "ms")
        out.metrics["point_tail_ms"] = (tail_ms, "ms")
        out.notes.append(f"{len(cycles)} cycles of {len(points)} points; tail is p{tail_pct:.1f} of {len(latencies)} points")
        out.notes.append(f"fail_frac = {(solver_failures + out.failed) / out.attempted:.4f} "
                         f"({solver_failures} solver failures, {out.failed} failed checks, {out.attempted} points)")
    else:
        tracer = Tracer()

        def one_pass():
            with tracer.installed():
                traced = sum(one_cycle())
            return traced, sum(one_cycle())

        passes = repeat_for(seconds, one_pass)
        out.metrics.update(layer_metrics(tracer.spans, len(passes)))
        out.metrics["analytic.useful_ratio"] = (0.0, "ratio")
        out.metrics["cli.sweep_to_csv.bytes"] = (0, "bytes")
        out.metrics["cli.sweep_to_json.bytes"] = (0, "bytes")
        out.metrics["sweep.pool_efficiency"] = (0.0, "ratio")
        out.metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(t for t, _ in passes) / statistics.median(u for _, u in passes) - 1.0), "%")
        out.notes.append(f"{len(passes)} passes of a traced and an untraced cycle of {len(points)} points")
        write_trace(tracer, "ladder_tail", seed)
    out.metrics["inputs.unstable_share"] = (sum(workloads.is_unstable(p) for _, p in points) / len(points), "ratio")
    return out


def write_trace(tracer, workload: str, seed: int) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.json", {"workload": workload, "seed": seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS | UNLISTED_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "blockade" / "__init__.py").is_file():
        print(f"bench: no blockade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [] if args.trace else measure_setup()
    import blockade

    blockade.converged_steady_state(blockade.SystemParams(**WARMUP_POINT))
    workers = POOL_WORKERS if args.workload == "map_pool" else 1
    env = environment(args.workload, args.seed, workers)
    if args.workload == "ladder_tail":
        out = run_ladder(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_map(args.workload, args.seed, args.seconds, bool(args.trace))
    if setup:
        out.metrics["setup_s"] = (statistics.median(setup), "s")
        out.notes.append("setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup))
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print("# env " + json.dumps(env))
    for note in out.notes:
        print(f"# {note}")
    for reason in out.reasons:
        print(f"# FAILED CHECK: {reason}")
    for name in sorted(out.metrics):
        value, unit = out.metrics[name]
        print(f"metric {name} = {value:.6g} {unit}")
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit, *_ in wanted:
        value, measured_unit = out.metrics[name]
        if measured_unit != unit:
            raise RuntimeError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
