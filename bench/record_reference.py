#!/usr/bin/env python3
"""Record the reference rows the benchmark's correctness gate compares against.

    python3 bench/record_reference.py

For seeds 0..REFERENCE_SEEDS-1 it solves the map_* grid (run_sweep with
workers=1) and one ladder_tail cycle (converged_steady_state per point) and
writes (dim, N, g2) per point to bench/reference.json; an expected
ConvergenceError is stored as nulls.  Run it only on a commit whose
numerics are trusted: later changes to the library are held to this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from blockade import ConvergenceError, converged_steady_state, run_sweep  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEEDS = 16


def main() -> int:
    doc = {"map": {}, "ladder": {}}
    for seed in range(REFERENCE_SEEDS):
        base, axes = workloads.map_inputs(seed)
        result = run_sweep(base, axes, workers=1)
        doc["map"][str(seed)] = [[row.dim, row.n_mean, row.g2] for row in result.rows]
        entries = []
        for _, p in workloads.ladder_inputs(seed):
            try:
                _, obs, dim = converged_steady_state(p)
                outcome = (dim, obs.mean_photon, obs.g2)
            except ConvergenceError as exc:
                outcome = exc
            reason = workloads.check_ladder_point(p, outcome, None)
            if reason is not None:
                raise SystemExit(f"seed {seed}: {reason}")
            entries.append(list(outcome) if isinstance(outcome, tuple) else [None, None, None])
        doc["ladder"][str(seed)] = entries
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
