#!/usr/bin/env python3
"""Paired benchmark runs of a git ref against the working tree.

    python3 tools/paired_bench.py --ref HEAD --workload map_serial --pairs 10

Exports the ref's committed files into a temporary directory with
`git archive` (removed on exit, SIGTERM included; no worktree is
registered), then runs
`bench/run.py --workload W --seed S --seconds T --trace 0` alternately
there and in the working tree, N pairs, alternating which side runs first.
Each side runs its own bench/run.py on its own src/.  Prints every pair's
end-to-end metrics and their ratio (working tree / ref), then per metric
each side's median, the median ratio with its quartiles, and how many
pairs the working tree won.  A run that reports a failed check stops the
comparison.  Pairs taken back to back cancel the host's slow drift, which
separate runs of 45 s do not.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(ref: list[float], new: list[float], better: str) -> dict:
    """Paired summary of one metric over runs ref[i], new[i] of pair i.

    Returns each pair's ratio new / ref, the ratios' (q1, median, q3), each
    side's median, and the number of pairs in which the working tree was
    better ("higher" or "lower" is better).
    """
    if len(ref) != len(new) or not ref:
        raise ValueError("need the same positive number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    ratios = [n / r for r, n in zip(ref, new)]
    wins = sum(n > r if better == "higher" else n < r for r, n in zip(ref, new))
    return {
        "ratios": ratios,
        "ratio_quartiles": quartiles(ratios),
        "ref_median": statistics.median(ref),
        "new_median": statistics.median(new),
        "wins": wins,
    }


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one bench/run.py run in tree, as {name: value}."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: {result['failed']} of {result['attempted']} checks failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def export(ref: str, into: Path) -> None:
    """Write the files committed at ref into the directory into."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that a tool stopped by it still
    removes its temporary export and subprocess.run kills the running child."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main(argv=None) -> int:
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--ref", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", default="map_serial")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0, help="run length of each bench run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in manifest["end_to_end"]}
    runs: dict[str, list[dict[str, float]]] = {"ref": [], "new": []}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as ref_tree:
        trees = {"ref": Path(ref_tree), "new": ROOT}
        export(args.ref, trees["ref"])
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            for side in order:
                runs[side].append(bench_once(trees[side], args.workload, args.seed, args.seconds))
            ref, new = runs["ref"][-1], runs["new"][-1]
            line = "  ".join(
                f"{name} {ref[name]:.4g} -> {new[name]:.4g} ({new[name] / ref[name]:.3f})" for name in better
            )
            print(f"pair {i + 1:2d} ({order[0]} first): {line}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"ratio = working tree / {args.ref}:")
    for name, direction in better.items():
        s = summarize([r[name] for r in runs["ref"]], [r[name] for r in runs["new"]], direction)
        q1, median, q3 = s["ratio_quartiles"]
        print(f"  {name}: median {s['ref_median']:.4g} -> {s['new_median']:.4g}, ratio {median:.3f} "
              f"(q1-q3 {q1:.3f}-{q3:.3f}), working tree better in {s['wins']}/{args.pairs} "
              f"({direction} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
