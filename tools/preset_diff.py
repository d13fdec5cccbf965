#!/usr/bin/env python3
"""Compare every preset sweep's CSV and JSON output between a git ref and the working tree.

    python3 tools/preset_diff.py --ref HEAD

Exports the ref's committed files into a temporary directory with
paired_bench.export (removed on exit, SIGTERM included), then runs
`blockade sweep --preset P --format F` for every preset P and F in
(csv, json), once on each tree's own src/.  Prints one line per preset and
format: "identical" when the two outputs are byte-identical (JSON apart
from its timestamp), otherwise the worst relative difference in n_mean and
in g2 and the number of rows whose dim or status differ.  Exits 1 if any
output differs.  The 64 full-size sweeps take about ten minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_bench import ROOT, exit_on_sigterm, export

sys.path.insert(0, str(ROOT / "src"))
from blockade.sweep import _PRESETS  # noqa: E402  the working tree's preset table

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _rows(text: str) -> list[dict]:
    if text.startswith("{"):
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text)))


def _value(x):
    """A cell as a float, or None where the output says NA (CSV) or null (JSON)."""
    return None if x is None or x == "NA" else float(x)


def _rel_diff(a, b) -> float:
    if a == b:  # also both None
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(ref: str, new: str) -> dict | None:
    """None if two outputs of one sweep are byte-identical apart from the JSON
    timestamp.  Otherwise the row counts, the worst relative differences in
    n_mean and g2 (inf where only one side is defined) and the numbers of
    rows whose dim or status differ, over the rows both outputs have."""
    if _TIMESTAMP.sub("", ref) == _TIMESTAMP.sub("", new):
        return None
    ref_rows, new_rows = _rows(ref), _rows(new)
    pairs = list(zip(ref_rows, new_rows))
    return {
        "rows": (len(ref_rows), len(new_rows)),
        **{
            name: max((_rel_diff(_value(r[name]), _value(n[name])) for r, n in pairs), default=0.0)
            for name in ("n_mean", "g2")
        },
        "dim": sum(_value(r["dim"]) != _value(n["dim"]) for r, n in pairs),
        "status": sum(r["status"] != n["status"] for r, n in pairs),
    }


def sweep(tree: Path, name: str, fmt: str) -> str:
    """stdout of `blockade sweep --preset name --format fmt` run on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-m", "blockade.cli", "sweep", "--preset", name, "--format", fmt],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout


def main(argv=None) -> int:
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--ref", required=True, help="git ref to compare the working tree against")
    args = parser.parse_args(argv)

    differing = 0
    with tempfile.TemporaryDirectory(prefix="preset-diff-") as ref_tree:
        export(args.ref, Path(ref_tree))
        for name in _PRESETS:
            for fmt in ("csv", "json"):
                diff = compare(sweep(Path(ref_tree), name, fmt), sweep(ROOT, name, fmt))
                if diff is None:
                    verdict = "identical"
                else:
                    differing += 1
                    verdict = (
                        f"DIFFERS: rows {diff['rows'][0]} vs {diff['rows'][1]}, worst rel diff "
                        f"n_mean {diff['n_mean']:.3g}, g2 {diff['g2']:.3g}; "
                        f"{diff['dim']} dim and {diff['status']} status mismatches"
                    )
                print(f"{name} {fmt}: {verdict}", flush=True)
    print(f"{differing} of {2 * len(_PRESETS)} outputs differ from {args.ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
