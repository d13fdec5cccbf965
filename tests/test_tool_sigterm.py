"""A tool stopped by SIGTERM removes its temporary export of the ref."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "tool, prefix, options",
    [("paired_bench.py", "paired-bench-", ["--seconds", "30"]), ("preset_diff.py", "preset-diff-", [])],
)
def test_sigterm_removes_the_export(tmp_path, tool, prefix, options):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit to export")
    # the export goes to TMPDIR; one sweep worker keeps the killed child's tree small
    env = {**os.environ, "TMPDIR": str(tmp_path), "BLOCKADE_THREADS": "1"}
    command = [sys.executable, str(ROOT / "tools" / tool), "--ref", "HEAD", *options]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob(f"{prefix}*/src/blockade/cli.py")):
            assert proc.poll() is None, "the tool exited before its export was written"
            assert time.monotonic() < deadline, "no export after 60 s"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.glob(f"{prefix}*")) == []
