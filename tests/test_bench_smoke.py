"""One zero-second benchmark run, so a library change that breaks one of the
benchmark's correctness checks fails here and not only in a benchmark run.

The benchmark sets its BLAS thread variables before numpy is imported, so it
runs in its own process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fit_novel_run_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_novel", "--seed", "1",
         "--seconds", "0", "--out", str(tmp_path / "r.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
