"""The benchmark's training workload runs end to end and passes its own output checks.

It fills every fresh parameter's ``.grad`` before its gradient check, so this
guards the gradient-buffer contract the benchmark relies on.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_train_toy_b16_workload_is_correct():
    argv = [sys.executable, "perfbench/run.py", "--workload", "train_toy_b16",
            "--seed", "0", "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stderr[-4000:]
    assert proc.returncode == 0
