"""The benchmark's workloads run end to end and pass their own output checks.

``train_toy_b16`` fills every fresh parameter's ``.grad`` before its gradient
check, so it guards the gradient-buffer contract the benchmark relies on.
``infer_tiny224`` checks tiny@224 logits against the benchmark's own float64
forward, so it guards the row-blocked convolution at the sizes that block.
``attnstats_tiny224`` recomputes every windowed head's CSV rows in tap space
from weights it captures itself, so it guards the streamed statistics.
One traced run of ``train_toy_b16`` wraps every library name the tracer
looks up, so renaming or deleting one of them fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload, trace=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, proc.stderr[-4000:]
    assert proc.returncode == 0


def test_train_toy_b16_workload_is_correct():
    run_workload("train_toy_b16")


def test_infer_tiny224_workload_is_correct():
    run_workload("infer_tiny224")


def test_attnstats_tiny224_workload_is_correct():
    run_workload("attnstats_tiny224")


def test_traced_train_toy_b16_workload_is_correct():
    run_workload("train_toy_b16", trace=1)
