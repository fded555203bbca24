"""Smoke test of the benchmark's trace mode: every tracer patch point exists."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# a traced run wraps internals by name, so a renamed function breaks it;
# each workload's traced ops must all run and pass their output checks
@pytest.mark.parametrize(
    "workload", ["solve-oscillator", "solve-quartic", "diagnose-sweep", "classify-cylinder"]
)
def test_traced_bench_run_completes(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
