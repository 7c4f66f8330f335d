"""The benchmark's own smoke run: every workload at tiny size, with its output
checks, so that a change breaking a benchmark oracle fails the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    res = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
