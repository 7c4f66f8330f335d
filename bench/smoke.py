"""Smoke test of the benchmark: every workload at tiny size, traced and not.

Run from the root of a source checkout:

    python3 bench/smoke.py

Each run must pass all of its output checks and report exactly the metric
names that BENCHMARK.json lists for its mode. Exits 0 on success, 1 with one
line per problem otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, *spec["command"][1:], "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            if res.returncode != 0:
                problems.append(f"{label}: exit {res.returncode}: {res.stderr.strip()}")
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} checks failed: {res.stderr.strip()}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            print(f"{label}: {result['attempted']} jobs, {result['failed']} failed")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
