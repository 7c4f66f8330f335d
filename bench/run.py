"""denselab benchmark: one workload per run, every metric by name and unit.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc_edge --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout; the run fails with exit
code 2 when that is missing. Every run pins DENSELAB_WORKERS=1 and runs the
workload in this one process.

A run builds the workload (its set-up), then runs passes of the workload's
fixed job list until the passes took `--seconds` and the workload's minimum
job count is reached, or 120 s passed. Each job's seed derives from `--seed`.
Outputs are checked after each pass, outside the timed section, and one job
is rerun with the same seed and compared byte for byte.

With `--trace 0` the last stdout line reports the end-to-end metrics:

- setup_s: median over fresh processes of `import denselab` plus set-up;
- wall_s: median wall time of one pass of the fixed job list;
- job_s_p50, job_s_tail: median job time, and the highest percentile with at
  least ten jobs beyond it at the workload's minimum job count (fixed per
  workload so that it is the same on every commit; see `tail_rank`);
- peak_rss_mb: this process's ru_maxrss;
- ok_ratio: 1 - (failed checks + raised exceptions) / jobs attempted.

With `--trace 1` a fixed number of untraced and traced passes alternate over
the same seeds, and the last line reports the per-layer metrics of
`bench/tracing.py`. The line before the last one holds provenance and run
details; both, and the trace spans, are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# No __pycache__ in the checkout: every run, and every set-up sample,
# compiles the package from source the same way.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc_edge", "mc_local", "cli_oneshot")
SETUP_PROCESSES = 9
MAX_MEASURE_SECONDS = 120  # keeps a much slower commit inside the 180 s run limit


def job_seed(seed, index):
    return seed * 1_000_003 + index


def tail_rank(jobs, min_jobs):
    """1-based nearest rank of the tail percentile among `jobs` job times.

    The percentile is 100 (min_jobs - 10) / min_jobs, the highest one with ten
    jobs beyond it at the workload's minimum job count. It is fixed per
    workload, so that it is the same on every commit.
    """
    return max(-(-jobs * (min_jobs - 10) // min_jobs), 1)


def build_workload(name, seed, tiny, workdir):
    """Import denselab and set the workload up; returns (seconds, workload)."""
    start = perf_counter()
    import denselab  # noqa: F401  (timed: part of set-up)
    import workloads

    wl = workloads.WORKLOADS[name](seed, tiny, workdir)
    return perf_counter() - start, wl


def fresh_setup_seconds(args):
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, "-B", str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(args):
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "denselab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "DENSELAB_WORKERS": os.environ["DENSELAB_WORKERS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def git_sha():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    if not (ROOT / ".git").exists():  # git would search the directories above it
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Run:
    """Job bookkeeping for one run: times, failures and the rerun fingerprint."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.next_job = 0
        self.job_times = []
        self.pass_walls = []
        self.attempted = 0
        self.failures = []
        self.first = None  # (seed, fingerprint) of the first job

    def run_pass(self, first_job, tracer=None):
        """Run one pass of the fixed job list; returns (wall seconds, outputs)."""
        outputs = []
        start = perf_counter()
        for i in range(first_job, first_job + self.wl.pass_jobs):
            seed = job_seed(self.seed, i)
            job_id = f"{'j' if tracer is None else 't'}{i}"
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = self.wl.job(seed, job_id)
                else:
                    out = tracer.run_job(job_id, self.wl.job, seed, job_id)
            except Exception:  # a failed job is counted, and the run goes on
                out = None
                self.failures.append(f"job {job_id} raised:\n{traceback.format_exc()}")
            if tracer is None:
                self.job_times.append(perf_counter() - t0)
            self.attempted += 1
            outputs.append((seed, out))
        return perf_counter() - start, outputs

    def check(self, outputs):
        for seed, out in outputs:
            if out is None:
                continue
            try:
                self.failures += [f"seed {seed}: {f}" for f in self.wl.check(out)]
                if self.first is None:
                    self.first = (seed, self.wl.fingerprint(out))
            except Exception:
                self.failures.append(f"check of seed {seed} raised:\n{traceback.format_exc()}")

    def measured_pass(self):
        wall, outputs = self.run_pass(self.next_job)
        self.next_job += self.wl.pass_jobs
        self.pass_walls.append(wall)
        self.check(outputs)
        return outputs

    def finish(self):
        """Pooled checks, then the rerun of the first job compared byte for byte."""
        try:
            self.failures += self.wl.finish()
        except Exception:
            self.failures.append(f"pooled checks raised:\n{traceback.format_exc()}")
        if self.first is None:
            self.failures.append("no job produced output to rerun")
            return
        seed, fingerprint = self.first
        try:
            again = self.wl.fingerprint(self.wl.job(seed, "rerun"))
        except Exception:
            self.failures.append(f"rerun raised:\n{traceback.format_exc()}")
            return
        if again != fingerprint:
            self.failures.append(f"rerun of seed {seed} differs from its first run")


def measure(run, seconds, fresh_setup, setup_repeats):
    """Untraced passes until they took `seconds` and min_jobs ran.

    One fresh-process set-up is timed after each pass, until there are
    `setup_repeats`, so that the set-up samples span the run.
    """
    wl = run.wl
    setups = []
    start = perf_counter()
    while True:
        run.measured_pass()
        if len(setups) < setup_repeats:
            setups.append(fresh_setup())
        if perf_counter() - start >= MAX_MEASURE_SECONDS or (
                sum(run.pass_walls) >= seconds and len(run.job_times) >= wl.min_jobs):
            break
    setups += [fresh_setup() for _ in range(setup_repeats - len(setups))]
    run.finish()
    details = {"jobs": len(run.job_times), "passes": len(run.pass_walls),
               "pass_jobs": wl.pass_jobs,
               "tail_percentile": 100 * (wl.min_jobs - 10) / wl.min_jobs,
               "pass_walls_s": run.pass_walls, "setup_samples_s": setups}
    metrics = {
        "wall_s": (statistics.median(run.pass_walls), "s"),
        "job_s_p50": (statistics.median(run.job_times), "s"),
        "job_s_tail": (sorted(run.job_times)[tail_rank(len(run.job_times), wl.min_jobs) - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, details


def measure_traced(run, passes, trace_path):
    """Alternate untraced and traced passes over the same seeds."""
    import denselab
    from tracing import Tracer, metric_units

    tracer = Tracer(denselab)
    untraced = traced = 0.0
    run.measured_pass()  # warm-up, so that neither side of a pair runs cold
    for _ in range(passes):
        first = run.next_job
        run.measured_pass()
        untraced += run.pass_walls[-1]
        tracer.install()
        try:
            wall, outputs = run.run_pass(first, tracer)
        finally:
            tracer.uninstall()
        traced += wall
        for _, out in outputs:
            if out is not None:
                bytes_in, bytes_out = run.wl.io_bytes(out)
                tracer.counts["cli.bytes_in"] += bytes_in
                tracer.counts["cli.bytes_out"] += bytes_out
    run.finish()
    tracer.write(trace_path)
    values = tracer.metrics()
    values.update({
        "trace_overhead_ratio": traced / untraced,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.self_sum_s": tracer.self_sum(),
    })
    units = metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    details = {"traced_passes": passes, "pass_jobs": run.wl.pass_jobs,
               "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
               "hook_errors": tracer.counts["trace.hook_errors"],
               "self_s": {k: v for k, v in values.items() if k.endswith(".self_s")}}
    return metrics, details


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "denselab" / "__init__.py").is_file():
        print(f"error: no denselab package under {SRC}", file=sys.stderr)
        return 2
    os.environ["DENSELAB_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            seconds, _ = build_workload(args.workload, args.seed, args.tiny, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        seconds, wl = build_workload(args.workload, args.seed, args.tiny, workdir)
        import denselab

        if Path(denselab.__file__).resolve().parent != SRC / "denselab":
            print(f"error: imported denselab from {denselab.__file__}", file=sys.stderr)
            return 2
        run = Run(wl, args.seed)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            passes = 1 if args.tiny else wl.trace_passes
            metrics, details = measure_traced(run, passes, OUT / f"trace-{stem}.jsonl")
        else:
            repeats = 1 if args.tiny else SETUP_PROCESSES
            metrics, details = measure(run, args.seconds, lambda: fresh_setup_seconds(args), repeats)
            details["setup_samples_s"].append(seconds)
            metrics["setup_s"] = (statistics.median(details["setup_samples_s"]), "s")
        failed = len(run.failures)
        if not args.trace:
            metrics["ok_ratio"] = (max(0.0, 1.0 - failed / run.attempted), "ratio")
        details.update(attempted=run.attempted, failed=failed, failures=run.failures)
        for failure in run.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        result = {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record = {"provenance": provenance(args), "details": details}
        with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(dict(record, result=result), fh, indent=1)
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
