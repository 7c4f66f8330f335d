"""The three benchmark workloads of denselab.

A workload is built once (its set-up: parameters, motif search, conditioning
spec, input files), then runs jobs. Jobs of one workload have the same shape
and differ only in their seed. After each pass the runner checks every job's
output against an oracle that already exists in the package; pooled
statistical checks run once at the end. No check depends on the exact random
stream, only on its distribution or on two runs of the same code agreeing.

Which end-to-end metric each layer should move:

- mc_edge: `models.sample_planted`, `models.sample_null_tensor`,
  `hypergraph.rank_edge` and `models.bits_drawn` move wall_s, job_s_p50 and
  peak_rss_mb. No unrank, ldlr or balanced code runs.
- mc_local: `hypergraph.unrank_edge`, `AdjacencyTensor.present_edges`,
  `stats.count_motif` and `ldlr.event_holds` move wall_s and job_s_tail; they
  should not move mc_edge.
- cli_oneshot: the text format, `Hypergraph.to_tensor`, `ldlr.ldlr_norm_exact`,
  `hypergraph.count_subgraph_class`, `balanced.*` and `cli.main` self time
  move wall_s.
- `rng.child_rng` runs in both mc_* workloads and should be a small share.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from denselab import balanced, cli, ldlr, models, stats
from denselab.hypergraph import parse_hypergraph_text, write_hypergraph_text

EDGE_TRIALS = 2  # the smallest run estimate_separation accepts


def _null_mean_failure(label, values, eq, se_floor=0.0):
    """Pooled null mean against its exact value, within four standard errors."""
    n = len(values)
    if n < 2:
        return [f"{label}: only {n} null statistics pooled"]
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    se = max(math.sqrt(var / n), se_floor)
    if abs(mean - eq) > 4 * se:
        return [f"{label}: null mean {mean!r} is {abs(mean - eq) / se:.1f} SE from {eq!r}"]
    return []


class McEdge:
    """Edge-count separation runs, where samplers and within-Z ranking dominate."""

    pass_jobs = 5
    min_jobs = 40
    trace_passes = 3

    def __init__(self, seed, tiny, workdir):
        n2, n3 = (64, 24) if tiny else (2048, 160)
        self.params = (
            models.derive_params(n2, 2, 0.3, 0.5, 0.75),
            models.derive_params(n3, 3, 0.3, 0.9, 0.75),
        )
        self.null_values = tuple([] for _ in self.params)

    def job(self, seed, job_id):
        return [stats.estimate_separation(p, "edge", EDGE_TRIALS, seed) for p in self.params]

    def check(self, reports):
        failures = []
        for params, pooled, rep in zip(self.params, self.null_values, reports):
            rows = [row for row in rep.rows if row.model == "null"]
            if len(rows) != EDGE_TRIALS or not all(math.isfinite(r.statistic) for r in rep.rows):
                failures.append(f"r={params.r}: malformed separation report")
            pooled.extend(row.statistic for row in rows)
        return failures

    def finish(self):
        failures = []
        for params, pooled in zip(self.params, self.null_values):
            eq = stats.exact_moments_edge_stat(params).eq
            failures += _null_mean_failure(f"edge r={params.r} n={params.n}", pooled, eq)
        return failures

    def fingerprint(self, reports):
        return "".join(rep.to_json() + rep.to_csv() for rep in reports).encode()

    def io_bytes(self, reports):
        return 0, 0


class McLocal:
    """Motif-count separation and event checks on small hosts."""

    pass_jobs = 5
    min_jobs = 40
    trace_passes = 3

    def __init__(self, seed, tiny, workdir):
        n_motif, n_event = (40, 50) if tiny else (120, 200)
        self.event_trials = 8 if tiny else 60
        self.motif = balanced.find_balanced_motif(0.3, 0.75, 0.48, 2)
        self.motif_params = models.derive_params(n_motif, 2, 0.3, 0.75, 0.48)
        self.event_params = models.derive_params(n_event, 2, 0.59, 0.8, 0.24)
        self.spec = ldlr.build_conditioning_spec(self.event_params, 0.1, 10)
        self.null_values = []

    def job(self, seed, job_id):
        return (
            stats.estimate_separation(self.motif_params, self.motif, EDGE_TRIALS, seed),
            ldlr.estimate_event_probability(self.event_params, self.spec, self.event_trials, seed),
        )

    def check(self, output):
        rep, event = output
        failures = []
        rows = [row for row in rep.rows if row.model == "null"]
        if len(rows) != EDGE_TRIALS or any(r.statistic < 0 for r in rep.rows):
            failures.append("malformed motif separation report")
        if event.trials != self.event_trials or not 0.0 <= event.value <= 1.0:
            failures.append(f"event probability {event.value!r} over {event.trials} trials")
        self.null_values.extend(row.statistic for row in rows)
        return failures

    def finish(self):
        mm = stats.exact_moments_motif_stat(self.motif_params, self.motif)
        # Copies of the motif are increasing events, so by Harris' inequality
        # Var_Q >= N q^m (1 - q^m) = eq (1 - q^m). At n=120 most null hosts hold
        # no copy at all and the sample SE is 0, so this floor keeps the check
        # from failing on a run of zeros.
        q_m = self.motif_params.q ** self.motif.m
        floor = math.sqrt(mm.eq * (1.0 - q_m) / max(len(self.null_values), 1))
        label = f"motif n={self.motif_params.n}"
        return _null_mean_failure(label, self.null_values, mm.eq, floor)

    def fingerprint(self, output):
        rep, event = output
        return (rep.to_json() + rep.to_csv() + repr((event.value, event.std_error))).encode()

    def io_bytes(self, output):
        return 0, 0


def _flags(n, r, alpha, beta, gamma):
    return ["--n", str(n), "--r", str(r), "--alpha", str(alpha),
            "--beta", str(beta), "--gamma", str(gamma)]


# acceptance criterion 07's grid (alpha, beta, gamma, r)
MOTIF_GRID = (
    (0.3, 0.75, 0.48, 2), (0.28, 0.7, 0.45, 2), (0.2, 0.55, 0.4, 2),
    (0.22, 0.6, 0.42, 2), (0.15, 0.5, 0.35, 2), (0.25, 0.65, 0.44, 2),
    (0.18, 0.52, 0.38, 2), (0.3, 0.8, 0.43, 2),
    (0.5, 1.5, 0.45, 3), (0.4, 1.2, 0.45, 3), (0.3, 0.95, 0.435, 3),
    (0.5, 1.8, 0.35, 3),
)
SAMPLE_PARAMS = (2, 0.3, 0.5, 0.75)
MOTIF_PARAMS = (2, 0.3, 0.75, 0.48)
TINY_LDLR = (5, 2, 0.45, 0.6, 0.3)


class CliOneshot:
    """One round of in-process CLI calls per job, each instance used once."""

    # A round takes about 2.7 s, so fifteen jobs (tail at p33) keep a run
    # near 45 s; forty, as on the mc_* workloads, would take two minutes.
    # Job seeds are consecutive, so a pass uses each of its pass_jobs motif
    # input files once and every pass does the same motif-counting work.
    pass_jobs = 3
    min_jobs = 15
    trace_passes = 2

    def __init__(self, seed, tiny, workdir):
        self.workdir = workdir
        self.n_sample = 100 if tiny else 1000
        self.n_motif = 40 if tiny else 120
        self.n_grid = (1000, 10000) if tiny else (1000, 10000, 100000, 1000000)
        self.grid_points = 2 if tiny else 5
        self.deep_degree = 6 if tiny else 30
        self.motif_grid = MOTIF_GRID[:2] if tiny else MOTIF_GRID
        self.sample_params = models.derive_params(self.n_sample, *SAMPLE_PARAMS)
        self.motif_params = models.derive_params(self.n_motif, *MOTIF_PARAMS)
        motif = balanced.find_balanced_motif(*MOTIF_PARAMS[1:], MOTIF_PARAMS[0])
        self.motif_file = os.path.join(workdir, "motif.json")
        with open(self.motif_file, "w", encoding="utf-8") as fh:
            fh.write(motif.to_json() + "\n")
        self.motif_inputs = []
        for i in range(self.pass_jobs):
            hg = models.sample_planted(self.motif_params, seed, key=(i,)).Y.to_hypergraph()
            path = os.path.join(workdir, f"motif-input-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(write_hypergraph_text(hg))
            self.motif_inputs.append(path)
        # The oracles below are pure functions of inputs that repeat across
        # rounds (fixed motif hosts, find-balanced certificates), so each
        # distinct input is verified once and its verdict reused.
        self._motif_decisions = {}
        self._certified = {}

    def _argvs(self, seed, out):
        n1, (r, a, b, g) = self.n_sample, SAMPLE_PARAMS
        sample = os.path.join(out, "sample.txt")
        argvs = [
            ["sample", "--model", "planted", "--seed", str(seed), *_flags(n1, r, a, b, g),
             "--out", sample],
            ["test", "--stat", "edge", "--input", sample, *_flags(n1, r, a, b, g),
             "--out", os.path.join(out, "test-edge.json")],
            ["test", "--stat", "motif", "--input", self.motif_inputs[seed % self.pass_jobs],
             "--motif-file", self.motif_file, *_flags(self.n_motif, *MOTIF_PARAMS),
             "--out", os.path.join(out, "test-motif.json")],
        ]
        # acceptance criterion 04's n grid on both sides of the threshold
        for alpha in (0.48, 0.42):
            for n in self.n_grid:
                argvs.append(["ldlr", "--mode", "exact", "--degree", "10",
                              *_flags(n, 2, alpha, 0.5, 0.6),
                              "--out", os.path.join(out, f"ldlr-{alpha}-{n}.json")])
        argvs.append(["ldlr", "--mode", "exact", "--degree", str(self.deep_degree),
                      *_flags(10000, 3, 0.4, 1.2, 0.6),
                      "--out", os.path.join(out, "ldlr-r3.json")])
        k = self.grid_points
        argvs.append(["phase-diagram", "--r", "2", "--beta", "0.5",
                      "--alpha-grid", ",".join(str(x) for x in (0.2, 0.3, 0.4, 0.45, 0.48)[:k]),
                      "--gamma-grid", ",".join(str(x) for x in (0.5, 0.55, 0.6, 0.65, 0.7)[:k]),
                      "--n-grid", ",".join(str(n) for n in self.n_grid), "--degree", "10",
                      "--out", os.path.join(out, "phase.csv")])
        for i, (a, b, g, r) in enumerate(self.motif_grid):
            argvs.append(["find-balanced", "--alpha", str(a), "--beta", str(b),
                          "--gamma", str(g), "--r", str(r),
                          "--out", os.path.join(out, f"motif-{i}.json")])
        n, r, a, b, g = TINY_LDLR
        argvs.append(["ldlr", "--mode", "conditional", "--degree", "3", "--delta", "0.1",
                      *_flags(4, r, a, b, g), "--out", os.path.join(out, "ldlr-cond.json")])
        argvs.append(["ldlr", "--mode", "bruteforce", "--degree", "3", *_flags(n, r, a, b, g),
                      "--out", os.path.join(out, "ldlr-brute.json")])
        return argvs

    def job(self, seed, job_id):
        out = os.path.join(self.workdir, f"job-{job_id}")
        os.makedirs(out, exist_ok=True)
        codes = []
        argvs = self._argvs(seed, out)
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects bad flags this way
                codes.append(exc.code)
        return {"seed": seed, "dir": out, "argvs": argvs, "codes": codes}

    def check(self, output):
        failures = [f"exit {code}: {' '.join(argv[:3])}"
                    for code, argv in zip(output["codes"], output["argvs"]) if code != 0]
        if failures:
            return failures
        d = output["dir"]

        def read(name):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                return fh.read()

        hg, _ = parse_hypergraph_text(read("sample.txt"))
        if parse_hypergraph_text(write_hypergraph_text(hg))[0] != hg:
            failures.append("sample hypergraph does not round-trip through the text format")
        edge_decision = stats.threshold_test(hg, self.sample_params, "edge").decision
        if json.loads(read("test-edge.json"))["decision"] != edge_decision:
            failures.append("test --stat edge --input disagrees with threshold_test")
        if json.loads(read("test-motif.json"))["decision"] != self._motif_decision(output["seed"]):
            failures.append("test --stat motif --input disagrees with threshold_test")

        n, r, a, b, g = TINY_LDLR
        exact = ldlr.ldlr_norm_exact(models.derive_params(n, r, a, b, g), 3).value
        brute = json.loads(read("ldlr-brute.json"))["value"]
        if abs(exact - brute) / exact > 1e-9:  # acceptance criterion 01's tolerance
            failures.append(f"ldlr exact {exact!r} != bruteforce {brute!r}")
        for i, point in enumerate(self.motif_grid):
            text = read(f"motif-{i}.json")
            if (point, text) not in self._certified:
                self._certified[point, text] = self._certify(point, json.loads(text))
            if not self._certified[point, text]:
                failures.append(f"find-balanced certificate {i} fails certify_motif")
        rows = read("phase.csv").splitlines()
        if len(rows) != 1 + self.grid_points ** 2 * len(self.n_grid):
            failures.append(f"phase-diagram wrote {len(rows)} lines")
        return failures

    def _motif_decision(self, seed):
        path = self.motif_inputs[seed % self.pass_jobs]
        if path not in self._motif_decisions:
            with open(path, encoding="utf-8") as fh:
                host, _ = parse_hypergraph_text(fh.read())
            with open(self.motif_file, encoding="utf-8") as fh:
                motif = balanced.motif_from_json_dict(json.load(fh))
            result = stats.threshold_test(host, self.motif_params, motif)
            self._motif_decisions[path] = result.decision
        return self._motif_decisions[path]

    @staticmethod
    def _certify(point, cert):
        """certify_motif recomputes the certificate; it must match and lie in range."""
        a, b, g, _ = point
        m = balanced.motif_from_json_dict(cert)
        ratio = Fraction(*cert["ratio"])
        return (m.ratio == ratio and m.aut_count == cert["autCount"]
                and m.certificate.max_sub_density == Fraction(*cert["maxSubDensity"])
                and 1 / Fraction(str(b)) < ratio < Fraction(str(g)) / Fraction(str(a)))

    def finish(self):
        return []

    def fingerprint(self, output):
        parts = []
        for path in sorted(argv[-1] for argv in output["argvs"]):  # each --out file
            with open(path, "rb") as fh:
                parts.append(os.path.basename(path).encode() + b"\0" + fh.read())
        return b"\0".join(parts)

    def io_bytes(self, output):
        bytes_in = bytes_out = 0
        for argv in output["argvs"]:
            for flag in ("--input", "--motif-file"):
                if flag in argv:
                    bytes_in += os.path.getsize(argv[argv.index(flag) + 1])
            bytes_out += os.path.getsize(argv[argv.index("--out") + 1])
        return bytes_in, bytes_out


WORKLOADS = {"mc_edge": McEdge, "mc_local": McLocal, "cli_oneshot": CliOneshot}
