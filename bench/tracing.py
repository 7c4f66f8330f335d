"""Spans and per-function self times, recorded from outside the package.

The tracer wraps selected public functions of the denselab modules in every
module namespace that imported them (for example `models.rank_edge`,
`stats.sample_planted`, `balanced.is_balanced`) and selected methods on their
classes. Nothing under `src/` changes: wrappers are installed around a traced
pass and removed after it.

Each wrapped call is a frame on one stack. A call's self time is its duration
minus the time its wrapped children took, so the self times of every frame
under a job's root add up to that job's duration. Most functions record one
span (id, name, start, end, parent, job) per call; the hottest leaves record
aggregated counts and times only.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import comb
from time import perf_counter

MODULES = ("rng", "models", "hypergraph", "stats", "ldlr", "balanced", "cli")
ROOT = "bench.job"


def _sampled_bits(counts, args, result):
    counts["models.bits_drawn"] += args[0].M


def _planted_bits(counts, args, result):
    _sampled_bits(counts, args, result)
    counts["models.within_z_edges"] += comb(len(result.Z), args[0].r)


def _embeddings(counts, args, result):
    counts["stats.count_motif.embeddings"] += result * args[1].aut_count


def _event_true(counts, args, result):
    counts["ldlr.event_holds.true"] += bool(result)


def _ldlr_classes(counts, args, result):
    counts["ldlr.ldlr_norm_exact.classes"] += len(result.per_class)


# (qualified name, aggregate only, work-count hook). The qualified name is
# "<module>.<function>" or "<module>.<Class>.<method>".
TARGETS = (
    ("rng.child_rng", False, None),
    ("models.derive_params", False, None),
    ("models.sample_null", False, None),
    ("models.sample_null_tensor", False, _sampled_bits),
    ("models.sample_planted", False, _planted_bits),
    ("hypergraph.rank_edge", True, None),
    ("hypergraph.unrank_edge", True, None),
    ("hypergraph.count_subgraph_class", True, None),
    ("hypergraph.write_hypergraph_text", False, None),
    ("hypergraph.parse_hypergraph_text", False, None),
    ("hypergraph.Hypergraph.to_tensor", False, None),
    ("hypergraph.AdjacencyTensor.present_edges", False, None),
    ("hypergraph.AdjacencyTensor.to_hypergraph", False, None),
    ("stats.signed_edge_count", False, None),
    ("stats.count_motif", False, _embeddings),
    ("stats.exact_moments_edge_stat", False, None),
    ("stats.exact_moments_motif_stat", False, None),
    ("stats.threshold_test", False, None),
    ("stats.estimate_separation", False, None),
    ("stats.classify_regime", False, None),
    ("ldlr.ldlr_norm_exact", False, _ldlr_classes),
    ("ldlr.ldlr_norm_bruteforce", False, None),
    ("ldlr.build_conditioning_spec", False, None),
    ("ldlr.event_holds", False, _event_true),
    ("ldlr.estimate_event_probability", False, None),
    ("ldlr.conditional_ldlr_exact_tiny", False, None),
    ("balanced.find_balanced_motif", False, None),
    ("balanced.is_balanced", True, None),
    ("balanced.max_subgraph_density", True, None),
    ("balanced.automorphism_count", False, None),
    ("balanced.certify_motif", False, None),
    ("balanced.motif_from_json_dict", False, None),
    ("cli.main", False, None),
)

WORK_COUNTS = (
    ("models.bits_drawn", "count"),
    ("models.within_z_edges", "count"),
    ("stats.count_motif.embeddings", "count"),
    ("ldlr.event_holds.true_ratio", "ratio"),
    ("ldlr.ldlr_norm_exact.classes", "count"),
    ("cli.bytes_out", "bytes"),
    ("cli.bytes_in", "bytes"),
)

TRACE_SUMMARY = (
    ("trace_overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.self_sum_s", "s"),
)

# Layers with self time on every workload. ldlr, balanced and cli never run
# on mc_edge, and each function runs on only some workloads, so those self
# times would read exactly 0 s on every run of some workload. They are
# recorded in the run's details and trace file, not reported as metrics.
TIMED_LAYERS = ("rng", "models", "hypergraph", "stats", "bench")


def metric_units():
    """Every reported per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name, _, _ in TARGETS}
    units.update((f"{layer}.self_s", "s") for layer in TIMED_LAYERS)
    units.update(WORK_COUNTS)
    units.update(TRACE_SUMMARY)
    return units


class Tracer:
    """Records spans and self times while installed and inside a job."""

    def __init__(self, package):
        self._package = package
        self._namespaces = [package] + [
            getattr(package, name) for name in MODULES
        ]
        self._ids = itertools.count(1)
        self._stack = []
        self._job = None
        self._patches = []
        self._origin = perf_counter()
        self.spans = []
        self.stats = {name: [0, 0.0] for name, _, _ in TARGETS}
        self.stats[ROOT] = [0, 0.0]
        self.counts = {name: 0 for name, unit in WORK_COUNTS if unit != "ratio"}
        self.counts["ldlr.event_holds.true"] = 0
        self.counts["trace.hook_errors"] = 0

    def _wrap(self, name, fn, aggregate, hook):
        stack, spans, counts = self._stack, self.spans, self.counts
        stat = self.stats[name]
        ids = self._ids

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1] if aggregate else next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if not aggregate:
                    spans.append((frame[1], name, start, end, parent[1], self._job))
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, TypeError):  # the package changed a type the count reads
                    counts["trace.hook_errors"] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Replace every target in every namespace that holds it.

        A target the package no longer has is skipped and reports 0 calls.
        """
        for name, aggregate, hook in TARGETS:
            module, *path = name.split(".")
            owner = getattr(self._package, module)
            if len(path) == 2:
                owner = getattr(owner, path[0], None)
                original = vars(owner).get(path[1]) if owner is not None else None
                if original is not None:
                    self._patch(owner, path[1], self._wrap(name, original, aggregate, hook))
                continue
            original = getattr(owner, path[0], None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, aggregate, hook)
            for ns in self._namespaces:
                if vars(ns).get(path[0]) is original:
                    self._patch(ns, path[0], wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as job `job_id`, under a root span named bench.job."""
        root = [0.0, next(self._ids)]
        self._stack.append(root)
        self._job = job_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._job = None
            stat = self.stats[ROOT]
            stat[0] += 1
            stat[1] += end - start - root[0]
            self.spans.append((root[1], ROOT, start, end, None, job_id))

    def self_sum(self):
        return sum(self_s for _, self_s in self.stats.values())

    def metrics(self):
        """Per-function calls and self times, per-layer self totals, work counts."""
        out = {}
        layer_self = {layer: 0.0 for layer in MODULES + ("bench",)}
        for name, (calls, self_s) in self.stats.items():
            layer_self[name.split(".")[0]] += self_s
            if name != ROOT:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        for layer, self_s in layer_self.items():
            out[f"{layer}.self_s"] = self_s
        calls = self.stats["ldlr.event_holds"][0]
        for name, _ in WORK_COUNTS:
            if name == "ldlr.event_holds.true_ratio":
                true = self.counts["ldlr.event_holds.true"]
                out[name] = true / calls if calls else 0.0
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path):
        """Write every span (times relative to the tracer's creation) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start": start - self._origin, "end": end - self._origin,
                    "parent": parent, "job": job,
                }) + "\n")
            fh.write(json.dumps({"aggregate": self.stats, "counts": self.counts}) + "\n")
