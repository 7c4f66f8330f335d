"""Detection statistics, moment formulas, threshold tests, and separation runs.

Two statistics are implemented: the signed hyperedge count (sum of
standardized edge indicators) and the unsigned balanced-motif count. Both come
with analytic moments under the null and bounds under the planted model, a
midpoint threshold test, and a Monte Carlo separation estimator.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from math import comb, factorial
from typing import List, Tuple, Union

import numpy as np

from . import jsonout
from .balanced import BalancedMotif
from .errors import InvalidArgumentError
from .hypergraph import Hypergraph, count_embeddings
from .models import (
    ProblemParams,
    check_exponent_domain,
    edge_count,
    sample_null,
    sample_planted,
)

StatisticSpec = Union[str, BalancedMotif]  # "edge" or a motif

REGIME_TOLERANCE = 1e-12
BATCH_COUNT = 20


def _check_shape(Y: Hypergraph, params: ProblemParams) -> None:
    if Y.n != params.n or Y.r != params.r:
        raise InvalidArgumentError(
            f"hypergraph shape (n={Y.n}, r={Y.r}) does not match params "
            f"(n={params.n}, r={params.r})"
        )


def _standardized_count(count: int, params: ProblemParams) -> float:
    return (count - params.M * params.q) / params.sigma


def signed_edge_count(Y: Hypergraph, params: ProblemParams) -> float:
    """T-tilde = sum_e (Y_e - q)/sigma, computed as (#present - Mq)/sigma."""
    _check_shape(Y, params)
    return _standardized_count(Y.edge_count, params)


@dataclass(frozen=True)
class EdgeStatMoments:
    eq: float
    var_q: float
    ep: float
    var_p_bound: float


def exact_moments_edge_stat(params: ProblemParams) -> EdgeStatMoments:
    n, r = params.n, params.r
    p, q, rho, sigma, M = params.p, params.q, params.rho, params.sigma, params.M
    ep = M * rho ** r * (p - q) / sigma
    var_p = (
        M
        + 2.0 * M * rho ** r * p / sigma ** 2
        + 2.0 * M * r * float(n) ** (r - 1) * rho ** (2 * r - 1) * p ** 2 / sigma ** 2
    )
    return EdgeStatMoments(eq=0.0, var_q=float(M), ep=ep, var_p_bound=var_p)


# --- motif counting ----------------------------------------------------------


def count_motif(hg: Hypergraph, motif: BalancedMotif) -> int:
    """Edge subsets of hg whose edge-induced subhypergraph is a copy of the motif."""
    return count_embeddings(motif.motif, hg) // motif.aut_count


def compute_N(motif: BalancedMotif, n: int) -> int:
    """Copies of the motif in the complete r-uniform hypergraph on n vertices."""
    if n < motif.ell:
        raise InvalidArgumentError(f"n={n} < motif size {motif.ell}")
    return comb(n, motif.ell) * factorial(motif.ell) // motif.aut_count


@dataclass(frozen=True)
class MotifStatMoments:
    eq: float
    lambda_lb: float
    var_q_bound: float
    var_p_bound: float
    N: int


def exact_moments_motif_stat(params: ProblemParams, motif: BalancedMotif) -> MotifStatMoments:
    """E_Q exactly, the planted-mean lower bound lambda, and log-space variance bounds."""
    n, r = params.n, params.r
    if r != motif.motif.r:
        raise InvalidArgumentError("rank mismatch between params and motif")
    ell, m = motif.ell, motif.m
    N = compute_N(motif, n)
    log_n, log_N = math.log(n), math.log(N)
    log_p, log_q = math.log(params.p), math.log(params.q)
    log_rho = math.log(params.rho)
    eq = math.exp(log_N + m * log_q)
    lam = math.exp(log_N + ell * log_rho + m * log_p)
    var_q_a = (
        2.0 * math.log(m)
        + log_N
        + ell * (1.0 - 1.0 / m) * log_n
        + r * (m - 1) * math.log(ell)
        + (2 * m - 1) * log_q
    )
    var_q_b = (m + 1) * math.log(m) + log_N + m * log_q
    var_q = math.exp(max(var_q_a, var_q_b))
    var_p = math.exp(
        ell * math.log(8.0)
        + log_N
        + (ell - 1) * log_n
        + (1 + r * m) * math.log(ell)
        + (2 * ell - 1) * log_rho
        + (2 * m - m / ell) * log_p
    )
    return MotifStatMoments(eq=eq, lambda_lb=lam, var_q_bound=var_q, var_p_bound=var_p, N=N)


# --- threshold test and separation -------------------------------------------


@dataclass(frozen=True)
class TestResult:
    decision: str  # "null" | "planted"
    statistic: float
    threshold: float


def _statistic_value(Y: Hypergraph, params: ProblemParams, statistic: StatisticSpec) -> float:
    _check_shape(Y, params)
    if statistic == "edge":
        return signed_edge_count(Y, params)
    if isinstance(statistic, BalancedMotif):
        return float(count_motif(Y, statistic))
    raise InvalidArgumentError(f"unknown statistic {statistic!r}")


def _threshold(params: ProblemParams, statistic: StatisticSpec) -> float:
    if statistic == "edge":
        mom = exact_moments_edge_stat(params)
        return 0.5 * (mom.eq + mom.ep)
    if isinstance(statistic, BalancedMotif):
        mm = exact_moments_motif_stat(params, statistic)
        return 0.5 * (mm.eq + mm.lambda_lb)
    raise InvalidArgumentError(f"unknown statistic {statistic!r}")


def threshold_test(
    Y: Hypergraph,
    params: ProblemParams,
    statistic: StatisticSpec = "edge",
) -> TestResult:
    """Midpoint-threshold decision: planted iff the statistic exceeds the midpoint."""
    value = _statistic_value(Y, params, statistic)
    thr = _threshold(params, statistic)
    return TestResult(
        decision="planted" if value > thr else "null",
        statistic=value,
        threshold=thr,
    )


@dataclass(frozen=True)
class TrialRow:
    trial: int
    model: str  # "null" | "planted"
    statistic: float
    decision: str


@dataclass(frozen=True)
class SeparationReport:
    mean_null: float
    mean_null_se: float
    mean_planted: float
    mean_planted_se: float
    var_null: float
    var_null_se: float
    var_planted: float
    var_planted_se: float
    separation: float
    trials: int
    threshold: float
    type1_error: float
    type2_error: float
    rows: Tuple[TrialRow, ...]

    @property
    def separation_se(self) -> float:
        """Delta-method standard error of `separation` = |mean_planted -
        mean_null| / sqrt(v), v the larger variance: the mean difference has SE
        hypot(mean_null_se, mean_planted_se) and v its batch-means SE."""
        v, v_se = max((self.var_null, self.var_null_se), (self.var_planted, self.var_planted_se))
        if v == 0:
            return 0.0
        diff_se = math.hypot(self.mean_null_se, self.mean_planted_se)
        return math.sqrt(diff_se ** 2 / v + (self.separation * v_se / (2 * v)) ** 2)

    def to_json_dict(self) -> dict:
        return {
            "meanNull": self.mean_null,
            "meanNullSE": self.mean_null_se,
            "meanPlanted": self.mean_planted,
            "meanPlantedSE": self.mean_planted_se,
            "varNull": self.var_null,
            "varNullSE": self.var_null_se,
            "varPlanted": self.var_planted,
            "varPlantedSE": self.var_planted_se,
            "separation": self.separation,
            "trials": self.trials,
            "threshold": self.threshold,
            "type1Error": self.type1_error,
            "type2Error": self.type2_error,
        }

    def to_json(self) -> str:
        return jsonout.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial", "model", "statistic", "decision"])
        for row in self.rows:
            writer.writerow([row.trial, row.model, repr(row.statistic), row.decision])
        return buf.getvalue()


def _trial_values(args) -> List[float]:
    """Statistic values of the trials keyed (model-id, trial), 0 for null and
    1 for planted. The key names each trial's stream, so no value depends on
    how the trials are split among workers."""
    params, statistic, seed, keys = args
    if statistic == "edge":  # the statistic reads only the draw's edge count
        return [_standardized_count(edge_count(params, seed, k, k[0] == 1), params) for k in keys]
    draws = (sample_planted(params, seed, key=k).Y if k[0] else sample_null(params, seed, key=k)
             for k in keys)
    return [_statistic_value(Y, params, statistic) for Y in draws]


def _batch_variance_se(values: np.ndarray) -> Tuple[float, float]:
    """Sample variance plus a batch-means standard error (up to 20 batches)."""
    n = values.shape[0]
    var = float(values.var(ddof=1)) if n > 1 else 0.0
    b = min(BATCH_COUNT, n // 2)
    if b < 2:
        return var, 0.0
    batches = np.array_split(values, b)
    bvars = np.array([batch.var(ddof=1) for batch in batches])
    return var, float(bvars.std(ddof=1)) / math.sqrt(b)


def resolve_workers() -> int:
    env = os.environ.get("DENSELAB_WORKERS", "").strip()
    if env and not (env.isdecimal() and int(env) >= 1):
        raise InvalidArgumentError(f"DENSELAB_WORKERS={env!r} is not a positive integer")
    return int(env) if env else 1


def estimate_separation(
    params: ProblemParams,
    statistic: StatisticSpec,
    trials: int,
    seed: int,
) -> SeparationReport:
    """Monte Carlo separation report over `trials` draws from each model.

    Per-trial randomness is keyed by (seed, model, trial), so the report is a
    pure function of its arguments regardless of the worker count, which
    resolve_workers reads from DENSELAB_WORKERS.
    """
    if trials < 2:
        raise InvalidArgumentError("trials >= 2 required")
    nworkers = min(resolve_workers(), 2 * trials)
    keys = [(model, t) for model in (0, 1) for t in range(trials)]
    # interleaved chunks: a planted trial can cost O(n) where a null one is O(1)
    packed = [(params, statistic, seed, keys[i::nworkers]) for i in range(nworkers)]
    if nworkers == 1:
        outs = list(map(_trial_values, packed))
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import, so only here

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            outs = list(pool.map(_trial_values, packed))
    values = np.empty(len(keys))
    for i, out in enumerate(outs):
        values[i::nworkers] = out

    thr = _threshold(params, statistic)
    null_vals, plant_vals = values[:trials], values[trials:]
    var_n, var_n_se = _batch_variance_se(null_vals)
    var_p, var_p_se = _batch_variance_se(plant_vals)
    mean_n, mean_p = float(null_vals.mean()), float(plant_vals.mean())
    denom = math.sqrt(max(var_n, var_p))
    if denom > 0:
        sep = abs(mean_p - mean_n) / denom
    else:
        sep = 0.0 if mean_p == mean_n else math.inf
    rows = tuple(
        TrialRow(t, model, value, "planted" if value > thr else "null")
        for model, vals in (("null", null_vals), ("planted", plant_vals))
        for t, value in enumerate(vals.tolist())
    )
    return SeparationReport(
        mean_null=mean_n,
        mean_null_se=float(null_vals.std(ddof=1)) / math.sqrt(trials),
        mean_planted=mean_p,
        mean_planted_se=float(plant_vals.std(ddof=1)) / math.sqrt(trials),
        var_null=var_n,
        var_null_se=var_n_se,
        var_planted=var_p,
        var_planted_se=var_p_se,
        separation=sep,
        trials=trials,
        threshold=thr,
        type1_error=float(np.mean(null_vals > thr)),
        type2_error=float(np.mean(plant_vals <= thr)),
        rows=rows,
    )


def classify_regime(alpha: float, beta: float, gamma: float, r: int) -> str:
    """Easy/hard/boundary per the degree-O(1) detection threshold map."""
    check_exponent_domain(alpha, beta, gamma, r)
    if gamma >= 0.5:
        threshold = beta / 2.0 + r * (gamma - 0.5)
    else:
        threshold = beta * gamma
    if abs(alpha - threshold) <= REGIME_TOLERANCE:
        return "boundary"
    return "easy" if alpha < threshold else "hard"
