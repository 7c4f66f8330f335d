import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from denselab.balanced import certify_motif
from denselab.errors import InvalidArgumentError
from denselab.hypergraph import Hypergraph, all_edges
from denselab.models import (
    ProblemParams,
    RationalParams,
    derive_params,
    sample_null,
    sample_planted,
)
from denselab.stats import (
    classify_regime,
    compute_N,
    count_motif,
    estimate_separation,
    exact_moments_edge_stat,
    exact_moments_motif_stat,
    signed_edge_count,
    threshold_test,
)
from oracles import (
    complete,
    count_motif_by_subsets,
    enumerate_planted_exact,
    standardized_edge_values,
)


def triangle_motif():
    return certify_motif(Hypergraph(3, 2, frozenset({(1, 2), (1, 3), (2, 3)})))


def path_motif():
    return certify_motif(Hypergraph(3, 2, frozenset({(1, 2), (2, 3)})))


def single_edge_motif():
    return certify_motif(Hypergraph(2, 2, frozenset({(1, 2)})))


def test_standardized_edge_values():
    pp = ProblemParams(4, 2, 0.5, 0.25, 0.25)
    hi, lo = standardized_edge_values(pp)
    assert hi == pytest.approx(0.75 / pp.sigma)
    assert lo == pytest.approx(-0.25 / pp.sigma)


def test_signed_edge_count_extremes():
    pp = ProblemParams(4, 2, 0.5, 0.25, 0.25)
    empty = Hypergraph(4, 2)
    full = complete(4, 2)
    assert signed_edge_count(empty, pp) == pytest.approx(-6 * math.sqrt(0.25 / 0.75))
    assert signed_edge_count(full, pp) == pytest.approx(6 * math.sqrt(0.75 / 0.25))


def test_signed_edge_count_matches_per_edge_sum():
    pp = derive_params(8, 2, 0.25, 0.5, 0.5)
    hi, lo = standardized_edge_values(pp)
    for t in range(10):
        Y = sample_null(pp, 21, key=(t,))
        present = set(Y.ranks.tolist())
        direct = sum(hi if i in present else lo for i in range(pp.M))
        assert signed_edge_count(Y, pp) == pytest.approx(direct, rel=1e-9)


def test_signed_edge_count_shape_check():
    pp = derive_params(8, 2, 0.25, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        signed_edge_count(Hypergraph(7, 2), pp)


def test_edge_moments_example():
    pp = derive_params(4, 2, 0.25, 0.5, 0.5)
    mom = exact_moments_edge_stat(pp)
    assert mom.eq == 0.0
    assert mom.var_q == 6.0
    assert mom.ep == pytest.approx(0.62132, abs=1e-4)
    assert mom.var_p_bound >= mom.var_q


def test_edge_moment_ep_against_exact_enumeration():
    pp = derive_params(4, 2, 0.25, 0.5, 0.5)
    rp = pp.exact()
    dist = enumerate_planted_exact(rp)
    total = Fraction(0)
    for _, bits, pr in dist.outcomes:
        total += pr * sum(Fraction(b) - rp.q for b in bits)
    assert float(total) / pp.sigma == pytest.approx(exact_moments_edge_stat(pp).ep, rel=1e-12)


def test_edge_moments_monte_carlo_null():
    pp = derive_params(10, 2, 0.25, 0.5, 0.5)
    vals = np.array(
        [signed_edge_count(sample_null(pp, 8, key=(t,)), pp) for t in range(4000)]
    )
    se_mean = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se_mean
    # variance should be near M = 45
    var = vals.var(ddof=1)
    assert abs(var - 45.0) < 0.2 * 45.0


def test_count_motif_examples():
    H = Hypergraph(4, 2, frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}))
    assert count_motif(H, triangle_motif()) == 1
    assert count_motif(H, path_motif()) == 5
    assert count_motif(H, single_edge_motif()) == 4


def test_count_motif_matches_subset_oracle():
    rng = np.random.default_rng(0)
    motifs = [triangle_motif(), path_motif(), single_edge_motif(),
              certify_motif(complete(4, 2))]
    universe = list(all_edges(6, 2))
    for _ in range(15):
        k = int(rng.integers(2, 10))
        idx = rng.choice(len(universe), size=k, replace=False)
        H = Hypergraph(6, 2, frozenset(universe[i] for i in idx))
        for motif in motifs:
            assert count_motif(H, motif) == count_motif_by_subsets(H, motif)


def test_count_motif_relabeling_invariant():
    H = Hypergraph(5, 2, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)}))
    motif = path_motif()
    base = count_motif(H, motif)
    for perm in itertools.permutations(range(1, 6)):
        mp = dict(zip(range(1, 6), perm))
        edges = frozenset(tuple(sorted((mp[a], mp[b]))) for a, b in H.sorted_edges())
        assert count_motif(Hypergraph(5, 2, edges), motif) == base


def test_compute_N_examples():
    assert compute_N(triangle_motif(), 5) == 10
    assert compute_N(single_edge_motif(), 5) == 10
    assert compute_N(path_motif(), 4) == 12


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_compute_N_equals_complete_count(n):
    for motif in (triangle_motif(), path_motif()):
        assert compute_N(motif, n) == count_motif(complete(n, 2), motif)


def test_motif_moments_relaxed_hook():
    pp = ProblemParams(10, 2, 0.6, 0.5, 0.3)
    mm = exact_moments_motif_stat(pp, triangle_motif())
    assert mm.eq == pytest.approx(120 * 0.125)
    assert mm.N == 120


def test_union_expectation_bound_exact():
    """E_P[indicator product] for a pair of motif copies never exceeds
    2^{2 ell} rho^{|V(S1 u S2)|} p^{|S1 u S2|}, checked exactly at n=4."""
    rp = RationalParams(4, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    dist = enumerate_planted_exact(rp)
    universe = list(all_edges(4, 2))
    # all copies of the 2-edge path in K_4
    copies = [
        s
        for s in itertools.combinations(universe, 2)
        if len({v for e in s for v in e}) == 3
    ]
    idx = {e: i for i, e in enumerate(universe)}
    for s1 in copies:
        for s2 in copies:
            union = set(s1) | set(s2)
            ell_u = len({v for e in union for v in e})
            want = sum(
                pr
                for _, bits, pr in dist.outcomes
                if all(bits[idx[e]] for e in union)
            )
            bound = Fraction(2) ** (2 * 3) * rp.rho ** ell_u * rp.p ** len(union)
            assert want <= bound


def test_threshold_test_trivial_cases():
    pp = derive_params(8, 2, 0.25, 0.5, 0.6)
    empty = Hypergraph(8, 2)
    assert threshold_test(empty, pp, "edge").decision == "null"
    full = complete(8, 2)
    assert threshold_test(full, pp, "edge").decision == "planted"


def test_estimate_separation_reproducible():
    pp = derive_params(16, 2, 0.25, 0.5, 0.6)
    a = estimate_separation(pp, "edge", 30, 5)
    b = estimate_separation(pp, "edge", 30, 5)
    assert a == b
    assert a.separation >= 0
    assert 0 <= a.type1_error <= 1 and 0 <= a.type2_error <= 1


def test_estimate_separation_worker_independence(monkeypatch):
    # the motif case sends the motif and host graphs through the pool, not only counts
    cases = ((derive_params(16, 2, 0.25, 0.5, 0.6), "edge", 24),
             (derive_params(16, 2, 0.25, 0.5, 0.5), triangle_motif(), 12))
    for pp, statistic, trials in cases:
        reports = []
        for workers in ("1", "3"):
            monkeypatch.setenv("DENSELAB_WORKERS", workers)
            reports.append(estimate_separation(pp, statistic, trials, 5))
        assert reports[0] == reports[1]
        assert any(row.statistic != 0 for row in reports[0].rows)


def test_separation_pool_is_capped_at_the_trial_keys(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    pp = derive_params(16, 2, 0.25, 0.5, 0.6)
    monkeypatch.setenv("DENSELAB_WORKERS", "1")
    serial = estimate_separation(pp, "edge", 2, 5)
    monkeypatch.setenv("DENSELAB_WORKERS", "8")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert estimate_separation(pp, "edge", 2, 5) == serial
    assert sizes == [4]  # 2 trials of each model: 4 keys


def test_separation_se_tracks_the_spread_of_separation():
    pp = derive_params(200, 2, 0.3, 0.5, 0.75)
    reports = [estimate_separation(pp, "edge", 40, seed) for seed in range(200)]
    spread = np.std([rep.separation for rep in reports], ddof=1)
    median_se = np.median([rep.separation_se for rep in reports])
    assert spread / 2 <= median_se <= 2 * spread


def test_serial_separation_leaves_the_process_pool_unimported():
    env = {k: v for k, v in os.environ.items() if k != "DENSELAB_WORKERS"}
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, denselab\n"
         "pp = denselab.derive_params(16, 2, 0.25, 0.5, 0.6)\n"
         "denselab.estimate_separation(pp, 'edge', 4, 5)\n"
         "assert 'concurrent.futures.process' not in sys.modules"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_separation_null_vs_null_via_hook():
    """With p forced equal to q the two models coincide."""
    pp = ProblemParams(12, 2, 0.3, 0.3, 0.4)
    rep = estimate_separation(pp, "edge", 200, 13)
    # means differ by noise only: within 5 combined standard errors
    tol = 5 * math.hypot(rep.mean_null_se, rep.mean_planted_se)
    assert abs(rep.mean_planted - rep.mean_null) < tol
    assert rep.separation < 0.5


def test_separation_requires_two_trials():
    pp = derive_params(8, 2, 0.25, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        estimate_separation(pp, "edge", 1, 0)


def test_separation_csv_schema():
    pp = derive_params(8, 2, 0.25, 0.5, 0.5)
    rep = estimate_separation(pp, "edge", 3, 0)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "trial,model,statistic,decision"
    assert len(lines) == 1 + 2 * 3


def test_classify_regime_examples():
    assert classify_regime(0.1, 0.5, 0.3, 2) == "easy"
    assert classify_regime(0.2, 0.5, 0.3, 2) == "hard"
    assert classify_regime(1.4, 1.5, 0.75, 3) == "easy"
    assert classify_regime(0.15, 0.5, 0.3, 2) == "boundary"
    assert classify_regime(0.45, 0.5, 0.6, 2) == "boundary"
    with pytest.raises(InvalidArgumentError):
        classify_regime(0.6, 0.5, 0.3, 2)
