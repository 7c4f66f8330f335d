import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from denselab import hypergraph, models
from denselab.errors import (
    BudgetExceededError,
    InfeasibleError,
    InvalidArgumentError,
)
from denselab.hypergraph import (
    TABLE_BUDGET_VERTICES,
    within_ranks,
    write_hypergraph_text,
)
from denselab.models import (
    ProblemParams,
    RationalParams,
    _distinct_positions,
    _inner_product_moments,
    _planted_counts,
    aux_edge_probabilities,
    aux_ldlr_upper_bound,
    derive_params,
    edge_count,
    exact_spike,
    sample_aux,
    sample_null,
    sample_planted,
    validate_aux_feasible,
    within_z_edge_draws,
)
from denselab.rng import child_rng
from oracles import (
    aux_ldlr_bound_estimate,
    complete,
    enumerate_planted_exact,
    rank_edge,
    unordered_exponent_params,
)


def test_derive_params_example():
    pp = derive_params(16, 2, 0.25, 0.5, 0.5)
    assert pp.p == pytest.approx(0.5)
    assert pp.q == pytest.approx(0.25)
    assert pp.rho == pytest.approx(0.25)
    assert pp.M == 120
    assert pp.sigma == pytest.approx(math.sqrt(0.25 * 0.75))


def test_param_constraints():
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.5, 0.5, 0.5)  # alpha < beta violated
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.3, 1.2, 0.5)  # beta < r - 1 violated
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.3, 0.5, 1.5)
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 1, 0.3, 0.5, 0.5)


def test_constructor_from_densities():
    pp = ProblemParams(4, 2, 0.5, 0.25, 0.25)
    assert pp.alpha is None and pp.M == 6
    eq = ProblemParams(4, 2, 0.25, 0.25, 0.25)
    assert eq.p == eq.q  # p = q allowed here, not in the exponent form


def test_null_sampler_determinism_and_rate():
    pp = derive_params(16, 2, 0.25, 0.5, 0.5)
    a = sample_null(pp, 5)
    b = sample_null(pp, 5)
    assert a == b
    assert sample_null(pp, 6) != a
    # empirical edge rate within 5 sigma of q
    counts = [sample_null(pp, 0, key=(t,)).edge_count for t in range(400)]
    mean = np.mean(counts)
    se = math.sqrt(pp.M * pp.q * (1 - pp.q) / 400)
    assert abs(mean - pp.M * pp.q) < 5 * se


def test_planted_sampler_monotone_coupling():
    """Planted draws are hypergraphs on the params' vertex set, with Z among
    its vertices."""
    pp = derive_params(12, 2, 0.25, 0.5, 0.7)
    for t in range(20):
        s = sample_planted(pp, 9, key=(t,))
        assert (s.Y.n, s.Y.r) == (pp.n, pp.r)
        assert s.Z <= set(range(1, pp.n + 1))


def test_planted_rate_inside_z():
    pp = derive_params(10, 2, 0.2, 0.6, 0.9)
    hits = tot = 0
    for t in range(600):
        s = sample_planted(pp, 3, key=(t,))
        present = set(s.Y.ranks.tolist())
        zs = sorted(s.Z)
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                tot += 1
                hits += rank_edge((zs[i], zs[j]), pp.n, pp.r) in present
    assert tot > 1000
    se = math.sqrt(pp.p * (1 - pp.p) / tot)
    assert abs(hits / tot - pp.p) < 5 * se


# First 16 hex digits of sha256 over the sampled bits (seed 7, planted key
# (1, 0), null key (0, 0)) and over the planted sample's text form. They pin
# the RNG stream of a key: the n membership uniforms, then a Binomial count
# of the present within-Z ranks, then a Binomial count of the other present
# ranks, then the positions of the first among the within-Z ranks and of the
# second among the others. Positions are uniform integers, deduplicated,
# with a uniformly chosen excess dropped.
GOLDEN_SAMPLES = [
    ((600, 2, 0.3, 0.5, 0.75), "68754d05b1e5518e", "15e39c69ed841b49", "d7b6ddf51008d716"),
    ((300, 2, 0.3, 0.5, 0.75), "f16a8b74cc4b47bf", "dc016483eeac546e", "a1372bc4895e6f7f"),
    ((60, 3, 0.3, 0.9, 0.75), "515d64541ddf99d2", "7d135ce4cd572655", "157b8d29ff44cd01"),
    ((24, 4, 0.5, 2.5, 0.8), "662d5d5911324aa9", "58f798af85bf75eb", "37a232b3bd23413e"),
]


@pytest.mark.parametrize("args,planted,null,text", GOLDEN_SAMPLES)
def test_sampled_bits_golden(args, planted, null, text):
    def digest(data):
        return hashlib.sha256(data).hexdigest()[:16]

    def bits(hg):
        out = np.zeros(pp.M, dtype=bool)
        out[hg.ranks] = True
        return out.tobytes()

    pp = derive_params(*args)
    sample = sample_planted(pp, 7, key=(1, 0))
    assert digest(bits(sample.Y)) == planted
    assert digest(bits(sample_null(pp, 7, key=(0, 0)))) == null
    assert digest(write_hypergraph_text(sample.Y).encode()) == text


def dense_planted_reference(params, seed, key=()):
    """The dense coupled sampler the sparse one replaced, kept as a
    distributional reference: after the n membership uniforms, one uniform u
    per edge rank in rank order, the edge present when u < p within Z and
    u < q elsewhere. Returns Z and the ascending present ranks."""
    rng = child_rng(seed, *key)
    Z = frozenset(int(i) + 1 for i in np.flatnonzero(rng.random(params.n) < params.rho))
    within = within_ranks(Z, params.n, params.r)
    u = rng.random(params.M)
    present = u < params.q
    present[within] = u[within] < params.p
    return Z, np.flatnonzero(present)


def chi_square_exceeds(observed, expected, z=4.0):
    """Whether Pearson's chi-square of the observed counts against the
    expected ones passes the chi-square(df) quantile at normal score z
    (Wilson-Hilferty). Cells expected below 5, and observed cells not in
    `expected`, are pooled into one."""
    pooled_obs = pooled_exp = 0.0
    stat, cells = 0.0, 0
    for key, e in expected.items():
        if e < 5:
            pooled_obs += observed.get(key, 0)
            pooled_exp += e
        else:
            stat += (observed.get(key, 0) - e) ** 2 / e
            cells += 1
    pooled_obs += sum(c for key, c in observed.items() if key not in expected)
    if pooled_exp > 0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        cells += 1
    else:
        assert pooled_obs == 0
    df = cells - 1
    c = 2.0 / (9.0 * df)
    return stat > df * (1.0 - c + z * math.sqrt(c)) ** 3


def test_planted_joint_law_matches_exact_enumeration():
    # every one of the 2^4 * 2^6 (Z, edge set) outcomes expects at least 10 draws
    pp = ProblemParams(4, 2, 0.5, 0.4, 0.5)
    trials = 40_000
    observed = Counter()
    for t in range(trials):
        s = sample_planted(pp, 13, key=(t,))
        bits = np.zeros(pp.M, dtype=int)
        bits[s.Y.ranks] = 1
        observed[s.Z, tuple(bits.tolist())] += 1
    dist = enumerate_planted_exact(pp.exact())
    expected = {(Z, bits): trials * float(pr) for Z, bits, pr in dist.outcomes}
    assert min(expected.values()) >= 10
    assert not chi_square_exceeds(observed, expected)


@pytest.mark.parametrize("n, r, q", [
    (1200, 2, 2e-5),  # M = 719,400 ranks and ~14 edges: a one-edge miss shows
    (10, 2, 0.45),
    (10, 2, 0.7),  # more than M / 2 edges: the absent ranks are drawn instead
    (9, 3, 0.4),
])
def test_null_edge_count_matches_binomial(n, r, q):
    pp = ProblemParams(n, r, 0.9, q, 0.5)
    trials = 4000
    observed = Counter(sample_null(pp, 17, key=(t,)).edge_count for t in range(trials))
    log_q, log_1q = math.log(q), math.log1p(-q)

    def pmf(k):
        log_c = math.lgamma(pp.M + 1) - math.lgamma(k + 1) - math.lgamma(pp.M - k + 1)
        return math.exp(log_c + k * log_q + (pp.M - k) * log_1q)

    expected = {k: trials * pmf(k) for k in range(min(pp.M, 200) + 1)}
    assert not chi_square_exceeds(observed, expected)


@pytest.mark.parametrize("args", [(60, 2, 0.3, 0.5, 0.75), (20, 3, 0.3, 0.9, 0.75)])
def test_planted_moments_match_dense_reference(args):
    """Means and variances of the edge count and of the within-Z edge count
    agree with the dense reference sampler within 4 SE."""
    pp = derive_params(*args)
    trials = 2000

    def counts(Z, ranks):
        within = within_ranks(Z, pp.n, pp.r)
        return len(ranks), int(np.isin(ranks, within).sum())

    sparse = np.array([counts(s.Z, s.Y.ranks) for s in
                       (sample_planted(pp, 21, key=(t,)) for t in range(trials))], dtype=float)
    dense = np.array([counts(*dense_planted_reference(pp, 22, key=(t,)))
                      for t in range(trials)], dtype=float)
    for col in range(2):
        a, b = sparse[:, col], dense[:, col]
        mean_se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) < 4 * mean_se
        var_se = math.sqrt(sum(
            (((x - x.mean()) ** 4).mean() - x.var() ** 2) / trials for x in (a, b)))
        assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4 * var_se


def test_null_sampler_at_tiny_q_draws_nothing():
    pp = ProblemParams(2 ** 20, 3, 0.5, 1e-300, 1e-3)  # M ~ 1.9e17
    assert sample_null(pp, 1).edge_count == 0


@pytest.mark.parametrize(
    "pp, branch",
    [
        (derive_params(2048, 2, 0.3, 0.5, 0.75), None),  # mc_edge's two sets
        (derive_params(160, 3, 0.3, 0.9, 0.75), None),
        (derive_params(12, 4, 0.5, 1.5, 0.6), None),
        (derive_params(10, 3, 0.2, 1.5, 0.5), "z-below-r"),
        (derive_params(30, 2, 0.02, 0.03, 0.9), "complement"),
    ],
    ids=["mc-edge-r2", "mc-edge-r3", "r4", "z-below-r", "p-near-1"],
)
def test_edge_count_is_the_sampled_count(pp, branch):
    seen = set()
    for t in range(40):
        key = (t % 2, t)
        assert edge_count(pp, 11, key) == sample_null(pp, 11, key).edge_count
        s = sample_planted(pp, 11, key)
        assert edge_count(pp, 11, key, planted=True) == s.Y.edge_count
        within = within_ranks(s.Z, pp.n, pp.r)
        if len(s.Z) < pp.r:
            seen.add("z-below-r")
        if 2 * np.isin(within, s.Y.ranks).sum() > within.size:
            seen.add("complement")  # _distinct_positions drew the absent positions
    assert branch is None or branch in seen


def test_edge_count_raises_the_samplers_budget_error():
    for (n, r), message in (
        ((TABLE_BUDGET_VERTICES + 1, 2),
         "n=1048577 exceeds the 1048576-vertex budget of the rank table"),
        ((2_000_000, 1_000_000),
         "C(2000000, 1000000) ~ 10^602056.7 edges do not fit in int64 ranks (limit 2^63)"),
    ):
        pp = derive_params(n, r, 0.3, 0.5, 0.75)
        for planted, sampler in ((False, sample_null), (True, sample_planted)):
            with pytest.raises(BudgetExceededError) as expected:
                sampler(pp, 1)
            with pytest.raises(BudgetExceededError) as raised:
                edge_count(pp, 1, planted=planted)
            assert str(raised.value) == str(expected.value) == message


def test_edge_count_draws_no_positions_and_builds_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("edge_count drew positions or built the rank table")

    for args in ((2048, 2, 0.3, 0.5, 0.75), (160, 3, 0.3, 0.9, 0.75)):  # mc_edge's two sets
        pp = derive_params(*args)
        keys = [(model, t) for model in (0, 1) for t in range(10)]
        want = [sample_planted(pp, 11, key).Y.edge_count if key[0] else
                sample_null(pp, 11, key).edge_count for key in keys]
        with monkeypatch.context() as m:
            m.setattr(hypergraph, "binomial_table", refuse)
            m.setattr(models, "_distinct_positions", refuse)
            assert [edge_count(pp, 11, key, planted=bool(key[0])) for key in keys] == want


def test_outside_positions_map_to_the_ranks_outside_z():
    # the stream re-read up to the outside positions; the outside ranks of the
    # draw are those positions taken in the ascending ranks that are not within Z
    seen = set()
    for n, r, p, q, rho in ((12, 2, 0.5, 0.3, 0.5), (10, 3, 0.6, 0.2, 0.3),
                            (9, 4, 0.5, 0.6, 0.5), (8, 3, 0.5, 0.2, 1 - 1e-9),
                            (12, 3, 0.4, 0.7, 0.2)):
        pp = ProblemParams(n, r, p, q, rho)
        for t in range(200):
            rng = child_rng(5, t)
            z, m_in, c_in, c_out = _planted_counts(rng, pp)
            _distinct_positions(rng, c_in, m_in)
            positions = _distinct_positions(rng, c_out, pp.M - m_in)
            s = sample_planted(pp, 5, (t,))
            within = within_ranks(s.Z, n, r)
            assert np.array_equal(np.setdiff1d(s.Y.ranks, within),
                                  np.setdiff1d(np.arange(pp.M), within)[positions])
            seen.add("z-below-r" if len(s.Z) < r else "z-all" if len(s.Z) == n else "other")
            if 2 * c_out > pp.M - m_in:
                seen.add("complement")  # the absent positions were drawn
    assert seen == {"z-below-r", "z-all", "other", "complement"}


@pytest.mark.parametrize("n, r, p, rho", [(4, 2, 0.5, 0.5), (5, 3, 0.5, 0.6)])
def test_within_z_edge_draws_joint_law_matches_exact(n, r, p, rho):
    # the exact law of (|Z|, edges within Z over the labels 1..|Z|): |Z| is
    # Binomial(n, rho) and, given it, each r-subset is present w.p. p
    trials = 40_000
    draws = within_z_edge_draws(ProblemParams(n, r, p, 0.1, rho), 13, trials)
    observed = Counter((k, tuple(map(tuple, e.tolist()))) for k, e in draws)
    expected = {}
    for k in range(n + 1):
        p_k = math.comb(n, k) * rho ** k * (1 - rho) ** (n - k)
        subsets = list(itertools.combinations(range(1, k + 1), r))
        for bits in itertools.product((0, 1), repeat=len(subsets)):
            edges = tuple(e for e, b in zip(subsets, bits) if b)
            pr = p_k * p ** len(edges) * (1 - p) ** (len(subsets) - len(edges))
            expected[k, edges] = trials * pr
    assert not chi_square_exceeds(observed, expected)


@pytest.mark.parametrize("params, at_least", [
    (derive_params(200, 2, 0.59, 0.8, 0.24), 2),  # the mc_local point
    (ProblemParams(100, 2, 0.3, 0.01, 0.1), 3),
    (ProblemParams(6, 3, 0.5, 0.3, 0.3), 1),  # |Z| < r is common
])
def test_within_z_edge_draws_draw_positions_only_for_kept_entries(monkeypatch, params, at_least):
    real, depth, calls = models._distinct_positions, [0], [0]

    def counting(rng, k, m):  # counts outermost calls; the complement recurses
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(rng, k, m)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(models, "_distinct_positions", counting)
    draws = within_z_edge_draws(params, 7, 300, at_least)
    kept = [e for _, e in draws if e is not None]
    assert calls[0] == len(kept)
    assert 0 < len(kept) < len(draws)
    assert all(len(e) >= at_least for e in kept)


def test_within_z_edge_draws_are_seeded_and_guard_int64():
    pp = ProblemParams(2 ** 21, 2, 0.5, 0.1, 1e-5)  # past the rank-table budget
    assert pp.n > TABLE_BUDGET_VERTICES
    first, second, other = (within_z_edge_draws(pp, seed, 50) for seed in (3, 3, 4))
    assert [k for k, _ in first] == [k for k, _ in second] != [k for k, _ in other]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(first, second))
    with pytest.raises(BudgetExceededError):  # |Z| ~ 9e6: C(|Z|, 3) ~ 1.2e20
        within_z_edge_draws(ProblemParams(10 ** 7, 3, 0.5, 0.1, 0.9), 3, 2)
    with pytest.raises(BudgetExceededError):
        within_z_edge_draws(ProblemParams(2 ** 63, 2, 0.5, 0.1, 1e-9), 3, 2)


def test_empty_draws_share_no_array():
    # from_ranks makes its argument read-only without copying
    pp = ProblemParams(10, 2, 0.5, 1e-300, 0.5)
    first, second, third = (sample_null(pp, 1, (t,)) for t in range(3))
    assert first.edge_count == second.edge_count == third.edge_count == 0
    assert second.ranks is not third.ranks
    assert _distinct_positions(child_rng(1), 0, pp.M).flags.writeable


@pytest.mark.parametrize("r", [2, 3, 4])
def test_density_near_one_gives_every_edge(r):
    pp = ProblemParams(8, r, 1 - 1e-12, 1 - 1e-12, 0.5)
    full = complete(8, r)
    for t in range(10):
        assert sample_null(pp, 3, key=(t,)) == full
        assert sample_planted(pp, 3, key=(t,)).Y == full


def test_exact_enumeration_mass_and_marginals():
    rp = RationalParams(3, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    dist = enumerate_planted_exact(rp)
    assert dist.total_mass() == 1
    # edge {1,2} marginal: q + rho^2 (p - q)
    expected = rp.q + rp.rho ** 2 * (rp.p - rp.q)
    assert dist.edge_marginal(0) == expected


def test_exact_enumeration_budget():
    rp = RationalParams(8, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    with pytest.raises(BudgetExceededError):
        enumerate_planted_exact(rp)


def test_aux_spike_makes_planted_pair_probability_p():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    lam = exact_spike(pp)
    both_in, mixed, both_out = aux_edge_probabilities(pp, lam)
    assert both_in == pytest.approx(pp.p, rel=1e-12)
    assert 0 <= mixed <= 1 and 0 <= both_out <= 1


def test_aux_feasibility_errors():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    with pytest.raises(InfeasibleError) as exc:
        validate_aux_feasible(pp, 100.0)
    assert "probability" in str(exc.value)
    pp3 = derive_params(20, 3, 0.25, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        validate_aux_feasible(pp3, 0.1)


def test_aux_sampler_deterministic():
    pp = derive_params(30, 2, 0.25, 0.5, 0.5)
    assert sample_aux(pp, 11) == sample_aux(pp, 11)
    assert sample_aux(pp, 11) != sample_aux(pp, 12)


def test_aux_pair_rates_match_the_spiked_probabilities():
    # planted-planted, mixed and unplanted pairs each appear at their own rate
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    i, j = np.triu_indices(pp.n, k=1)  # the pairs in rank order
    present, total = np.zeros(3), np.zeros(3)
    for t in range(2000):
        sample = sample_aux(pp, 8, key=(t,))
        z = np.isin(np.arange(pp.n), [v - 1 for v in sample.Z])
        kind = 2 - z[i].astype(int) - z[j]  # 0 planted-planted, 1 mixed, 2 unplanted
        total += np.bincount(kind, minlength=3)
        present += np.bincount(kind[sample.Y.ranks], minlength=3)
    for hits, pairs, prob in zip(present, total, aux_edge_probabilities(pp, exact_spike(pp))):
        assert abs(hits / pairs - prob) <= 4 * math.sqrt(prob * (1 - prob) / pairs)


def test_aux_bound_degree_zero_is_one():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    res = aux_ldlr_upper_bound(pp, 0)
    assert res.value == 1.0
    assert len(res.terms) == 1


def test_aux_bound_terms_positive_and_reproducible():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    r1 = aux_ldlr_upper_bound(pp, 2)
    r2 = aux_ldlr_upper_bound(pp, 2)
    assert r1 == r2
    assert all(t > 0 for t in r1.terms)


def test_inner_product_series_gives_second_and_fourth_moments():
    # E[X] = 0 and E[X^2] = 1, so E<u,v>^2 = n and E<u,v>^4 = n E[X^4] + 3n(n - 1)
    rho = Fraction(1, 10)
    x4 = (rho ** 2 * ((1 - rho) / rho) ** 4 + 2 * rho * (1 - rho)
          + (1 - rho) ** 2 * (rho / (1 - rho)) ** 4)
    for n in (1, 7, 100, 10 ** 6):
        moments = _inner_product_moments(rho, n, 4)
        assert moments[:3] == [1, 0, n]
        assert moments[4] == n * x4 + 3 * n * (n - 1)


def test_inner_product_series_matches_enumeration():
    # every (z, w) in {0, 1}^(2n): <u,v> sums a^2, ab or b^2 per coordinate
    rho, n = Fraction(3, 8), 3
    values = {(1, 1): (1 - rho) / rho, (1, 0): Fraction(-1), (0, 1): Fraction(-1),
              (0, 0): rho / (1 - rho)}
    want = [Fraction(0)] * 7
    for zw in itertools.product(values, repeat=n):
        prob = math.prod(rho if b else 1 - rho for pair in zw for b in pair)
        dot = sum(values[pair] for pair in zw)
        for k in range(7):
            want[k] += prob * dot ** k
    assert _inner_product_moments(rho, n, 6) == want


@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_aux_bound_within_4_se_of_sampling_oracle(n):
    pp = unordered_exponent_params(n, 2, 1.5, 0.6, 0.75)
    exact = aux_ldlr_upper_bound(pp, 2)
    est = aux_ldlr_bound_estimate(pp, 2, 40000, 7)
    assert abs(exact.value - est.value) <= 4 * est.std_error
    for term, (mean, se) in zip(exact.terms, est.terms):
        assert abs(term - mean) <= 4 * se


def test_aux_bound_rejects_negative_degree_and_r_3():
    with pytest.raises(InvalidArgumentError):
        aux_ldlr_upper_bound(derive_params(100, 2, 0.25, 0.5, 0.5), -1)
    with pytest.raises(InvalidArgumentError):
        aux_ldlr_upper_bound(derive_params(20, 3, 0.25, 0.5, 0.5), 2)


def test_aux_draw_shares_the_planted_z():
    pp = derive_params(30, 2, 0.25, 0.5, 0.5)
    for t in range(200):
        assert sample_aux(pp, 3, key=(t,)).Z == sample_planted(pp, 3, key=(t,)).Z


def test_aux_draw_past_two_to_the_25_pairs():
    # C(8193, 2) > 2^25 pairs, too many to draw one uniform each
    pp = derive_params(8193, 2, 0.3, 0.5, 0.75)
    sample = sample_aux(pp, 1)
    assert sample.Z == sample_planted(pp, 1).Z
    assert sample.Y.n == pp.n and sample.Y.ranks.size > 0


def test_aux_pair_rates_when_p_is_below_q():
    # p < q makes the mixed rate exceed the unplanted one, so unplanted pairs are thinned too
    pp = unordered_exponent_params(100, 2, 1.5, 0.6, 0.75)
    i, j = np.triu_indices(pp.n, k=1)
    present, total = np.zeros(3), np.zeros(3)
    for t in range(2000):
        sample = sample_aux(pp, 8, key=(t,))
        z = np.isin(np.arange(pp.n), [v - 1 for v in sample.Z])
        kind = 2 - z[i].astype(int) - z[j]  # 0 planted-planted, 1 mixed, 2 unplanted
        total += np.bincount(kind, minlength=3)
        present += np.bincount(kind[sample.Y.ranks], minlength=3)
    probs = aux_edge_probabilities(pp, exact_spike(pp))
    assert probs[1] > probs[2]
    for hits, pairs, prob in zip(present, total, probs):
        assert abs(hits / pairs - prob) <= 4 * math.sqrt(prob * (1 - prob) / pairs)
