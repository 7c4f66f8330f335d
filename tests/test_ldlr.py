import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from denselab import models
from denselab.errors import BudgetExceededError, InvalidArgumentError
from denselab.hypergraph import (
    Hypergraph,
    all_edges,
    class_table,
    count_isolated_free_edge_sets,
    count_subgraph_class,
    induced_vertices,
)
from denselab.ldlr import (
    CONDITIONAL_TINY_BUDGET_N,
    LdlrClassTerm,
    LdlrResult,
    _conditional_numerators,
    build_conditioning_spec,
    conditional_ldlr_exact_tiny,
    conditional_term_bound,
    estimate_event_probability,
    event_holds,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
    phi_expectation_planted_scaled,
)
from denselab.models import ProblemParams, derive_params, within_z_edge_draws
from oracles import (
    complete,
    conditional_numerators_exact_tiny,
    enumerate_planted_exact,
    fraction_conditional_numerators,
)
from test_acceptance import PARAM_GRID  # criterion 01's tiny grid


def tiny_params():
    return derive_params(4, 2, 0.25, 0.5, 0.5)


def test_phi_expectation_empty_set():
    rp = tiny_params().exact()
    assert phi_expectation_planted_scaled([], rp) == 1


def test_phi_expectation_examples():
    rp = tiny_params().exact()
    one_edge = phi_expectation_planted_scaled([(1, 2)], rp)  # E_P[phi_S] * sigma
    assert float(one_edge) / math.sqrt(rp.sigma_sq) == pytest.approx(0.10355, abs=1e-4)
    path = phi_expectation_planted_scaled([(1, 2), (2, 3)], rp)  # E_P[phi_S] * sigma^2
    assert float(path / rp.sigma_sq) == pytest.approx(0.021446, abs=1e-5)


def test_phi_expectation_matches_exhaustive_enumeration():
    """Closed form vs full outcome enumeration, exact rational arithmetic."""
    pp = tiny_params()
    rp = pp.exact()
    dist = enumerate_planted_exact(rp)
    universe = list(all_edges(4, 2))
    idx = {e: i for i, e in enumerate(universe)}
    for m in range(1, 4):
        for S in itertools.combinations(universe, m):
            want = sum(
                (
                    pr * math.prod(Fraction(bits[idx[e]]) - rp.q for e in S)
                    for _, bits, pr in dist.outcomes
                ),
                Fraction(0),
            )
            assert phi_expectation_planted_scaled(S, rp) == want


def test_ldlr_exact_degree_zero():
    assert ldlr_norm_exact(tiny_params(), 0).value == 1.0


def test_ldlr_exact_example_d1():
    res = ldlr_norm_exact(tiny_params(), 1)
    assert res.value == pytest.approx(1.06433, abs=1e-4)
    assert res.value == pytest.approx(1 + res.value_minus_one)
    assert [(t.ell, t.m) for t in res.per_class] == [(2, 1)]


def test_ldlr_value_nondecreasing_in_degree():
    pp = derive_params(6, 2, 0.3, 0.6, 0.5)
    vals = [ldlr_norm_exact(pp, D).value for D in range(5)]
    assert vals == sorted(vals)


def test_bruteforce_matches_exact():
    for r, n in ((2, 5), (3, 4)):
        pp = derive_params(n, r, 0.3, 0.6 if r == 2 else 1.2, 0.5)
        for D in (1, 2, 3):
            a = ldlr_norm_exact(pp, D).value
            b = ldlr_norm_bruteforce(pp, D).value
            assert abs(a - b) <= 1e-9 * abs(a)


def test_bruteforce_exact_value_rounds_to_value():
    for alpha, beta, gamma in PARAM_GRID:
        for r in (2, 3):
            for n in (4, 5):
                pp = derive_params(n, r, alpha, beta, gamma)
                for D in (1, 2, 3):
                    res = ldlr_norm_bruteforce(pp, D)
                    assert res.exact_value is not None
                    assert float(res.exact_value) == res.value


def test_bruteforce_degree_past_edge_count():
    # no subset has more than M = 3 edges, so D = 10^7 costs what D = 3 costs
    pp = derive_params(3, 2, 0.3, 0.6, 0.5)
    assert ldlr_norm_bruteforce(pp, 10 ** 7) == ldlr_norm_bruteforce(pp, 3)


def test_bruteforce_budget():
    pp = derive_params(40, 2, 0.3, 0.6, 0.5)
    with pytest.raises(BudgetExceededError):
        ldlr_norm_bruteforce(pp, 5)


def test_ldlr_large_n_fast():
    res = ldlr_norm_exact(derive_params(10 ** 9, 2, 0.48, 0.5, 0.6), 10)
    assert res.value > 1.0
    assert all(t.term >= 0 for t in res.per_class)


def test_ldlr_term_log10_from_exact_terms():
    # float(term) underflows to 0.0 on 29 classes here; the log10 stays finite
    res = ldlr_norm_exact(derive_params(10 ** 200, 2, 0.48, 0.5, 0.6), 10)
    assert sum(t.term == 0.0 for t in res.per_class) >= 29
    assert all(math.isfinite(t.term_log10) for t in res.per_class)
    assert "-inf" not in res.to_csv()
    for t in ldlr_norm_exact(tiny_params(), 3).per_class + ldlr_norm_bruteforce(
        tiny_params(), 3
    ).per_class:
        assert t.term_log10 == pytest.approx(math.log10(t.term), rel=1e-12)


MPF_DPS = 40  # working precision of the mpmath oracles


def _ldlr_exact_oracle(params, D):
    """The class sum with one scalar count_subgraph_class call per class."""
    n, r = params.n, params.r
    terms = []
    with mpmath.workdps(MPF_DPS):
        rho = mpmath.mpf(params.rho)
        w2 = (mpmath.mpf(params.p) - mpmath.mpf(params.q)) ** 2 / (
            mpmath.mpf(params.q) * (1 - mpmath.mpf(params.q))
        )
        total = mpmath.mpf(0)
        for ell in range(r, min(r * D, n) + 1):
            for m in range(max(1, -(-ell // r)), D + 1):
                cnt = count_subgraph_class(n, ell, m, r)
                if cnt == 0:
                    continue
                term = mpmath.mpf(cnt) * rho ** (2 * ell) * w2 ** m
                total += term
                value = float(term)
                if sys.float_info.min <= value < math.inf:
                    log10 = math.log10(value)
                else:
                    log10 = float(mpmath.log10(term))
                terms.append(LdlrClassTerm(ell, m, cnt, value, log10))
        return float(1 + total), float(total), tuple(terms)


def test_ldlr_exact_subnormal_terms_round_once():
    """A subnormal class term is its exact value rounded once to a float.
    mpmath's float conversion rounds to 53 bits first and then to the
    subnormal grid, which lands one ulp off on these three classes."""
    pp = derive_params(2000, 2, 0.48, 0.5, 0.6)
    rp = pp.exact()
    w2 = (rp.p - rp.q) ** 2 / rp.sigma_sq
    terms = {(t.ell, t.m): t for t in ldlr_norm_exact(pp, 141).per_class}
    for ell, m in [(155, 139), (166, 123), (168, 87)]:
        t = terms[ell, m]
        exact = t.class_count * rp.rho ** (2 * ell) * w2 ** m
        assert 0 < t.term < sys.float_info.min
        assert t.term == float(exact)
        with mpmath.workdps(MPF_DPS):
            assert float(mpmath.mpf(exact.numerator) / exact.denominator) != t.term


@pytest.mark.parametrize(
    "n, r, alpha, beta, gamma, D",
    [
        (4, 2, 0.25, 0.5, 0.5, 0),
        (7, 2, 0.3, 0.5, 0.6, 10),  # n < rD
        (5, 3, 0.3, 0.9, 0.6, 4),
        (10000, 3, 0.4, 1.2, 0.6, 30),
        (10 ** 200, 2, 0.3, 0.5, 0.6, 10),
        (10 ** 6, 4, 0.2, 1.5, 0.7, 8),
    ],
)
def test_ldlr_exact_matches_scalar_oracle(n, r, alpha, beta, gamma, D):
    pp = derive_params(n, r, alpha, beta, gamma)
    res = ldlr_norm_exact(pp, D)
    assert (res.value, res.value_minus_one, res.per_class) == _ldlr_exact_oracle(pp, D)


@pytest.mark.parametrize(
    "n, alpha, beta, gamma, D",
    [(4, 0.45, 0.6, 0.3, 2), (4, 0.45, 0.6, 0.3, 3), (200, 0.59, 0.8, 0.24, 10)],
)
def test_conditioning_index_set_matches_scalar(n, alpha, beta, gamma, D):
    spec = build_conditioning_spec(derive_params(n, 2, alpha, beta, gamma), 0.1, D)
    assert spec.index_set == {
        (ell, m)
        for ell, m_ell in spec.m_table.items()
        for m in range(m_ell, D + 1)
        if count_isolated_free_edge_sets(ell, m, 2) > 0
    }


def test_ldlr_csv_schema():
    res = ldlr_norm_exact(tiny_params(), 2)
    lines = res.to_csv().splitlines()
    assert lines[0] == "ell,m,classCountLog10,termLog10"
    assert len(lines) == 1 + len(res.per_class)


def test_basis_orthonormality_against_enumerated_null():
    """E_Q[phi_S phi_S'] = 1{S = S'} over the fully enumerated null measure.

    Computed in rationals with sigma powers kept symbolic: the raw inner
    product must equal sigma^{|S|+|S'|} when S = S' (so the normalized value
    is exactly 1) and 0 otherwise.
    """
    rp = tiny_params().exact()
    universe = list(all_edges(4, 2))
    idx = {e: i for i, e in enumerate(universe)}
    subsets = [()] + [
        S for m in (1, 2) for S in itertools.combinations(universe, m)
    ]
    M = len(universe)
    configs = []
    for bits in itertools.product((0, 1), repeat=M):
        pr = math.prod(rp.q if b else 1 - rp.q for b in bits)
        configs.append((bits, pr))
    for S1, S2 in itertools.product(subsets, subsets):
        total = Fraction(0)
        for bits, pr in configs:
            val = math.prod(Fraction(bits[idx[e]]) - rp.q for e in S1)
            val *= math.prod(Fraction(bits[idx[e]]) - rp.q for e in S2)
            total += pr * val
        if set(S1) == set(S2):
            # normalized: total / sigma^{|S1| + |S2|} == 1 exactly
            assert total == rp.sigma_sq ** len(S1)
        else:
            assert total == 0


def test_conditioning_spec_m_table():
    pp = derive_params(100, 2, 0.4, 0.8, 0.6)
    spec = build_conditioning_spec(pp, 0.1, 10)
    assert spec.m_table[2] == 4
    assert spec.m_table[5] == 8
    # two vertices carry at most one edge, so (2, m) never enters I
    assert all(ell != 2 for ell, _ in spec.index_set)


def test_conditioning_spec_empty_index():
    pp = derive_params(100, 2, 0.4, 0.8, 0.6)
    spec = build_conditioning_spec(pp, 0.1, 3)
    assert spec.index_set == frozenset()


def test_m_table_strictly_increasing_when_rate_above_one():
    pp = derive_params(100, 2, 0.4, 0.8, 0.6)
    spec = build_conditioning_spec(pp, 0.1, 10)
    ms = [spec.m_table[ell] for ell in sorted(spec.m_table)]
    assert all(a < b for a, b in zip(ms, ms[1:]))


def test_event_trivial_cases():
    pp = derive_params(6, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    empty = Hypergraph(6, 2)
    assert event_holds(frozenset(), empty, pp, spec)
    spec_empty = build_conditioning_spec(pp, 0.1, 2)
    full = complete(6, 2)
    assert event_holds(frozenset(range(1, 7)), full, pp, spec_empty)


def test_event_triangle_counterexample():
    # m_3 = 3 here, so a triangle inside C violates E
    pp = derive_params(6, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    assert (3, 3) in spec.index_set
    tri = Hypergraph(6, 2, frozenset({(1, 2), (1, 3), (2, 3)}))
    assert not event_holds(frozenset({1, 2, 3}), tri, pp, spec)
    # the same triangle outside Z is irrelevant
    assert event_holds(frozenset({4, 5, 6}), tri, pp, spec)


def test_event_matches_direct_subset_enumeration():
    """Vertex-subset implementation vs a literal edge-subset scan."""
    pp = derive_params(5, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    universe = list(all_edges(5, 2))
    Z = frozenset({1, 2, 3, 4})
    inside = [e for e in universe if set(e) <= Z]
    for mask in range(2 ** len(inside)):
        edges = frozenset(e for i, e in enumerate(inside) if mask >> i & 1)
        Y = Hypergraph(5, 2, edges)
        naive_bad = any(
            (len(induced_vertices(S)), m) in spec.index_set
            for m in range(1, spec.D + 1)
            for S in itertools.combinations(sorted(edges), m)
        )
        assert event_holds(Z, Y, pp, spec) == (not naive_bad)


def test_event_probability_i_empty_is_one():
    pp = derive_params(6, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 2)
    est = estimate_event_probability(pp, spec, 50, 3)
    assert est.value == 1.0


def test_conditional_equals_bruteforce_when_unconditioned():
    pp = derive_params(4, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 2)
    assert spec.index_set == frozenset()
    cond = conditional_ldlr_exact_tiny(pp, spec)
    brute = ldlr_norm_bruteforce(pp, 2)
    assert cond.exact_value == brute.exact_value
    assert cond.p_event == 1


def test_conditional_p_event_matches_monte_carlo():
    pp = derive_params(4, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    cond = conditional_ldlr_exact_tiny(pp, spec)
    est = estimate_event_probability(pp, spec, 3000, 7)
    assert abs(float(cond.p_event) - est.value) <= 4 * max(est.std_error, 1e-9)


def test_conditional_good_bad_term_bounds():
    pp = derive_params(4, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    nums = conditional_numerators_exact_tiny(pp, spec)
    assert nums, "expected nonempty numerator table"
    for S, val in nums.items():
        ell, m = len(induced_vertices(S)), len(S)
        bound = conditional_term_bound(pp, spec, ell, m)
        assert abs(val) <= bound * (1 + 1e-12)


def _conditional_instances():
    """Every instance the budget allows, on two exponent sets and three deltas."""
    for r, n_max in CONDITIONAL_TINY_BUDGET_N.items():
        exps = [(0.45, 0.6, 0.3), (0.2, 0.9, 0.7)] if r == 2 else [(0.45, 1.2, 0.3), (0.3, 1.8, 0.6)]
        for n in range(r, n_max + 1):
            for a, b, g in exps:
                pp = derive_params(n, r, a, b, g)
                for delta, D in ((0.1, 3), (0.05, 2), (5.0, 3)):
                    yield pp, build_conditioning_spec(pp, delta, D)


def test_conditional_numerators_match_fraction_enumerator():
    """P(E) equals the reference's, and each labelled S's numerator equals the
    value of its shape: V(S) relabelled onto 1..ell in increasing order. Every
    shape is reached."""
    seen_empty_index = seen_event_fails = False
    for pp, spec in _conditional_instances():
        p_event, num = _conditional_numerators(pp, spec)
        want_p, want = fraction_conditional_numerators(pp, spec)
        key = (pp.n, pp.r, pp.alpha, pp.beta, pp.gamma, spec.m_table, spec.D)
        assert p_event == want_p, key
        reached = set()
        for S, c in want.items():
            label = {v: i for i, v in enumerate(sorted(induced_vertices(S)), 1)}
            shape = tuple(tuple(label[v] for v in e) for e in S)
            assert num[shape] == c, (key, S)
            reached.add(shape)
        assert reached == set(num), key
        seen_empty_index |= not spec.index_set
        seen_event_fails |= p_event < 1
    assert seen_empty_index and seen_event_fails


def test_conditional_class_counts():
    """E holds on the empty graph, so every labelled S with |S| <= D is counted,
    each once: a shape counted twice or missed changes its class count."""
    for pp, spec in _conditional_instances():
        for t in conditional_ldlr_exact_tiny(pp, spec).per_class:
            assert t.class_count == count_subgraph_class(pp.n, t.ell, t.m, pp.r), (pp, t)


def test_conditional_budget():
    pp = derive_params(6, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(pp, 0.1, 3)
    with pytest.raises(BudgetExceededError):
        conditional_ldlr_exact_tiny(pp, spec)


def test_conditioning_requires_positive_delta():
    pp = derive_params(4, 2, 0.45, 0.6, 0.3)
    with pytest.raises(InvalidArgumentError):
        build_conditioning_spec(pp, 0.0, 3)


def _ldlr_exact_mpf_loop(params, D):
    """The class sum at 40 digits in mpmath: one mpf object per count, product
    and running total, and the float-or-exact log10 rule applied to the mpf
    term."""
    n = params.n
    terms = []
    with mpmath.workdps(MPF_DPS):
        rho = mpmath.mpf(params.rho)
        w2 = (mpmath.mpf(params.p) - mpmath.mpf(params.q)) ** 2 / (
            mpmath.mpf(params.q) * (1 - mpmath.mpf(params.q))
        )
        w2_pow = [w2 ** m for m in range(D + 1)]
        total = mpmath.mpf(0)
        ell_done = None
        for (ell, m), free in class_table(params.r, D).items():
            if ell != ell_done:
                if ell > n:
                    break
                n_sets, rho_pow, ell_done = math.comb(n, ell), rho ** (2 * ell), ell
            cnt = n_sets * free
            term = mpmath.mpf(cnt) * rho_pow * w2_pow[m]
            total += term
            value = float(term)
            if sys.float_info.min <= value < math.inf:
                log10 = math.log10(value)
            else:
                log10 = float(mpmath.log10(term))
            terms.append(LdlrClassTerm(ell, m, cnt, value, log10))
        return LdlrResult(float(1 + total), float(total), tuple(terms), "exact-formula")


# (r, exponent sets, n values, degrees): n < rD, D = 0, subnormal and
# underflowing terms at n = 1e200, r = 3 at D = 30 and r = 4 at D = 12
LDLR_MPF_GRID = [
    (2, [(0.48, 0.5, 0.6), (0.42, 0.5, 0.6), (0.3, 0.9, 0.25), (0.2, 0.5, 0.45)],
     [4, 7, 1000, 10 ** 6, 10 ** 12, 10 ** 40, 10 ** 200], [0, 1, 3, 10]),
    (2, [(0.48, 0.5, 0.6)], [2000, 10 ** 9], [40]),
    (3, [(0.4, 1.2, 0.6), (0.2, 1.5, 0.45)], [5, 400, 10 ** 4, 10 ** 30], [0, 4, 30]),
    (4, [(0.2, 1.5, 0.7), (0.5, 2.5, 0.3)], [6, 10 ** 6, 10 ** 100], [3, 12]),
    (5, [(0.3, 2.0, 0.5)], [7, 10 ** 8], [5]),
]


def test_ldlr_exact_matches_mpf_object_loop():
    cases = [(n, r, a, b, g, D) for r, exps, ns, Ds in LDLR_MPF_GRID
             for a, b, g in exps for n in ns for D in Ds]
    assert len(cases) == 152
    for n, r, a, b, g, D in cases:
        pp = derive_params(n, r, a, b, g)
        res, want = ldlr_norm_exact(pp, D), _ldlr_exact_mpf_loop(pp, D)
        assert res == want, (n, r, a, b, g, D)
        assert res.to_csv() == want.to_csv()
        if n < 10 ** 100:  # past that the JSON class counts exceed 4300 digits
            assert res.to_json() == want.to_json()


@pytest.mark.parametrize("exps, delta, D", [
    ((4, 2, 0.45, 0.6, 0.3), 0.1, 3),
    ((4, 2, 0.4, 0.9, 0.3), 0.05, 6),
    ((4, 3, 0.5, 1.5, 0.3), 0.1, 4),
    ((3, 2, 0.3, 0.5, 0.2), 0.1, 3),
])
def test_event_probability_matches_exact_p_event(exps, delta, D):
    pp = derive_params(*exps)
    spec = build_conditioning_spec(pp, delta, D)
    p_event = float(conditional_ldlr_exact_tiny(pp, spec).p_event)
    assert p_event < 1
    trials = 40_000
    est = estimate_event_probability(pp, spec, trials, 11)
    assert abs(est.value - p_event) <= 4 * math.sqrt(p_event * (1 - p_event) / trials)


def test_event_draw_verdicts_match_event_holds():
    # |Z| ~ Bin(100, 0.1) and p = 0.3, with m_ell = 3, 5, 6, 8, 9 for ell = 2..6
    # (D = 9), so the smallest m of the index set is 6 = C(4, 2): most trials
    # reach it and unrank their within-Z positions, and the verdicts split
    params = ProblemParams(100, 2, 0.3, 0.01, 0.1)
    spec = build_conditioning_spec(derive_params(1000, 2, 0.2, 0.5, 0.28), 0.05, 9)
    at_least = min(m for _, m in spec.index_set)
    assert at_least == 6
    draws = within_z_edge_draws(params, 7, 300, at_least)
    verdicts = []
    for k, edges in draws:
        if edges is None:
            verdicts.append(True)
            continue
        Y = Hypergraph(k, 2, edges.tolist())
        verdicts.append(event_holds(frozenset(range(1, k + 1)), Y, replace(params, n=k), spec))
    assert sum(edges is not None for _, edges in draws) > 0.75 * len(draws)
    assert 0 < sum(verdicts) < len(draws)
    assert estimate_event_probability(params, spec, 300, 7).value == sum(verdicts) / 300


def test_event_probability_with_empty_index_set_draws_no_position(monkeypatch):
    # p = 0.3 on |Z| ~ 10 puts ~13 edges within Z, but with I empty no edge
    # set is a witness
    params = ProblemParams(100, 2, 0.3, 0.01, 0.1)
    spec = build_conditioning_spec(derive_params(6, 2, 0.45, 0.6, 0.3), 0.1, 2)
    assert spec.index_set == frozenset()

    def refuse(*args):
        raise AssertionError("the trial drew within-Z positions")

    monkeypatch.setattr(models, "_distinct_positions", refuse)
    assert estimate_event_probability(params, spec, 300, 7).value == 1.0
