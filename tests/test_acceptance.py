"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict before asserting, so a full run (pytest -v -s)
yields a one-line summary per criterion even when later assertions fail.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from denselab.balanced import find_balanced_motif, is_balanced
from denselab.hypergraph import Hypergraph, all_edges, induced_vertices
from denselab.ldlr import (
    build_conditioning_spec,
    conditional_ldlr_exact_tiny,
    conditional_term_bound,
    estimate_event_probability,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
    phi_expectation_planted_scaled,
)
from denselab.models import (
    aux_ldlr_upper_bound,
    derive_params,
    sample_aux,
    sample_null,
    sample_planted,
)
from denselab.hypergraph import within_ranks
from denselab.stats import count_motif, estimate_separation, exact_moments_motif_stat
from oracles import (
    conditional_numerators_exact_tiny,
    enumerate_planted_exact,
    unordered_exponent_params,
)


def verdict(num, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


PARAM_GRID = [
    (0.2, 0.5, 0.4), (0.3, 0.6, 0.5), (0.25, 0.7, 0.3), (0.4, 0.8, 0.6),
    (0.1, 0.4, 0.35), (0.35, 0.75, 0.55), (0.15, 0.45, 0.25), (0.45, 0.9, 0.7),
    (0.28, 0.55, 0.45), (0.33, 0.66, 0.62),
]


def test_criterion_01_ldlr_oracle_equivalence():
    worst = 0.0
    for alpha, beta, gamma in PARAM_GRID:
        for r in (2, 3):
            for n in (4, 5):
                pp = derive_params(n, r, alpha, beta, gamma)
                for D in (1, 2, 3):
                    a = ldlr_norm_exact(pp, D).value
                    b = ldlr_norm_bruteforce(pp, D).value
                    worst = max(worst, abs(a - b) / a)
    verdict(1, worst <= 1e-9, f"worst relative gap {worst:.2e}")


def test_criterion_02_expectation_oracle_exact():
    pp = derive_params(4, 2, 0.25, 0.5, 0.5)
    rp = pp.exact()
    dist = enumerate_planted_exact(rp)
    universe = list(all_edges(4, 2))
    idx = {e: i for i, e in enumerate(universe)}
    ok = True
    for m in range(1, 4):
        for S in itertools.combinations(universe, m):
            want = sum(
                (
                    pr * math.prod(Fraction(bits[idx[e]]) - rp.q for e in S)
                    for _, bits, pr in dist.outcomes
                ),
                Fraction(0),
            )
            if phi_expectation_planted_scaled(S, rp) != want:
                ok = False
    verdict(2, ok, "closed form = exhaustive enumeration, exact rationals")


def test_criterion_03_basis_orthonormality():
    rp = derive_params(4, 2, 0.25, 0.5, 0.5).exact()
    universe = list(all_edges(4, 2))
    idx = {e: i for i, e in enumerate(universe)}
    subsets = [()] + [
        S for m in (1, 2) for S in itertools.combinations(universe, m)
    ]
    configs = []
    for bits in itertools.product((0, 1), repeat=len(universe)):
        pr = math.prod(rp.q if b else 1 - rp.q for b in bits)
        configs.append((bits, pr))
    ok = True
    for S1, S2 in itertools.product(subsets, subsets):
        total = Fraction(0)
        for bits, pr in configs:
            val = math.prod(Fraction(bits[idx[e]]) - rp.q for e in S1)
            val *= math.prod(Fraction(bits[idx[e]]) - rp.q for e in S2)
            total += pr * val
        want = rp.sigma_sq ** len(S1) if set(S1) == set(S2) else Fraction(0)
        if total != want:
            ok = False
    verdict(3, ok, "E_Q[phi_S phi_S'] = 1{S=S'} exactly")


def test_criterion_04_hard_regime_ldlr_trend():
    """Degree-10 norm trend across the gamma >= 1/2 threshold at beta = 0.5.

    With r = 2, gamma = 0.6 the threshold beta/2 + r(gamma - 1/2) is 0.45, so
    alpha = 0.48 is hard (||L_{<=10}||^2 - 1 -> 0) and alpha = 0.42 is easy
    (-> infinity). Both limits are asymptotic. On the hard side the single-edge
    class (ell = r, m = 1) carries over 99% of the sum; its term is about
    n^e (1 - n^(alpha - beta))^2 / 2 with e = r(2 gamma - 1) + beta - 2 alpha
    = -0.06. The factor (1 - n^(alpha - beta))^2, which is p ~ q at finite n,
    makes the term rise up to n* = x*^(-1/(beta - alpha)) with
    x* = |e| / (|e| + 2(beta - alpha)), here about 1.2e11, and fall only past
    it. The easy side passes 1e3 only near n = 1e20. The grid therefore
    starts past n*, and its last point lies past n ~ 1e22, where the
    leading term drops below 0.01.
    """
    r, alpha_hard, alpha_easy, beta, gamma = 2, 0.48, 0.42, 0.5, 0.6
    e = r * (2 * gamma - 1) + beta - 2 * alpha_hard
    x_star = abs(e) / (abs(e) + 2 * (beta - alpha_hard))
    n_star = x_star ** (-1 / (beta - alpha_hard))
    ns = [10 ** 12, 10 ** 20, 10 ** 30, 10 ** 40]
    assert ns[0] > n_star, f"grid starts at {ns[0]:.0e}, before the crossover n* = {n_star:.3g}"
    hard = [
        ldlr_norm_exact(derive_params(n, r, alpha_hard, beta, gamma), 10).value_minus_one
        for n in ns
    ]
    easy = [
        ldlr_norm_exact(derive_params(n, r, alpha_easy, beta, gamma), 10).value_minus_one
        for n in ns
    ]
    ok = (
        all(a > b for a, b in zip(hard, hard[1:]))
        and hard[-1] < 0.01
        and all(a < b for a, b in zip(easy, easy[1:]))
        and easy[-1] > 1e3
    )
    verdict(
        4, ok,
        f"n* {n_star:.3g}, n {['%.0e' % n for n in ns]}, "
        f"hard {['%.4g' % v for v in hard]}, easy {['%.4g' % v for v in easy]}",
    )


def test_criterion_05_edge_test_separation():
    seps = []
    final = None
    for n in (64, 128, 256, 512):
        pp = derive_params(n, 2, 0.3, 0.5, 0.75)
        rep = estimate_separation(pp, "edge", 200, 17)
        seps.append(rep.separation)
        final = rep
    ok = seps == sorted(seps) and (final.type1_error + final.type2_error) <= 0.05
    verdict(
        5, ok,
        f"separation {['%.2f' % s for s in seps]}, "
        f"errors {final.type1_error + final.type2_error:.3f}",
    )


def test_criterion_06_motif_test_oracles():
    pp = derive_params(60, 2, 0.3, 0.75, 0.48)
    motif = find_balanced_motif(0.3, 0.75, 0.48, 2)
    mm = exact_moments_motif_stat(pp, motif)
    trials = 1200
    qs = np.array(
        [count_motif(sample_null(pp, 99, key=(0, t)), motif) for t in range(trials)],
        dtype=float,
    )
    ps = np.array(
        [
            count_motif(sample_planted(pp, 99, key=(1, t)).Y, motif)
            for t in range(trials)
        ],
        dtype=float,
    )
    se_q = qs.std(ddof=1) / math.sqrt(trials)
    se_p = ps.std(ddof=1) / math.sqrt(trials)
    ratios = []
    for n in (60, 120, 240):
        mn = exact_moments_motif_stat(derive_params(n, 2, 0.3, 0.75, 0.48), motif)
        ratios.append(mn.lambda_lb / mn.eq)
    ok = (
        abs(qs.mean() - mm.eq) <= 4 * se_q
        and ps.mean() >= mm.lambda_lb - 4 * se_p
        and qs.var(ddof=1) <= mm.var_q_bound
        and ps.var(ddof=1) <= mm.var_p_bound
        and ratios == sorted(ratios)
        and ratios[0] < ratios[-1]
    )
    verdict(
        6, ok,
        f"EQ {qs.mean():.4f} vs {mm.eq:.4f}, EP {ps.mean():.4f} >= "
        f"{mm.lambda_lb:.4f}, ratio growth {['%.1f' % r for r in ratios]}",
    )


MOTIF_GRID = [
    (0.3, 0.75, 0.48, 2), (0.28, 0.7, 0.45, 2), (0.2, 0.55, 0.4, 2),
    (0.22, 0.6, 0.42, 2), (0.15, 0.5, 0.35, 2), (0.25, 0.65, 0.44, 2),
    (0.18, 0.52, 0.38, 2), (0.3, 0.8, 0.43, 2),
    (0.5, 1.5, 0.45, 3), (0.4, 1.2, 0.45, 3), (0.3, 0.95, 0.435, 3),
    (0.5, 1.8, 0.35, 3),
]


def test_criterion_07_balanced_motif_certification():
    ok = True
    for alpha, beta, gamma, r in MOTIF_GRID:
        m = find_balanced_motif(alpha, beta, gamma, r)
        if not (Fraction(1) / Fraction(str(beta)) < m.ratio < Fraction(str(gamma)) / Fraction(str(alpha))):
            ok = False
        if not m.certificate.balanced or m.ratio != Fraction(m.m, m.ell):
            ok = False
    # complement inequality for every balanced graph on <= 5 vertices
    for ell in range(2, 6):
        universe = list(all_edges(ell, 2))
        full = frozenset(range(1, ell + 1))
        for mm in range(1, len(universe) + 1):
            for sub in itertools.combinations(universe, mm):
                if induced_vertices(sub) != full:
                    continue
                hg = Hypergraph(ell, 2, frozenset(sub))
                if not is_balanced(hg)[0]:
                    continue
                ratio = Fraction(mm, ell)
                for k in range(0, ell):
                    for vsub in itertools.combinations(range(1, ell + 1), k):
                        vs = set(vsub)
                        e_in = sum(1 for e in sub if set(e) <= vs)
                        if Fraction(mm - e_in, ell - k) < ratio:
                            ok = False
    verdict(7, ok, "12-point grid certified; complement inequality exhaustive")


def test_criterion_08_conditioning_machinery():
    pp = derive_params(4, 2, 0.45, 0.6, 0.3)
    spec_empty = build_conditioning_spec(pp, 0.1, 2)
    cond_empty = conditional_ldlr_exact_tiny(pp, spec_empty)
    brute = ldlr_norm_bruteforce(pp, 2)
    eq_ok = cond_empty.exact_value == brute.exact_value

    spec = build_conditioning_spec(pp, 0.1, 3)
    cond = conditional_ldlr_exact_tiny(pp, spec)
    est = estimate_event_probability(pp, spec, 3000, 7)
    pe_ok = abs(float(cond.p_event) - est.value) <= 4 * max(est.std_error, 1e-9)

    bounds_ok = True
    for S, val in conditional_numerators_exact_tiny(pp, spec).items():
        ell, m = len(induced_vertices(S)), len(S)
        if abs(val) > conditional_term_bound(pp, spec, ell, m) * (1 + 1e-12):
            bounds_ok = False

    trend = []
    for n in (50, 100, 200):
        ppn = derive_params(n, 2, 0.59, 0.8, 0.24)
        spec_n = build_conditioning_spec(ppn, 0.1, 10)
        trend.append(estimate_event_probability(ppn, spec_n, 50_000, 42).value)
    trend_ok = trend == sorted(trend) and trend[-1] >= 0.9

    ok = eq_ok and pe_ok and bounds_ok and trend_ok
    verdict(
        8, ok,
        f"I=empty equality {eq_ok}, P(E) match {pe_ok}, term bounds {bounds_ok}, "
        f"trend {['%.3f' % v for v in trend]}",
    )


def test_criterion_09_auxiliary_model():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    hits = tot = 0
    for t in range(100000):
        sample = sample_aux(pp, 123, key=(t,))
        within, ranks = within_ranks(sample.Z, 100, 2), sample.Y.ranks
        tot += within.size
        hits += int(np.count_nonzero(
            np.searchsorted(ranks, within, side="right") > np.searchsorted(ranks, within)))
    freq = hits / tot
    se = math.sqrt(pp.p * (1 - pp.p) / tot)
    freq_ok = abs(freq - pp.p) <= 4 * se

    pp_hard = unordered_exponent_params(100, 2, 1.5, 0.6, 0.75)
    d0_ok = aux_ldlr_upper_bound(pp_hard, 0).value == 1.0
    trend = [
        aux_ldlr_upper_bound(unordered_exponent_params(n, 2, 1.5, 0.6, 0.75), 2).value
        for n in (100, 1000, 10000)
    ]
    trend_ok = all(a > b for a, b in zip(trend, trend[1:])) and trend[-1] > 1.0
    ok = freq_ok and d0_ok and trend_ok
    verdict(
        9, ok,
        f"pair freq {freq:.5f} vs p {pp.p:.5f} ({abs(freq - pp.p) / se:.1f} SE), "
        f"bound trend {['%.3f' % v for v in trend]}",
    )


CLI_COMMANDS = [
    ["sample", "--model", "planted", "--seed", "3", "--n", "16", "--r", "2",
     "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"],
    ["test", "--stat", "edge", "--trials", "12", "--seed", "5", "--n", "16",
     "--r", "2", "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"],
    ["ldlr", "--mode", "exact", "--degree", "4", "--n", "100", "--r", "2",
     "--alpha", "0.3", "--beta", "0.6", "--gamma", "0.5"],
    ["find-balanced", "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48",
     "--r", "2"],
    ["phase-diagram", "--r", "2", "--beta", "0.5", "--alpha-grid", "0.2,0.45",
     "--gamma-grid", "0.6", "--n-grid", "32", "--degree", "4", "--trials", "6",
     "--seed", "1"],
]


def test_criterion_10_cli_determinism():
    ok = True
    for cmd in CLI_COMMANDS:
        outputs = []
        for workers in ("1", "2", "4"):
            env = dict(os.environ, DENSELAB_WORKERS=workers)
            res = subprocess.run(
                [sys.executable, "-m", "denselab.cli"] + cmd,
                capture_output=True, env=env,
            )
            if res.returncode != 0:
                ok = False
            outputs.append(res.stdout)
        if len(set(outputs)) != 1:
            ok = False
    verdict(10, ok, "byte-identical output across worker counts")
