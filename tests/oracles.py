"""Test-only oracles: slow or exhaustive references that the fast paths in
`denselab` are checked against. Nothing in `src/` or `bench/` calls them.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from denselab.balanced import BalancedMotif, is_balanced
from denselab.errors import BudgetExceededError, InvalidArgumentError
from denselab.hypergraph import (
    Edge,
    Hypergraph,
    all_edges,
    binomial_table,
    count_embeddings,
    induced_vertices,
)
from denselab.ldlr import ConditioningSpec, _dense_subset_exists
from denselab.models import ProblemParams, RationalParams, exact_spike
from denselab.rng import child_rng


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-uniform hypergraph on n vertices."""
    return Hypergraph.from_ranks(n, r, np.arange(binomial_table(n, r)[n, r]))


def rank_edge(edge: Sequence[int], n: int, r: int) -> int:
    """Lexicographic rank of a canonical edge among all edges of K_n^r, one
    edge at a time in big-int arithmetic: the reference for rank_edges."""
    if n < r:
        raise InvalidArgumentError(f"n={n} < r={r}")
    e = tuple(int(v) for v in edge)
    if len(e) != r:
        raise InvalidArgumentError(f"edge {e} does not have {r} vertices")
    if any(a >= b for a, b in zip(e, e[1:])) or e[0] < 1 or e[-1] > n:
        raise InvalidArgumentError(f"edge {e} is not strictly increasing within [1, {n}]")
    rank = 0
    prev = 0
    for i, c in enumerate(e):
        k = r - i - 1
        # sum_{v=prev+1}^{c-1} C(n-v, k), telescoped
        rank += comb(n - prev, k + 1) - comb(n - c + 1, k + 1)
        prev = c
    return rank


def unrank_edge(index: int, n: int, r: int) -> Edge:
    """Inverse of rank_edge: the reference for unrank_edges."""
    m = comb(n, r)
    if not 0 <= index < m:
        raise InvalidArgumentError(f"index {index} outside [0, {m})")
    edge: List[int] = []
    prev = 0
    rem = index
    for i in range(r):
        k = r - i - 1
        c = prev + 1
        while True:
            block = comb(n - c, k)
            if rem < block:
                break
            rem -= block
            c += 1
        edge.append(c)
        prev = c
    return tuple(edge)


def standardized_edge_values(params: ProblemParams) -> Tuple[float, float]:
    """The two values (present, absent) taken by (Y_e - q)/sigma."""
    return (1.0 - params.q) / params.sigma, -params.q / params.sigma


def is_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Edge-induced isomorphism: an embedding of h1 into h2 at equal sizes."""
    v1, v2 = induced_vertices(h1.sorted_edges()), induced_vertices(h2.sorted_edges())
    if len(v1) != len(v2) or h1.edge_count != h2.edge_count or h1.r != h2.r:
        return False
    return count_embeddings(h1, h2) > 0


def count_motif_by_subsets(hg: Hypergraph, motif: BalancedMotif) -> int:
    """Scan all m-edge subsets and test each for isomorphism with the motif."""
    m = motif.m
    total = 0
    for subset in itertools.combinations(hg.sorted_edges(), m):
        if is_isomorphic(Hypergraph(hg.n, hg.r, subset), motif.motif):
            total += 1
    return total


def check_complement_inequality(
    hg: Hypergraph, sub_vertices: FrozenSet[int], sub_edges: FrozenSet[Edge]
) -> bool:
    """Complement-density inequality for a balanced H and a proper subhypergraph H'.

    Returns whether (|E(H)|-|E(H')|)/(|V(H)|-|V(H')|) >= |E(H)|/|V(H)|; this
    must always be true for balanced H, so a False return flags an
    implementation bug, not a counterexample.
    """
    ok, _ = is_balanced(hg)
    if not ok:
        raise InvalidArgumentError("H must be balanced")
    edges = frozenset(hg.sorted_edges())
    verts = induced_vertices(edges)
    if not sub_vertices < verts:
        raise InvalidArgumentError("V(H') must be a proper subset of V(H)")
    if not sub_edges <= edges:
        raise InvalidArgumentError("E(H') must be a subset of E(H)")
    if any(not set(e) <= sub_vertices for e in sub_edges):
        raise InvalidArgumentError("H' edges must lie within V(H')")
    lhs = Fraction(
        hg.edge_count - len(sub_edges), len(verts) - len(sub_vertices)
    )
    return lhs >= Fraction(hg.edge_count, len(verts))


@dataclass(frozen=True)
class ExactDistribution:
    """Complete outcome list (Z, Y bits, probability) of the planted model."""

    n: int
    r: int
    outcomes: Tuple[Tuple[FrozenSet[int], Tuple[int, ...], Fraction], ...]

    def total_mass(self) -> Fraction:
        return sum((pr for _, _, pr in self.outcomes), Fraction(0))

    def edge_marginal(self, edge_index: int) -> Fraction:
        return sum(
            (pr for _, bits, pr in self.outcomes if bits[edge_index]), Fraction(0)
        )


def planted_outcomes(
    rp: RationalParams, edges_for: Callable[[FrozenSet[int]], Sequence[Edge]]
) -> Iterator[Tuple[FrozenSet[int], Sequence[Edge], Tuple[int, ...], Fraction]]:
    """(Z, edges, bits, probability) over every planted set Z and every 0/1
    outcome `bits` of the edges `edges_for(Z)`, with its exact probability
    under the planted law: Z has Ber(rho) memberships, edges inside Z are
    Ber(p) and all others Ber(q). Z runs over the masks 0 .. 2^n - 1, vertex
    i + 1 being bit i; bits run in itertools.product order.
    """
    n = rp.n
    for z_mask in range(2 ** n):
        Z = frozenset(i + 1 for i in range(n) if z_mask >> i & 1)
        prob_z = rp.rho ** len(Z) * (1 - rp.rho) ** (n - len(Z))
        edges = edges_for(Z)
        edge_probs = [rp.p if Z.issuperset(e) else rp.q for e in edges]
        for bits in itertools.product((0, 1), repeat=len(edges)):
            factors = (pe if b else 1 - pe for b, pe in zip(bits, edge_probs))
            yield Z, edges, bits, math.prod(factors, start=prob_z)


ENUMERATION_BUDGET_BITS = 26


def enumerate_planted_exact(rp: RationalParams) -> ExactDistribution:
    """Exact outcome enumeration of the planted model with rational densities."""
    n, r = rp.n, rp.r
    M = comb(n, r)
    if n + M > ENUMERATION_BUDGET_BITS:
        raise BudgetExceededError(
            f"2^{n} * 2^{M} outcomes exceed the 2^{ENUMERATION_BUDGET_BITS} budget"
        )
    edges = list(all_edges(n, r))
    outcomes = tuple(
        (Z, bits, pr) for Z, _, bits, pr in planted_outcomes(rp, lambda Z: edges)
    )
    return ExactDistribution(n, r, outcomes)


def fraction_conditional_numerators(
    params: ProblemParams, spec: ConditioningSpec
) -> Tuple[Fraction, Dict[Tuple[Edge, ...], Fraction]]:
    """P(E) and the map S -> E_P[phi_S 1_E] * sigma^{|S|} over every labelled
    S with 1 <= |S| <= D, by walking every planted set Z and every outcome of
    the edges inside it, in Fractions: the reference for the stratified sum of
    `ldlr.conditional_ldlr_exact_tiny`."""
    r, D = params.r, spec.D
    rp = params.exact()
    p_event = Fraction(0)
    coeff: Dict[Tuple[Edge, ...], Fraction] = {}
    outcomes = planted_outcomes(rp, lambda Z: list(itertools.combinations(sorted(Z), r)))
    for _, c_edges, bits, weight in outcomes:
        if _dense_subset_exists([e for e, b in zip(c_edges, bits) if b], spec):
            continue
        p_event += weight
        signed = {e: (Fraction(b) - rp.q) for e, b in zip(c_edges, bits)}
        for m in range(1, D + 1):
            for S in itertools.combinations(c_edges, m):
                coeff[S] = coeff.get(S, Fraction(0)) + math.prod(map(signed.get, S), start=weight)
    return p_event, coeff


def conditional_numerators_exact_tiny(
    params: ProblemParams, spec: ConditioningSpec
) -> Dict[Tuple[Edge, ...], float]:
    """E_P[phi_S 1_E] per subset S, for bound checks at tiny scale: its exact
    rational square, rounded once to a float, then the signed square root."""
    _, coeff = fraction_conditional_numerators(params, spec)
    sigma_sq = params.exact().sigma_sq
    return {S: math.copysign(math.sqrt(c * c / sigma_sq ** len(S)), c) for S, c in coeff.items()}


def unordered_exponent_params(
    n: int, r: int, alpha: float, beta: float, gamma: float
) -> ProblemParams:
    """`derive_params`' record without its domain check, so alpha >= beta
    (p <= q) is allowed, as the auxiliary bound's hard side needs; p, q and
    rho come from the same expressions, so they are the same floats."""
    ln_n = math.log(n)
    return ProblemParams(
        n, r, math.exp(-alpha * ln_n), math.exp(-beta * ln_n),
        math.exp((gamma - 1.0) * ln_n), alpha, beta, gamma,
    )


@dataclass(frozen=True)
class AuxBoundEstimate:
    """Monte Carlo sum_{d<=D} lambda^{2d}/d! * E<u,v>^{2d}: the total and
    each term d, each with its standard error."""

    value: float
    std_error: float
    terms: Tuple[Tuple[float, float], ...]


def aux_ldlr_bound_estimate(
    params: ProblemParams, D: int, trials: int, seed: int
) -> AuxBoundEstimate:
    """Estimate `models.aux_ldlr_upper_bound` by sampling (trials >= 2).

    u and v are independent copies of the membership vector. The inner
    product only depends on the multinomial counts of the four joint
    membership states, so each trial draws those counts.
    """
    lam = exact_spike(params)
    rho = params.rho
    a = math.sqrt((1.0 - rho) / rho)
    b = -math.sqrt(rho / (1.0 - rho))
    pvec = [rho * rho, rho * (1 - rho), (1 - rho) * rho, (1 - rho) * (1 - rho)]
    counts = child_rng(seed).multinomial(params.n, pvec, size=trials)
    dots = counts @ np.array([a * a, a * b, a * b, b * b])
    per_trial = np.array([
        lam ** (2 * d) / math.factorial(d) * dots ** (2 * d) for d in range(D + 1)
    ])

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(trials)

    total = mean_se(per_trial.sum(axis=0))
    return AuxBoundEstimate(total[0], total[1], tuple(map(mean_se, per_trial)))
