"""Parameter derivation and samplers for the null, planted, and auxiliary models.

All samplers are pure functions of (params, seed); parallel callers must use
disjoint child streams (see rng.child_rng). Densities are evaluated as
exp(exponent * ln n) with the exponent formed in one expression, never via
floating subtraction chains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InfeasibleError, InvalidArgumentError
from .hypergraph import Hypergraph, check_rank_space, unrank_edges, within_ranks
from .rng import child_rng


@dataclass(frozen=True)
class ProblemParams:
    """Edge densities p (inside the planted set) and q (elsewhere) and the
    membership rate rho of the r-uniform planted model on n vertices, with
    the derived sigma = sqrt(q(1 - q)) and M = C(n, r).

    The exponents are those of p = n^-alpha, q = n^-beta, rho = n^(gamma-1)
    when the record comes from `derive_params`, and None when the constructor
    is given densities directly. The constructor checks only n >= r >= 2 and
    p, q, rho in (0, 1), so it allows p = q and p < q.
    """

    n: int
    r: int
    p: float
    q: float
    rho: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        if self.r < 2:
            raise InvalidArgumentError("r >= 2 violated")
        if self.n < self.r:
            raise InvalidArgumentError("n >= r violated")
        if not 0 < self.q < 1 or not 0 < self.p < 1:
            raise InvalidArgumentError("0 < q, p < 1 violated")
        if not 0 < self.rho < 1:
            raise InvalidArgumentError("0 < rho < 1 violated")
        object.__setattr__(self, "sigma", math.sqrt(self.q * (1.0 - self.q)))

    @functools.cached_property
    def M(self) -> int:
        """C(n, r), formed on first use: the samplers' `check_rank_space`
        guard runs first, so a C(n, r) past 2^63 is never formed there."""
        return comb(self.n, self.r)

    def exact(self) -> "RationalParams":
        """Rational view of the stored (binary) float densities."""
        return RationalParams(
            self.n, self.r, Fraction(self.p), Fraction(self.q), Fraction(self.rho)
        )


def derive_params(n: int, r: int, alpha: float, beta: float, gamma: float) -> ProblemParams:
    """The params with p = n^-alpha, q = n^-beta and rho = n^(gamma-1), whose
    exponents must pass check_exponent_domain, and with q < p as floats."""
    check_exponent_domain(alpha, beta, gamma, r)
    if n < r:  # before math.log, which rejects n <= 0
        raise InvalidArgumentError("n >= r violated")
    ln_n = math.log(n)
    params = ProblemParams(
        n, r, math.exp(-alpha * ln_n), math.exp(-beta * ln_n),
        math.exp((gamma - 1.0) * ln_n), alpha, beta, gamma,
    )
    if not params.q < params.p:
        raise InvalidArgumentError("q < p violated")
    return params


def check_exponent_domain(alpha: float, beta: float, gamma: float, r: int) -> None:
    """Raise InvalidArgumentError unless r >= 2, 0 < alpha < beta < r - 1 and
    0 < gamma < 1 (so a nan exponent is rejected)."""
    if r < 2:
        raise InvalidArgumentError("r >= 2 violated")
    if not 0 < alpha < beta < r - 1:
        raise InvalidArgumentError("0 < alpha < beta < r - 1 violated")
    if not 0 < gamma < 1:
        raise InvalidArgumentError("0 < gamma < 1 violated")


@dataclass(frozen=True)
class RationalParams:
    """Exact rational densities for the tiny-scale enumerators."""

    n: int
    r: int
    p: Fraction
    q: Fraction
    rho: Fraction

    @property
    def sigma_sq(self) -> Fraction:
        return self.q * (1 - self.q)


@dataclass(frozen=True)
class PlantedSample:
    Z: FrozenSet[int]
    Y: Hypergraph


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending; sorts `values` in place.
    np.unique gives the same, but took 20-60x longer under numpy 2.4."""
    values.sort()
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct_positions(rng, k: int, m: int) -> np.ndarray:
    """k distinct positions drawn uniformly from [0, m), ascending.

    Uniform integers are deduplicated: as many as give k distinct values on
    average, plus a margin, and more in the rare case that is still short.
    A uniformly chosen excess is then dropped. Every step treats all
    positions alike, so the result is a uniform k-subset. Past m / 2 the
    m - k absent positions are drawn instead, so collisions stay rare.
    """
    if 2 * k > m:
        keep = np.ones(m, dtype=bool)
        keep[_distinct_positions(rng, m - k, m)] = False
        return np.flatnonzero(keep)
    if not k:
        return np.empty(0, dtype=np.int64)
    repeats = max(0.0, -m * math.log1p(-k / m) - k)  # expected repeated draws
    pos = _sorted_distinct(rng.integers(0, m, k + int(repeats + 3 * math.sqrt(repeats)) + 1))
    while pos.size < k:
        pos = _sorted_distinct(np.concatenate([pos, rng.integers(0, m, k - pos.size)]))
    keep = np.ones(pos.size, dtype=bool)
    keep[rng.choice(pos.size, pos.size - k, replace=False)] = False
    return pos[keep]


def _planted_counts(rng, params: ProblemParams) -> Tuple[np.ndarray, int, int, int]:
    """The first three steps of a planted draw from `rng`: the memberships z
    of vertices 1..n, from n uniforms; a Binomial(m_in, p) count c_in of the
    present edges among the m_in = C(|Z|, r) within Z; a Binomial(M - m_in, q)
    count c_out of the present edges outside. Returns (z, m_in, c_in, c_out)."""
    check_rank_space(params.n, params.r)
    z = rng.random(params.n) < params.rho
    m_in = comb(int(np.count_nonzero(z)), params.r)
    c_in = int(rng.binomial(m_in, params.p))
    return z, m_in, c_in, int(rng.binomial(params.M - m_in, params.q))


def sample_null(
    params: ProblemParams, seed: int, key: Sequence[int] = ()
) -> Hypergraph:
    """One draw of the null model: each edge present independently w.p. q.

    A Binomial(M, q) edge count, then that many distinct ranks, in O(Mq)
    time.
    """
    check_rank_space(params.n, params.r)
    rng = child_rng(seed, *key)
    ranks = _distinct_positions(rng, int(rng.binomial(params.M, params.q)), params.M)
    return Hypergraph.from_ranks(params.n, params.r, ranks)


def sample_planted(
    params: ProblemParams, seed: int, key: Sequence[int] = ()
) -> PlantedSample:
    """One draw of the planted model.

    Z has i.i.d. Ber(rho) memberships; given Z, edges inside Z are Ber(p) and
    all others Ber(q). One child stream is read in this order: the n
    membership uniforms; a Binomial(C(|Z|, r), p) count of the present edges
    within Z; a Binomial count of the present edges outside Z; the positions
    of the within-Z edges among the within-Z ranks; the positions of the
    others among the other ranks. A draw costs
    O(n + Mq log C(|Z|, r) + C(|Z|, r)), not O(C(n, r)). A draw stopped after
    the two counts gives its edge count (see `edge_count`). Event trials need
    only a draw's planted part, up to relabelling, and draw it in batches
    from a stream of their own (see `within_z_edge_draws`).
    """
    z, ranks = _planted_ranks(child_rng(seed, *key), params)
    return PlantedSample(frozenset((np.flatnonzero(z) + 1).tolist()),
                         Hypergraph.from_ranks(params.n, params.r, ranks))


def _planted_ranks(rng, params: ProblemParams) -> Tuple[np.ndarray, np.ndarray]:
    """The memberships z and the ascending edge ranks of a planted draw from
    `rng`, read in the order that `sample_planted` gives."""
    z, m_in, c_in, c_out = _planted_counts(rng, params)
    within = within_ranks((np.flatnonzero(z) + 1).tolist(), params.n, params.r)
    inside = within[_distinct_positions(rng, c_in, m_in)]
    outside = _distinct_positions(rng, c_out, params.M - m_in)
    # outside position x is rank x plus the number of j with within[j] - j <= x,
    # the within-Z ranks below that rank
    outside = outside + np.searchsorted(within - np.arange(within.size), outside, side="right")
    ranks = np.concatenate([outside, inside])
    ranks.sort(kind="stable")  # merges the two ascending runs
    return z, ranks


def edge_count(
    params: ProblemParams, seed: int, key: Sequence[int] = (), planted: bool = False
) -> int:
    """The edge count of `sample_null(params, seed, key)`, or with `planted`
    of `sample_planted(params, seed, key).Y`, without the draw's ranks.

    The same stream is read in the same order, with the same budget guard,
    and stopped after the edge counts, so no position is drawn and no rank
    table is built. A planted count costs O(n) and a null count O(1).
    """
    if planted:
        _, _, c_in, c_out = _planted_counts(child_rng(seed, *key), params)
        return c_in + c_out
    check_rank_space(params.n, params.r)
    return int(child_rng(seed, *key).binomial(params.M, params.q))


def within_z_edge_draws(
    params: ProblemParams, seed: int, trials: int, at_least: float = 0
) -> List[Tuple[int, Optional[np.ndarray]]]:
    """The planted parts of `trials` planted draws, as (|Z|, edges) pairs:
    edges is a (K, r) array, in rank order, of the edges within Z over the
    labels 1..|Z| of sorted Z, or None, with no position drawn, when
    K < `at_least`.

    One child stream is read in this order: every |Z| as one
    Binomial(n, rho) vector, the same law as n Ber(rho) memberships; every
    within-Z count as one Binomial(C(|Z|, r), p) vector; then, in trial
    order and only for the trials whose count reaches `at_least`, the
    within-Z positions. No outside count is drawn and no C(n, r)-sized
    count is formed, so n may exceed the rank-table budget as long as every
    C(|Z|, r) fits in int64.
    """
    n, r = params.n, params.r
    if n >= 1 << 63:
        raise BudgetExceededError(f"n={n} does not fit in int64 (limit 2^63)")
    rng = child_rng(seed)
    sizes = rng.binomial(n, params.rho, size=trials).tolist()
    check_rank_space(max(max(sizes, default=0), r), r)
    m_in = [comb(k, r) for k in sizes]
    counts = rng.binomial(m_in, params.p).tolist()
    draws = []
    for k, m, c in zip(sizes, m_in, counts):
        if c < at_least:
            draws.append((k, None))
        elif not m:  # |Z| < r: no r-subset to unrank among
            draws.append((k, np.empty((0, r), dtype=np.int64)))
        else:
            draws.append((k, unrank_edges(_distinct_positions(rng, c, m), k, r)))
    return draws


def exact_spike(params: ProblemParams) -> float:
    """The unique spike scalar making the planted-planted edge probability p."""
    return params.rho * (params.p - params.q) / (params.sigma * (1.0 - params.rho))


def aux_edge_probabilities(params: ProblemParams, spike: float) -> Tuple[float, float, float]:
    """Edge probabilities (both planted, mixed, both unplanted) under the spike."""
    rho, q, sigma = params.rho, params.q, params.sigma
    uu_in = (1.0 - rho) / rho
    uu_out = rho / (1.0 - rho)
    return (
        q + sigma * spike * uu_in,
        q - sigma * spike,
        q + sigma * spike * uu_out,
    )


def validate_aux_feasible(params: ProblemParams, spike: float) -> None:
    if params.r != 2:
        raise InvalidArgumentError("auxiliary model is defined for r = 2 only")
    names = ("planted-planted", "mixed", "unplanted-unplanted")
    for name, prob in zip(names, aux_edge_probabilities(params, spike)):
        if not 0.0 <= prob <= 1.0:
            raise InfeasibleError(
                f"{name} edge probability {prob} outside [0, 1] for spike {spike}"
            )


def sample_aux(
    params: ProblemParams, seed: int, key: Sequence[int] = ()
) -> PlantedSample:
    """One draw of the auxiliary distribution (r = 2): its planted set Z and
    hypergraph Y.

    Z has the planted model's Ber(rho) memberships; given Z, pairs are
    independent at the rates (a, b, c) of `aux_edge_probabilities` under
    exact_spike: within Z, mixed and outside Z. One child stream is read in
    this order: a planted draw (see `sample_planted`) with p = a and
    q = t = max(b, c), so Z is `sample_planted`'s Z; then one uniform per
    drawn pair, in rank order, keeping a mixed pair below b / t and an
    outside pair below c / t (always, when p >= q). A draw costs
    O(n + Mt + C(|Z|, 2)), and n has `sample_planted`'s rank-table budget.
    """
    lam = exact_spike(params)
    validate_aux_feasible(params, lam)
    a, b, c = aux_edge_probabilities(params, lam)
    t = max(b, c)
    rng = child_rng(seed, *key)
    z, ranks = _planted_ranks(rng, ProblemParams(params.n, 2, a, t, params.rho))
    in_z = z[unrank_edges(ranks, params.n, 2) - 1].sum(axis=1)  # ends in Z: 0, 1 or 2
    keep = rng.random(ranks.size) < np.array([c, b, t])[in_z] / t
    return PlantedSample(frozenset((np.flatnonzero(z) + 1).tolist()),
                         Hypergraph.from_ranks(params.n, 2, ranks[keep]))


@dataclass(frozen=True)
class AuxBoundResult:
    value: float
    terms: Tuple[float, ...]  # term d at index d


def _inner_product_moments(rho: Fraction, n: int, K: int) -> List[Fraction]:
    """E<u,v>^k for k = 0..K, u and v independent membership vectors.

    <u,v> is a sum of n i.i.d. X, each a^2 = (1 - rho)/rho, ab = -1 or
    b^2 = rho/(1 - rho) w.p. rho^2, 2 rho(1 - rho) and (1 - rho)^2, so
    E<u,v>^k = k! [t^k] A(t) for A = M^n, M(t) = sum_j E[X^j] t^j / j!.
    A's coefficients follow from M A' = n M' A (J. C. P. Miller's power
    recurrence; Knuth, TAOCP vol. 2, 4.7), with c_0 = 1:
    k a_k = sum_{j=1..k} ((n + 1) j - k) c_j a_{k-j}.
    """
    weights = ((rho * rho, (1 - rho) / rho), (2 * rho * (1 - rho), Fraction(-1)),
               ((1 - rho) ** 2, rho / (1 - rho)))
    c = [sum(w * x ** j for w, x in weights) / math.factorial(j) for j in range(K + 1)]
    a = [Fraction(1)]
    for k in range(1, K + 1):
        a.append(sum(((n + 1) * j - k) * c[j] * a[k - j] for j in range(1, k + 1)) / k)
    return [math.factorial(k) * a_k for k, a_k in enumerate(a)]


def aux_ldlr_upper_bound(params: ProblemParams, D: int) -> AuxBoundResult:
    """sum_{d<=D} lambda^{2d}/d! * E<u,v>^{2d}, lambda = exact_spike, exactly.

    u and v are independent copies of the membership vector. lambda^2 =
    rho^2 (p - q)^2 / (q(1 - q)(1 - rho)^2) and the moments are rational in
    the binary densities, so every term and the total are exact Fractions,
    each rounded once to a float.
    """
    if params.r != 2:
        raise InvalidArgumentError("auxiliary bound is defined for r = 2 only")
    if D < 0:
        raise InvalidArgumentError("D >= 0 required")
    rp = params.exact()
    lam_sq = rp.rho ** 2 * (rp.p - rp.q) ** 2 / (rp.sigma_sq * (1 - rp.rho) ** 2)
    moments = _inner_product_moments(rp.rho, params.n, 2 * D)
    exact = [lam_sq ** d / math.factorial(d) * moments[2 * d] for d in range(D + 1)]
    return AuxBoundResult(
        value=float(sum(exact)),
        terms=tuple(float(t) for t in exact),
    )
