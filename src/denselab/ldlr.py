"""Squared norm of the low-degree likelihood ratio, plain and conditional.

The basis is the standardized edge-product family phi_S = prod_{e in S}
(Y_e - q)/sigma, orthonormal under the null. The unconditional norm has a
closed form as a sum over (vertex count, edge count) classes; the conditional
variant restricts the planted model to the event E that the planted part
contains no subgraph whose class index lies in the conditioning index set.
"""

from __future__ import annotations

import csv
import decimal
import io
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import jsonout
from .errors import BudgetExceededError, InvalidArgumentError
from .hypergraph import (
    SUBSET_BUDGET,
    Edge,
    Hypergraph,
    all_edges,
    class_table,
    induced_vertices,
    unrank_edges,
    vertex_subset_densities,
    within_ranks,
)
from .models import ProblemParams, RationalParams, within_z_edge_draws

# Powers of rho^2 and w2 are truncated to mantissas of at least this many bits.
MANT_BITS = 192
# Slow-path log10s are taken at 40 digits; the float estimate below is within
# _LOG10_ERR of the true value (f's rounding and the float log10 of f).
_LOG10 = decimal.Context(prec=40)
_LOG10_2 = _LOG10.log10(decimal.Decimal(2))
_LOG10_ERR = decimal.Decimal("1e-15")


def phi_expectation_planted_scaled(S: Iterable[Edge], rp: RationalParams) -> Fraction:
    """E_P[phi_S] * sigma^|S| = rho^ell (p-q)^m, exactly, for ell = |V(S)| and
    m = |S|."""
    edges = list(S)
    return rp.rho ** len(induced_vertices(edges)) * (rp.p - rp.q) ** len(edges)


@dataclass(frozen=True)
class LdlrClassTerm:
    ell: int
    m: int
    class_count: int
    term: float
    term_log10: float  # finite where `term` underflows to 0.0 or overflows to inf

    @property
    def class_count_log10(self) -> float:
        return math.log10(self.class_count) if self.class_count > 0 else -math.inf


def _ratio_float(num: int, den: int) -> float:
    """num / den (den > 0) rounded once to the nearest float; inf past the
    float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _log10(num: int, den: int) -> float:
    """log10(num / den) for num >= 0, den > 0, rounded to the nearest float.

    With num / den = f * 2^e, f in (1/2, 2), the estimate is the float log10
    of f plus e * log10(2) at 40 digits. Where the estimate's error bound
    straddles a rounding boundary, log10 is taken at 40 digits instead.
    """
    if num == 0:
        return -math.inf
    e = num.bit_length() - den.bit_length()
    f = (num << -e) / den if e < 0 else num / (den << e)
    est = _LOG10.add(decimal.Decimal(math.log10(f)), _LOG10.multiply(e, _LOG10_2))
    lo = float(_LOG10.subtract(est, _LOG10_ERR))
    if lo == float(_LOG10.add(est, _LOG10_ERR)):
        return lo
    return float(
        _LOG10.subtract(_LOG10.log10(decimal.Decimal(num)), _LOG10.log10(decimal.Decimal(den)))
    )


def _class_term(ell: int, m: int, class_count: int, num: int, den: int) -> LdlrClassTerm:
    """The class term from its exact value num / den (num >= 0, den > 0); its
    log10 comes from that value where the float is 0, subnormal or inf."""
    term = _ratio_float(num, den)
    if sys.float_info.min <= term < math.inf:
        return LdlrClassTerm(ell, m, class_count, term, math.log10(term))
    return LdlrClassTerm(ell, m, class_count, term, _log10(num, den))


def _exact_class_sums(
    parts: Iterable[Tuple[Tuple[int, int], int, Fraction]]
) -> Tuple[Fraction, Tuple[LdlrClassTerm, ...]]:
    """Merge parts (class (|V(S)|, |S|), subset count, exact sum of E[phi_S]^2
    over those subsets) per class: the sum over all classes, and the class
    terms in ascending class order."""
    by_class: Dict[Tuple[int, int], Tuple[int, Fraction]] = {}
    for key, n_sets, part in parts:
        cnt, acc = by_class.get(key, (0, Fraction(0)))
        by_class[key] = (cnt + n_sets, acc + part)
    terms = tuple(
        _class_term(ell, m, cnt, *acc.as_integer_ratio())
        for (ell, m), (cnt, acc) in sorted(by_class.items())
    )
    return sum((acc for _, acc in by_class.values()), Fraction(0)), terms


@dataclass(frozen=True)
class LdlrResult:
    value: float
    value_minus_one: float
    per_class: Tuple[LdlrClassTerm, ...]
    method: str  # "exact-formula" | "brute-force" | "conditional-exact"
    exact_value: Optional[Fraction] = None
    p_event: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        d = {
            "value": self.value,
            "valueMinusOne": self.value_minus_one,
            "method": self.method,
            "perClass": [
                {"ell": t.ell, "m": t.m, "classCount": t.class_count, "term": t.term}
                for t in self.per_class
            ],
        }
        if self.p_event is not None:
            d["pEvent"] = float(self.p_event)
        return d

    def to_json(self) -> str:
        try:
            return jsonout.dumps(self.to_json_dict())
        except ValueError as exc:  # Python's limit on int-to-str digits
            raise BudgetExceededError(f"{exc}; --format csv gives classCountLog10") from None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ell", "m", "classCountLog10", "termLog10"])
        for t in self.per_class:
            writer.writerow(
                [t.ell, t.m, repr(t.class_count_log10), repr(t.term_log10)]
            )
        return buf.getvalue()


def _truncated(x: Fraction) -> Tuple[int, int]:
    """(mant, exp) with mant = floor(x / 2^exp) of at least MANT_BITS bits."""
    num, den = x.as_integer_ratio()
    shift = MANT_BITS + 1 - num.bit_length() + den.bit_length()
    mant = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return mant, -shift


def ldlr_norm_exact(params: ProblemParams, D: int) -> LdlrResult:
    """||L_{<=D}||^2 = 1 + sum_{ell,m} |S_{ell,m}| rho^{2ell} ((p-q)^2/sigma^2)^m.

    Class counts are exact big integers, C(n, ell) times the n-independent
    `class_table(r, D)` entry, which is built once per (r, D), rejects D < 0
    and raises BudgetExceededError past LDLR_CLASS_BUDGET classes. rho^{2ell}
    and w2^m are the exact powers of the binary densities, truncated to
    integer mantissas of at least MANT_BITS bits with binary exponents, so a
    term is the exact integer count times two mantissas, and the total is
    one exact integer sum at the smallest exponent: classes spanning
    thousands of orders of magnitude sum stably. Each float is one
    correctly rounded int / int division. Cost is polynomial in D and
    independent of M.
    """
    n = params.n
    table = class_table(params.r, D)
    rp = params.exact()
    rho_sq = rp.rho ** 2
    w2 = (rp.p - rp.q) ** 2 / rp.sigma_sq
    w2_pow = [_truncated(w2 ** m) for m in range(D + 1)]
    terms: List[LdlrClassTerm] = []
    total, base = 0, 0  # the sum so far is total * 2^base, base <= 0
    ell_done = None
    for (ell, m), free in table.items():  # ascending ell, then m
        if ell != ell_done:
            if ell > n:
                break
            n_sets, (rho_man, rho_exp), ell_done = comb(n, ell), _truncated(rho_sq ** ell), ell
        cnt = n_sets * free  # |S_{ell,m}|, as count_subgraph_class
        w_man, w_exp = w2_pow[m]
        term, exp = cnt * rho_man * w_man, rho_exp + w_exp
        if exp < base:
            total, base = total << (base - exp), exp
        total += term << (exp - base)
        num, den = (term, 1 << -exp) if exp < 0 else (term << exp, 1)
        terms.append(_class_term(ell, m, cnt, num, den))
    one = 1 << -base
    return LdlrResult(
        value=_ratio_float(total + one, one),
        value_minus_one=_ratio_float(total, one),
        per_class=tuple(terms),
        method="exact-formula",
    )


def ldlr_norm_bruteforce(params: ProblemParams, D: int) -> LdlrResult:
    """Direct sum of E_P[phi_S]^2 over every edge subset with |S| <= D.

    Each subset is enumerated and classed by its own vertex count; at most
    SUBSET_BUDGET subsets are allowed, checked up to the first partial sum
    past it. The sum is carried in rational arithmetic on the exact binary
    values of (p, q, rho) and returned in exact_value.
    """
    if D < 0:
        raise InvalidArgumentError("D >= 0 required")
    M = params.M
    top = min(D, M)  # no subset has more than M edges
    partial_sums = itertools.accumulate(comb(M, d) for d in range(top + 1))
    if any(total > SUBSET_BUDGET for total in partial_sums):
        raise BudgetExceededError(
            f"sum of C({M}, d) for d <= {D} exceeds SUBSET_BUDGET = {SUBSET_BUDGET}"
        )
    universe = list(all_edges(params.n, params.r))
    rp = params.exact()
    classes: Dict[Tuple[int, int], List] = {}  # class -> [subset count, one subset]
    for m in range(1, top + 1):
        for S in itertools.combinations(universe, m):
            classes.setdefault((len(induced_vertices(S)), m), [0, S])[0] += 1
    # E_P[phi_S] depends on S only through its class: one exact square per class
    total_sq, terms = _exact_class_sums(
        (key, cnt, cnt * phi_expectation_planted_scaled(S, rp) ** 2 / rp.sigma_sq ** len(S))
        for key, (cnt, S) in classes.items()
    )
    return LdlrResult(
        value=float(1 + total_sq),
        value_minus_one=float(total_sq),
        per_class=terms,
        method="brute-force",
        exact_value=1 + total_sq,
    )


# --- conditioning on the sparse-planted-part event E -------------------------


@dataclass(frozen=True)
class ConditioningSpec:
    """Degree cap D, the table ell -> m_ell, and the index set I.

    m_ell = ceil(ell * (gamma/alpha + delta)), computed in exact rational
    arithmetic on the decimal forms of gamma, alpha, delta; I keeps only the
    (ell, m) with m_ell <= m <= D and a nonempty subgraph class.
    """

    D: int
    r: int
    m_table: Dict[int, int]
    index_set: FrozenSet[Tuple[int, int]]


def build_conditioning_spec(
    params: ProblemParams, delta: float, D: int
) -> ConditioningSpec:
    if not 0 < delta < math.inf:
        raise InvalidArgumentError(f"finite delta > 0 required, got {delta}")
    if params.alpha is None or params.gamma is None:
        raise InvalidArgumentError("conditioning requires exponent-form params")
    rate = Fraction(str(params.gamma)) / Fraction(str(params.alpha)) + Fraction(
        str(delta)
    )
    r = params.r
    table = class_table(r, D)
    m_table = {ell: math.ceil(ell * rate) for ell in range(r, r * D + 1)}
    index = frozenset(
        (ell, m)
        for ell, m_ell in m_table.items()
        for m in range(m_ell, D + 1)
        if (ell, m) in table
    )
    return ConditioningSpec(D=D, r=r, m_table=m_table, index_set=index)


def _dense_subset_exists(
    present: Sequence[Sequence[int]], spec: ConditioningSpec
) -> bool:
    """Whether some S of the present edges, |S| <= D, has |S| >= m_{|V(S)|}.

    Equivalent vertex form: some ell-subset of V(C) induces at least m_ell
    edges, for an ell with m_ell <= D feasible on ell vertices (taking m_ell
    of those edges gives a witness S, since m_ell is nondecreasing in ell).
    Enumerating vertex subsets keeps the cost bounded by the planted part's
    vertex count rather than its edge count; the subsets of every such ell
    together must fit SUBSET_BUDGET, checked before the search starts.
    """
    if not spec.index_set or not present:
        return False
    m_req = spec.m_table
    cap = min(spec.D, len(present))
    sizes = [
        ell
        for ell in range(spec.r, spec.r * cap + 1)
        if m_req[ell] <= cap and m_req[ell] <= comb(ell, spec.r)
    ]
    return any(
        m_in >= m_req[ell] for ell, m_in, _ in vertex_subset_densities(present, sizes)
    )


def event_holds(
    Z: FrozenSet[int],
    Y: Hypergraph,
    params: ProblemParams,
    spec: ConditioningSpec,
) -> bool:
    """E of the conditional construction: the planted part C = H[Z] contains no
    edge subset whose (vertex count, edge count) lies in the index set."""
    if not Y.edge_count:
        return True
    ranks = within_ranks(Z, params.n, params.r)
    # Y.ranks[pos] is the largest edge rank <= each within-Z rank; pos = -1
    # wraps to the largest edge rank, which is then above it, so no match.
    pos = np.searchsorted(Y.ranks, ranks, side="right") - 1
    present = unrank_edges(ranks[Y.ranks[pos] == ranks], params.n, params.r)
    return not _dense_subset_exists(present.tolist(), spec)


@dataclass(frozen=True)
class EventProbability:
    value: float
    std_error: float
    trials: int


def estimate_event_probability(
    params: ProblemParams, spec: ConditioningSpec, trials: int, seed: int
) -> EventProbability:
    """Monte Carlo estimate of P(E) under the planted law.

    E depends on a draw only through its edges within Z, up to relabelling,
    and every witness S has (|V(S)|, |S|) in the index set, so a trial with
    fewer within-Z edges than the smallest m there holds E without drawing
    positions; with I empty no trial draws any. All trials come from one
    `within_z_edge_draws` call, which reads one stream in this order: every
    |Z|, every within-Z count, then the positions of the trials that reach
    that m. The cost is O(trials) plus those trials' positions and subset
    checks, independent of n, and the result is a pure function of
    (params, spec, trials, seed).
    """
    if trials < 1:
        raise InvalidArgumentError("trials >= 1 required")
    at_least = min((m for _, m in spec.index_set), default=math.inf)
    draws = within_z_edge_draws(params, seed, trials, at_least)
    hits = sum(
        present is None or not _dense_subset_exists(present.tolist(), spec)
        for _, present in draws
    )
    freq = hits / trials
    se = math.sqrt(freq * (1.0 - freq) / trials)
    return EventProbability(value=freq, std_error=se, trials=trials)


CONDITIONAL_TINY_BUDGET_N = {2: 4, 3: 4}


def _conditional_numerators(
    params: ProblemParams, spec: ConditioningSpec
) -> Tuple[Fraction, Dict[Tuple[Edge, ...], Fraction]]:
    """P(E) and the map S0 -> E_P[phi_S0 1_E] * sigma^{|S0|} over the shapes
    S0, all exact: the stratified sum of `conditional_ldlr_exact_tiny`."""
    n, r, D = params.n, params.r, spec.D
    if n > CONDITIONAL_TINY_BUDGET_N.get(r, -1):
        pairs = " and ".join(f"n <= {k} at r = {j}" for j, k in CONDITIONAL_TINY_BUDGET_N.items())
        raise BudgetExceededError(
            f"conditional enumeration supports only {pairs}; got n = {n}, r = {r}"
        )
    rp = params.exact()
    p_event, num = Fraction(0), {}
    for k in range(n + 1):
        edges = list(all_edges(k, r))
        held = [(g, g.bit_count()) for g in range(1 << len(edges)) if not _dense_subset_exists(
            [e for i, e in enumerate(edges) if g >> i & 1], spec)]
        pz = rp.rho ** k * (1 - rp.rho) ** (n - k)
        prob = [pz * rp.p ** s * (1 - rp.p) ** (len(edges) - s) for s in range(len(edges) + 1)]
        p_event += comb(n, k) * sum(prob[s] for _, s in held)
        for m in range(1, min(D, len(edges)) + 1):
            signed = [(1 - rp.q) ** j * (-rp.q) ** (m - j) for j in range(m + 1)]
            weight = [[ps * sg for sg in signed] for ps in prob]
            parts = {}  # shapes with equal bins, isomorphic ones among them, share one sum
            for S0 in itertools.combinations(range(len(edges)), m):
                shape = tuple(edges[i] for i in S0)
                ell = len(induced_vertices(shape))
                if max(e[-1] for e in shape) == ell:  # V(shape) = 1..ell
                    mask = sum(1 << i for i in S0)
                    bins = frozenset(Counter((s, (g & mask).bit_count()) for g, s in held).items())
                    if bins not in parts:
                        parts[bins] = sum(c * weight[s][j] for (s, j), c in bins)
                    num[shape] = num.get(shape, 0) + comb(n - ell, k - ell) * parts[bins]
    return p_event, num


def conditional_ldlr_exact_tiny(
    params: ProblemParams, spec: ConditioningSpec
) -> LdlrResult:
    """Exact ||L'_{<=D}||^2, tiny instances only.

    E_{P'}[phi_S] = E_P[phi_S 1_E] / P(E), and P(E) > 0, since E holds when
    H[Z] has no edges. E_P[phi_S 1_E] = 0 unless V(S) lies inside Z: an edge
    of S leaving Z has a mean-zero factor independent of E, which reads only
    H[Z]. Given |Z| = k, H[Z] is G^r(k, p) up to relabelling, and E does not
    change under relabelling. So the sums run over the n + 1 strata k, each
    over the graphs g on 1..k where E holds, as bit masks over its edges,
    binned by (|g|, |g & S0|) for each shape S0: an edge set of size 1..D
    whose vertex set is exactly 1..ell. A shape stands for the C(n, ell)
    labelled S of its form, and it takes C(n - ell, k - ell) copies of stratum
    k, whose probability is C(n, k) rho^k (1 - rho)^(n - k). All arithmetic is
    rational (sigma powers kept symbolic), so the I = empty case reproduces
    the unconditional brute-force value exactly.
    """
    n, rp = params.n, params.exact()
    p_event, num = _conditional_numerators(params, spec)
    total_sq, terms = _exact_class_sums(
        ((ell, len(S0)), comb(n, ell), comb(n, ell) * (c / p_event) ** 2 / rp.sigma_sq ** len(S0))
        for S0, c in num.items()
        for ell in [len(induced_vertices(S0))]
    )
    total = 1 + total_sq  # the empty S contributes 1
    return LdlrResult(
        value=float(total),
        value_minus_one=float(total - 1),
        per_class=terms,
        method="conditional-exact",
        exact_value=total,
        p_event=p_event,
    )


def conditional_term_bound(
    params: ProblemParams, spec: ConditioningSpec, ell: int, m: int
) -> float:
    """Closed-form bound on |E_P[phi_S 1_E]| for one S with the given class.

    Good classes use rho^ell (2p/sigma)^m; bad classes additionally exploit
    that E forces at least m - m_ell + 1 of S's edges to be absent.
    """
    rho, p, q, sigma = params.rho, params.p, params.q, params.sigma
    if (ell, m) not in spec.index_set:
        return rho ** ell * (2.0 * p / sigma) ** m
    m_ell = spec.m_table[ell]
    return (
        rho ** ell
        * comb(m, m_ell - 1)
        * q ** (m - m_ell + 1)
        * (2.0 * p) ** (m_ell - 1)
        / sigma ** m
    )

