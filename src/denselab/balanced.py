"""Balancedness checking and balanced-motif search.

A hypergraph is balanced when every nonempty subhypergraph has edge/vertex
ratio at most the whole graph's ratio (non-strict). The motif search targets
the minimal-denominator rational in the open interval (1/beta, gamma/alpha),
selected by Stern-Brocot descent on inward-rounded rational endpoints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import FrozenSet, Tuple

from . import jsonout
from .errors import BudgetExceededError, InvalidArgumentError, RegimeError
from .hypergraph import (
    Hypergraph,
    all_edges,
    count_embeddings,
    induced_vertices,
    vertex_subset_densities,
)
from .models import check_exponent_domain

ENDPOINT_DENOM = 10 ** 9
# find_balanced_motif gives up past motifs of MOTIF_MAX_ELL vertices, or
# after MOTIF_CANDIDATE_BUDGET edge sets scanned over all sizes.
MOTIF_MAX_ELL = 12
MOTIF_CANDIDATE_BUDGET = 5_000_000


@dataclass(frozen=True)
class BalanceCertificate:
    ratio: Fraction
    max_sub_density: Fraction
    witness: FrozenSet[int]

    @property
    def balanced(self) -> bool:
        return self.max_sub_density <= self.ratio


@dataclass(frozen=True)
class BalancedMotif:
    motif: Hypergraph
    ell: int
    m: int
    ratio: Fraction
    aut_count: int
    certificate: BalanceCertificate

    def to_json_dict(self) -> dict:
        return {
            "n": self.motif.n,
            "r": self.motif.r,
            "edges": [list(e) for e in self.motif.sorted_edges()],
            "ratio": [self.ratio.numerator, self.ratio.denominator],
            "maxSubDensity": [
                self.certificate.max_sub_density.numerator,
                self.certificate.max_sub_density.denominator,
            ],
            "witness": sorted(self.certificate.witness),
            "autCount": self.aut_count,
        }

    def to_json(self) -> str:
        return jsonout.dumps(self.to_json_dict())


def motif_from_json_dict(d: dict) -> BalancedMotif:
    return certify_motif(Hypergraph(d["n"], d["r"], d["edges"]))


def certify_motif(hg: Hypergraph) -> BalancedMotif:
    """Build a BalancedMotif for hg, recomputing its certificate from scratch.
    Raises InvalidArgumentError when hg has an isolated vertex (see
    max_subgraph_density) or is not balanced."""
    ok, cert = is_balanced(hg)
    if not ok:
        raise InvalidArgumentError("motif is not balanced")
    return BalancedMotif(
        motif=hg,
        ell=hg.n,
        m=hg.edge_count,
        ratio=Fraction(hg.edge_count, hg.n),
        aut_count=automorphism_count(hg),
        certificate=cert,
    )


def max_subgraph_density(hg: Hypergraph) -> Tuple[Fraction, FrozenSet[int]]:
    """Max over nonempty vertex subsets V' of |E(H[V'])| / |V'|, with a witness:
    the first subset in (size, lexicographic) order that reaches the maximum.

    The vertex-subset form suffices: isolated vertices only lower the ratio,
    and for fixed V' the ratio is maximized by taking all induced edges. The
    2^n - 1 subsets must fit SUBSET_BUDGET, so n <= 23. Raises
    InvalidArgumentError when hg has an isolated vertex, as an empty one has.
    """
    edges = hg.sorted_edges()
    verts = induced_vertices(edges)
    if len(verts) != hg.n:
        raise InvalidArgumentError("motif must have no isolated vertices")
    best_m, best_size, best_witness = 0, 1, (min(verts),)
    for size, m_in, sub in vertex_subset_densities(edges, range(1, hg.n + 1)):
        if m_in * best_size > best_m * size:  # m_in / size beats the best ratio
            best_m, best_size, best_witness = m_in, size, sub
    return Fraction(best_m, best_size), frozenset(best_witness)


def is_balanced(hg: Hypergraph) -> Tuple[bool, BalanceCertificate]:
    ratio = Fraction(hg.edge_count, hg.n)
    max_density, witness = max_subgraph_density(hg)
    cert = BalanceCertificate(ratio=ratio, max_sub_density=max_density, witness=witness)
    return cert.balanced, cert


def automorphism_count(hg: Hypergraph) -> int:
    """|Aut(H)|, counted as the embeddings of H into itself."""
    return count_embeddings(hg, hg)


def simplest_fraction_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator fraction in the open interval (lo, hi), lo < hi."""
    if not lo < hi:
        raise InvalidArgumentError(f"empty interval ({lo}, {hi})")
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return Fraction(fl + 1)
    a, b = lo - fl, hi - fl  # 0 <= a < b <= 1
    if a == 0:
        # simplest in (0, b) is 1/k for the smallest valid k
        k = (1 / b).numerator // (1 / b).denominator + 1
        return fl + Fraction(1, k)
    return fl + 1 / simplest_fraction_between(1 / b, 1 / a)


def ratio_interval(alpha: float, beta: float, gamma: float) -> Tuple[Fraction, Fraction]:
    """Rational brackets of (1/beta, gamma/alpha), rounded inward at 1e-9 width."""
    lo = Fraction(math.ceil(ENDPOINT_DENOM / beta), ENDPOINT_DENOM)
    hi = Fraction(math.floor(gamma / alpha * ENDPOINT_DENOM), ENDPOINT_DENOM)
    if not lo < hi:
        raise RegimeError(f"interval (1/{beta}, {gamma}/{alpha}) too narrow to bracket")
    return lo, hi


def find_balanced_motif(alpha: float, beta: float, gamma: float, r: int) -> BalancedMotif:
    """Search for the canonically smallest balanced motif with ratio in (1/beta, gamma/alpha).

    Requires exponents inside check_exponent_domain (InvalidArgumentError
    otherwise) and the small-gamma regime gamma < 1/2, alpha < beta*gamma
    (RegimeError otherwise). Candidate sizes are (ell, m) = k * (denominator,
    numerator) of the Stern-Brocot target ratio; within a size, edge sets of
    K_ell^r are scanned in lexicographic rank order and the first balanced
    isolated-free set wins. BudgetExceededError past MOTIF_MAX_ELL or
    MOTIF_CANDIDATE_BUDGET.
    """
    check_exponent_domain(alpha, beta, gamma, r)
    if not (gamma < 0.5 and alpha < beta * gamma):
        raise RegimeError(
            f"regime gamma < 1/2 and alpha < beta*gamma required; "
            f"got gamma={gamma}, alpha={alpha}, beta*gamma={beta * gamma}"
        )
    lo, hi = ratio_interval(alpha, beta, gamma)
    target = simplest_fraction_between(lo, hi)
    num, den = target.numerator, target.denominator
    examined = 0
    k = 0
    while True:
        k += 1
        ell, m = k * den, k * num
        if ell > MOTIF_MAX_ELL:
            raise BudgetExceededError(
                f"no balanced motif with ratio {target} found within "
                f"ell <= MOTIF_MAX_ELL = {MOTIF_MAX_ELL} ({examined} candidates examined)"
            )
        if ell < r or m > comb(ell, r):
            continue
        universe = list(all_edges(ell, r))
        full = frozenset(range(1, ell + 1))
        for edge_set in itertools.combinations(universe, m):
            examined += 1
            if examined > MOTIF_CANDIDATE_BUDGET:
                raise BudgetExceededError(
                    f"MOTIF_CANDIDATE_BUDGET = {MOTIF_CANDIDATE_BUDGET} candidates "
                    f"exhausted before reaching ratio {target}"
                )
            if induced_vertices(edge_set) != full:
                continue
            try:
                return certify_motif(Hypergraph(ell, r, edge_set))
            except InvalidArgumentError:  # not balanced: isolated-free is checked above
                continue
