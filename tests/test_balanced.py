import itertools
import json
from fractions import Fraction

import pytest

from denselab.balanced import (
    automorphism_count,
    certify_motif,
    find_balanced_motif,
    is_balanced,
    max_subgraph_density,
    motif_from_json_dict,
    ratio_interval,
    simplest_fraction_between,
)
from denselab.errors import BudgetExceededError, InvalidArgumentError, RegimeError
from denselab.hypergraph import Hypergraph, all_edges, induced_vertices
from oracles import check_complement_inequality, complete


def triangle():
    return Hypergraph(3, 2, frozenset({(1, 2), (1, 3), (2, 3)}))


def test_max_density_triangle_plus_pendant():
    hg = Hypergraph(4, 2, frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}))
    density, witness = max_subgraph_density(hg)
    assert density == Fraction(1)
    assert witness == frozenset({1, 2, 3})


def k4_plus_pendant():
    edges = set(all_edges(4, 2)) | {(4, 5)}
    return Hypergraph(5, 2, frozenset(edges))


def test_balancedness():
    ok, cert = is_balanced(triangle())
    assert ok and cert.ratio == 1
    # K4 minus an edge is balanced; triangle-plus-pendant achieves its
    # maximum density on the triangle too, so it still counts as balanced
    k4m = Hypergraph(4, 2, frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}))
    assert is_balanced(k4m)[0]
    pendant = Hypergraph(4, 2, frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}))
    assert is_balanced(pendant)[0]
    # K4 plus a pendant edge: overall 7/5 but K4 alone has 3/2
    assert not is_balanced(k4_plus_pendant())[0]


def test_density_rejects_isolated_vertices():
    with pytest.raises(InvalidArgumentError):
        max_subgraph_density(Hypergraph(4, 2, frozenset({(1, 2)})))


def test_complement_inequality_on_balanced_host():
    hg = triangle()
    assert check_complement_inequality(hg, frozenset({1, 2}), frozenset({(1, 2)}))
    with pytest.raises(InvalidArgumentError):
        check_complement_inequality(hg, frozenset({1, 2, 3}), frozenset())
    with pytest.raises(InvalidArgumentError):
        check_complement_inequality(k4_plus_pendant(), frozenset({1}), frozenset())


def test_automorphism_counts():
    assert automorphism_count(triangle()) == 6
    path = Hypergraph(3, 2, frozenset({(1, 2), (2, 3)}))
    assert automorphism_count(path) == 2
    k4 = complete(4, 2)
    assert automorphism_count(k4) == 24


def cycle(n):
    return Hypergraph(n, 2, frozenset(tuple(sorted((v, v % n + 1))) for v in range(1, n + 1)))


def petersen():
    outer = [(v, v % 5 + 1) for v in range(1, 6)]
    spokes = [(v, v + 5) for v in range(1, 6)]
    inner = [(v + 5, (v + 1) % 5 + 6) for v in range(1, 6)]
    return Hypergraph(10, 2, frozenset(tuple(sorted(e)) for e in outer + spokes + inner))


@pytest.mark.parametrize(
    "hg,expected",
    [
        (cycle(12), 24),  # dihedral group D12; 12 vertices used to exceed the cap
        (petersen(), 120),  # S5
        (Hypergraph(6, 2, frozenset((a, b) for a in (1, 2, 3) for b in (4, 5, 6))), 72),
        (complete(4, 3), 24),
    ],
    ids=["C12", "petersen", "K33", "K4^3"],
)
def test_automorphism_counts_named_graphs(hg, expected):
    assert automorphism_count(hg) == expected


def test_certify_motif_twelve_vertex_cycle():
    motif = certify_motif(cycle(12))
    assert motif.aut_count == 24
    assert motif.ratio == 1 and motif.certificate.balanced


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (Fraction(4, 3), Fraction(8, 5), Fraction(3, 2)),
        (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
        (Fraction(5, 2), Fraction(7, 2), Fraction(3)),
        (Fraction(10, 9), Fraction(9, 8), Fraction(19, 17)),
    ],
)
def test_simplest_fraction(lo, hi, expected):
    got = simplest_fraction_between(lo, hi)
    assert lo < got < hi
    assert got == expected


def test_simplest_fraction_is_minimal_denominator():
    lo, hi = Fraction(13, 10), Fraction(37, 25)
    got = simplest_fraction_between(lo, hi)
    for den in range(1, got.denominator):
        for num in range(int(lo * den), int(hi * den) + 2):
            assert not lo < Fraction(num, den) < hi
    assert lo < got < hi


def test_ratio_interval_brackets_inward():
    lo, hi = ratio_interval(0.3, 0.75, 0.48)
    assert lo > Fraction(1) / Fraction(3, 4) - Fraction(1, 10 ** 6)
    assert float(lo) >= 1 / 0.75
    assert float(hi) <= 0.48 / 0.3
    with pytest.raises(RegimeError):
        ratio_interval(0.3, 0.75, 0.4000000001)


def test_find_balanced_motif_k4():
    m = find_balanced_motif(0.3, 0.75, 0.48, 2)
    assert (m.ell, m.m) == (4, 6)
    assert m.ratio == Fraction(3, 2)
    assert m.motif == complete(4, 2)
    assert m.aut_count == 24
    assert m.certificate.balanced


def test_find_balanced_motif_regime_check():
    with pytest.raises(RegimeError):
        find_balanced_motif(0.3, 0.5, 0.6, 2)  # gamma >= 1/2
    with pytest.raises(RegimeError):
        find_balanced_motif(0.4, 0.8, 0.45, 2)  # alpha >= beta * gamma


def test_find_balanced_motif_r3():
    m = find_balanced_motif(0.5, 1.5, 0.45, 3)
    assert (m.ell, m.m) == (4, 3)
    assert m.ratio == Fraction(3, 4)


def test_motif_json_roundtrip():
    m = find_balanced_motif(0.3, 0.75, 0.48, 2)
    loaded = motif_from_json_dict(json.loads(m.to_json()))
    assert loaded.motif == m.motif
    assert loaded.ratio == m.ratio
    assert loaded.aut_count == m.aut_count


def test_certify_motif_rejects_unbalanced():
    with pytest.raises(InvalidArgumentError):
        certify_motif(k4_plus_pendant())


def all_covering_hypergraphs(ell, r):
    universe = list(all_edges(ell, r))
    full = frozenset(range(1, ell + 1))
    for m in range(1, len(universe) + 1):
        for sub in itertools.combinations(universe, m):
            if induced_vertices(sub) == full:
                yield Hypergraph(ell, r, frozenset(sub))


def test_complement_inequality_exhaustive_small():
    """Density of the complement part never drops below the global ratio,
    for every balanced graph on at most 4 vertices and every proper vertex
    subset (worst case is the induced subgraph)."""
    for ell in (2, 3, 4):
        for hg in all_covering_hypergraphs(ell, 2):
            ok, _ = is_balanced(hg)
            if not ok:
                continue
            verts = sorted(range(1, ell + 1))
            edges = hg.sorted_edges()
            ratio = Fraction(hg.edge_count, ell)
            for k in range(0, ell):
                for sub in itertools.combinations(verts, k):
                    vs = frozenset(sub)
                    e_in = sum(1 for e in edges if set(e) <= vs)
                    assert Fraction(hg.edge_count - e_in, ell - k) >= ratio
