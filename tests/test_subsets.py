"""The vertex-subset density kernel against the frozenset subset loops it replaced.

`max_subgraph_density` and the event check of the conditional construction
both run on `hypergraph.vertex_subset_densities`. The oracles below are the
two loops each of them used to carry, kept verbatim apart from the budgets.
"""

import itertools
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from denselab.balanced import max_subgraph_density
from denselab.errors import BudgetExceededError
from denselab.hypergraph import (
    SUBSET_BUDGET,
    Hypergraph,
    all_edges,
    count_isolated_free_edge_sets,
    induced_vertices,
    vertex_subset_densities,
)
from denselab.ldlr import _dense_subset_exists, build_conditioning_spec, event_holds
from denselab.models import derive_params


def density_oracle(hg):
    verts = sorted(induced_vertices(hg.sorted_edges()))
    edges = [frozenset(e) for e in hg.sorted_edges()]
    best = Fraction(0)
    best_witness = frozenset({verts[0]})
    for size in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            vs = frozenset(sub)
            m_in = sum(1 for e in edges if e <= vs)
            ratio = Fraction(m_in, size)
            if ratio > best:
                best = ratio
                best_witness = vs
    return best, best_witness


def dense_subset_oracle(present, spec):
    if not spec.index_set or not present:
        return False
    verts = sorted(induced_vertices(present))
    edge_sets = [frozenset(e) for e in present]
    for ell in range(spec.r, min(spec.r * spec.D, len(verts)) + 1):
        m_req = spec.m_table[ell]
        if m_req > spec.D or comb(ell, spec.r) < m_req or m_req > len(present):
            continue
        for sub in itertools.combinations(verts, ell):
            vs = set(sub)
            if sum(1 for e in edge_sets if e <= vs) >= m_req:
                return True
    return False


# (alpha, beta, gamma, degree) per r; delta = 0.1 throughout. The rates
# gamma/alpha + delta run from 0.5 to 0.77, so the index sets differ.
SPECS = {
    2: [(0.45, 0.6, 0.3, 3), (0.45, 0.6, 0.3, 4), (0.45, 0.6, 0.2, 3)],
    3: [(0.5, 1.5, 0.3, 3), (0.5, 1.5, 0.3, 4), (0.5, 1.5, 0.2, 3)],
}


def isolated_free_hypergraphs(max_vertices, r):
    for ell in range(r, max_vertices + 1):
        universe = list(all_edges(ell, r))
        full = frozenset(range(1, ell + 1))
        for mask in range(1, 2 ** len(universe)):
            edges = [e for i, e in enumerate(universe) if mask >> i & 1]
            if induced_vertices(edges) == full:
                yield Hypergraph(ell, r, edges)


def assert_kernel_matches_oracles(hg):
    assert max_subgraph_density(hg) == density_oracle(hg)
    present = hg.sorted_edges()
    Z = frozenset(range(1, hg.n + 1))
    for alpha, beta, gamma, D in SPECS[hg.r]:
        params = derive_params(hg.n, hg.r, alpha, beta, gamma)
        spec = build_conditioning_spec(params, 0.1, D)
        dense = dense_subset_oracle(present, spec)
        assert _dense_subset_exists(present, spec) == dense
        assert event_holds(Z, hg, params, spec) == (not dense)


@pytest.mark.parametrize("r", [2, 3])
def test_kernel_matches_oracles_on_every_small_hypergraph(r):
    count = 0
    for hg in isolated_free_hypergraphs(5, r):
        assert_kernel_matches_oracles(hg)
        count += 1
    assert count == sum(
        count_isolated_free_edge_sets(ell, m, r)
        for ell in range(r, 6)
        for m in range(1, comb(ell, r) + 1)
    )


@settings(max_examples=40)
@given(data=st.data(), n=st.sampled_from([7, 8]), r=st.sampled_from([2, 3]))
def test_kernel_matches_oracles_on_drawn_hypergraphs(data, n, r):
    universe = list(all_edges(n, r))
    mask = data.draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
    edges = [e for e, keep in zip(universe, mask) if keep]
    assume(induced_vertices(edges) == frozenset(range(1, n + 1)))
    assert_kernel_matches_oracles(Hypergraph(n, r, edges))


def test_kernel_yields_sizes_then_lexicographic_subsets():
    path = [(1, 2), (2, 3), (3, 4)]
    got = list(vertex_subset_densities(path, [3, 1, 9]))
    assert [sub for _, _, sub in got] == [(1,), (2,), (3,), (4,)] + list(
        itertools.combinations(range(1, 5), 3)
    )
    assert [m for ell, m, _ in got] == [0, 0, 0, 0, 2, 1, 1, 2]


def cycle(n):
    return Hypergraph(n, 2, [tuple(sorted((v, v % n + 1))) for v in range(1, n + 1)])


def test_density_budget_fails_at_once_past_23_vertices():
    # 2^23 - 1 subsets fit the budget; the check only builds the generator here
    vertex_subset_densities(cycle(23).sorted_edges(), range(1, 24))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="SUBSET_BUDGET"):
        max_subgraph_density(cycle(24))
    assert time.perf_counter() - start < 1.0


def test_event_budget_is_checked_before_the_search():
    # K_40 holds a triangle (m_3 = 3 here), but its 3..13-vertex subsets pass
    # the budget, so the check raises instead of returning at the first witness
    params = derive_params(40, 2, 0.45, 0.6, 0.3)
    spec = build_conditioning_spec(params, 0.1, 10)
    assert (3, 3) in spec.index_set
    with pytest.raises(BudgetExceededError, match=str(SUBSET_BUDGET)):
        _dense_subset_exists(list(all_edges(40, 2)), spec)
