"""The backtracking embedding kernel against its definition.

An embedding of a pattern P into a host H is an injective map from the
non-isolated vertices of P into the vertices of H that sends every edge of P
to an edge of H. The oracles below try every such map: every k-permutation of
the host vertices, k = |V(P)|.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denselab.errors import InvalidArgumentError
from denselab.hypergraph import Hypergraph, all_edges, count_embeddings, induced_vertices
from oracles import complete


def brute_embeddings(pattern, host):
    p_edges, h_edges = pattern.sorted_edges(), frozenset(host.sorted_edges())
    pv = sorted(induced_vertices(p_edges))
    total = 0
    for image in itertools.permutations(range(1, host.n + 1), len(pv)):
        mp = dict(zip(pv, image))
        if all(tuple(sorted(mp[v] for v in e)) in h_edges for e in p_edges):
            total += 1
    return total


def isolated_free_patterns(k, r):
    universe = list(all_edges(k, r))
    full = frozenset(range(1, k + 1))
    for m in range(1, len(universe) + 1):
        for edges in itertools.combinations(universe, m):
            if induced_vertices(edges) == full:
                yield Hypergraph(k, r, frozenset(edges))


def test_exhaustive_graphs():
    """Every isolated-free pattern on <= 4 vertices into every host on <= 5 vertices (r=2)."""
    patterns = [p for k in (2, 3, 4) for p in isolated_free_patterns(k, 2)]
    assert len(patterns) == 1 + 4 + 41
    pattern_edges = [frozenset(p.sorted_edges()) for p in patterns]
    checked = 0
    for n in range(2, 6):
        universe = list(all_edges(n, 2))
        for bits in range(2 ** len(universe)):
            host_edges = frozenset(e for i, e in enumerate(universe) if bits >> i & 1)
            host = Hypergraph(n, 2, host_edges)
            # One pass over the injective maps per pattern size: tally, for each
            # map, the set of vertex pairs of {1..k} that it sends onto host edges.
            hit_sets = {
                k: Counter(
                    frozenset(pair for pair in all_edges(k, 2)
                              if tuple(sorted(image[v - 1] for v in pair)) in host_edges)
                    for image in itertools.permutations(range(1, n + 1), k)
                )
                for k in (2, 3, 4)
            }
            for pattern, p_edges in zip(patterns, pattern_edges):
                expected = sum(c for hits, c in hit_sets[pattern.n].items()
                               if p_edges <= hits)
                assert count_embeddings(pattern, host) == expected, (pattern, host)
                checked += 1
    assert checked == 46 * (2 + 8 + 64 + 1024)


def random_hypergraph(rng, n, r, density):
    universe = list(all_edges(n, r))
    keep = rng.random(len(universe)) < density
    return Hypergraph(n, r, frozenset(e for e, k in zip(universe, keep) if k))


def test_random_three_uniform():
    rng = np.random.default_rng(3)
    nonzero = 0
    for _ in range(150):
        pattern = random_hypergraph(rng, int(rng.integers(3, 6)), 3, 0.5)
        host = random_hypergraph(rng, int(rng.integers(3, 7)), 3, rng.uniform(0.3, 1.0))
        expected = brute_embeddings(pattern, host)
        assert count_embeddings(pattern, host) == expected, (pattern, host)
        nonzero += expected > 0
    assert nonzero > 20  # the sample is not all zeros


def test_empty_pattern_and_rank_mismatch():
    host = complete(4, 3)
    assert count_embeddings(Hypergraph(3, 3), host) == 1
    with pytest.raises(InvalidArgumentError):
        count_embeddings(complete(3, 2), host)


@st.composite
def pattern_host_relabel(draw):
    r = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(r, 4))
    p_universe = list(all_edges(k, r))
    p_edges = draw(st.sets(st.sampled_from(p_universe), min_size=1))
    n = draw(st.integers(r, 8))
    h_universe = list(all_edges(n, r))
    h_edges = draw(st.sets(st.sampled_from(h_universe)))
    perm = draw(st.permutations(range(1, n + 1)))
    return Hypergraph(k, r, frozenset(p_edges)), Hypergraph(n, r, frozenset(h_edges)), perm


@settings(max_examples=200, deadline=None)
@given(pattern_host_relabel())
def test_host_relabelling_leaves_count_unchanged(case):
    pattern, host, perm = case
    relabelled = frozenset(tuple(sorted(perm[v - 1] for v in e)) for e in host.sorted_edges())
    assert count_embeddings(pattern, host) == count_embeddings(
        pattern, Hypergraph(host.n, host.r, relabelled)
    )
