"""Core combinatorial types for r-uniform hypergraphs.

Vertices are 1-based everywhere in the public API. A hyperedge is a strictly
increasing tuple of r vertex ids; edges are ranked lexicographically on the
sorted vertex tuple, giving a fixed bijection onto [0, C(n, r)).

`rank_edges`/`unrank_edges` are the rank kernel; they hold ranks in int64, so
they need C(n, r) < 2^63. `Hypergraph`, the one edge-set type, stores its
edges as such ranks. `vertex_subset_densities` is the one exhaustive search
over vertex subsets, bounded by SUBSET_BUDGET.
`parse_hypergraph_text` reads the text format with a span reader that takes
only well-formed text and, at any fault, a per-line reader that names the
first bad line.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import types
from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidArgumentError

Edge = Tuple[int, ...]


_INT64_MAX = int(np.iinfo(np.int64).max)
TABLE_BUDGET_VERTICES = 1 << 20


def _comb_log10(n: int, k: int) -> float:
    """log10 C(n, k) for 0 <= k <= n/2, without forming C(n, k): a sum of k
    logs when k < 64, else Stirling's series to its 1/(12k) terms."""
    if k < 64:
        return sum(math.log10(n - i) - math.log10(i + 1) for i in range(k))
    if k.bit_length() > 1000:  # past the float range
        return math.inf
    x = k / (n - k)  # in (0, 1]; 0 when it underflows, where log1p(x)/x -> 1
    ln = (
        k * (math.log(n) - math.log(k) + (math.log1p(x) / x if x else 1.0))
        + (math.log(n) - math.log(k) - math.log(n - k) - math.log(2 * math.pi)) / 2
        + (1 / n - 1 / k - 1 / (n - k)) / 12
    )
    return ln / math.log(10)


def check_rank_space(n: int, r: int) -> None:
    """Raise InvalidArgumentError unless n >= r >= 2, and BudgetExceededError
    when C(n, r) >= 2^63, the largest rank space the array kernel can index,
    or when n exceeds TABLE_BUDGET_VERTICES, which bounds the (n + 1)(r + 1)
    entries of `binomial_table(n, r)`. Builds no table."""
    if r < 2:
        raise InvalidArgumentError(f"r={r} < 2")
    if n < r:
        raise InvalidArgumentError(f"n={n} < r={r}")
    k = min(r, n - r)
    # C(n, k) >= (n/k)^k, and n/k is at least 2 and above 2^(bits(n) - 1 - bits(k))
    if k * max(1, n.bit_length() - 1 - k.bit_length()) >= 63:
        raise BudgetExceededError(
            f"C({n}, {r}) ~ 10^{_comb_log10(n, k):.1f} edges do not fit in int64 ranks"
            " (limit 2^63)"
        )
    if comb(n, r) > _INT64_MAX:
        raise BudgetExceededError(
            f"C({n}, {r}) = {comb(n, r)} edges do not fit in int64 ranks (limit 2^63)"
        )
    if n > TABLE_BUDGET_VERTICES:
        raise BudgetExceededError(
            f"n={n} exceeds the {TABLE_BUDGET_VERTICES}-vertex budget of the rank table"
        )


@functools.lru_cache(maxsize=32)
def binomial_table(n: int, r: int) -> np.ndarray:
    """Read-only int64 table T[x, k] = C(x, k) for 0 <= x <= n, 0 <= k <= r,
    for the (n, r) that pass `check_rank_space`.

    Entries past 2^63 - 1 (possible only when r > n/2) saturate there; no
    rank of an edge of K_n^r ever reads one, since each term of a rank is
    below C(n, r).
    """
    check_rank_space(n, r)
    table = np.zeros((n + 1, r + 1), dtype=np.int64)
    table[:, 0] = 1
    for k in range(1, r + 1):
        # C(x, k) = sum_{y < x} C(y, k - 1), accumulated in Python ints
        col = itertools.accumulate(table[:-1, k - 1].tolist(), initial=0)
        table[:, k] = [min(c, _INT64_MAX) for c in col]
    table.flags.writeable = False
    return table


def rank_edges(E: np.ndarray, n: int, r: int) -> np.ndarray:
    """Ranks of the rows of a (K, r) array of canonical edges, as int64.

    Lexicographic order: rank = C(n, r) - 1 - sum_i C(n - e_i, r - i) over
    0-based columns i. Raises InvalidArgumentError unless every row is
    strictly increasing with vertices in [1, n].
    """
    table = binomial_table(n, r)
    E = np.asarray(E, dtype=np.int64)
    if E.ndim != 2 or E.shape[1] != r:
        raise InvalidArgumentError(f"expected a (K, {r}) edge array, got shape {E.shape}")
    # a vertex out of range flags its row by itself, since its differences may overflow
    bad = ((E < 1) | (E > n)).any(axis=1) | (np.diff(E, axis=1) <= 0).any(axis=1)
    if bad.any():
        row = tuple(E[np.flatnonzero(bad)[0]].tolist())
        raise InvalidArgumentError(
            f"edge {row} is not strictly increasing within [1, {n}]"
        )
    ranks = np.full(E.shape[0], table[n, r] - 1, dtype=np.int64)
    for i in range(r):
        ranks -= table[n - E[:, i], r - i]
    return ranks


def unrank_edges(idx: np.ndarray, n: int, r: int) -> np.ndarray:
    """Inverse of rank_edges: a (K, r) int64 array of edges for K ranks.

    C(n, r) - 1 - idx is written greedily in the combinatorial number system,
    one binary search per column of the binomial table.
    """
    table = binomial_table(n, r)
    idx = np.asarray(idx, dtype=np.int64)
    total = int(table[n, r])
    if idx.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-d rank array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= total):
        raise InvalidArgumentError(f"ranks outside [0, {total})")
    rem = (total - 1) - idx
    E = np.empty((idx.size, r), dtype=np.int64)
    for i in range(r):
        col = table[:n, r - i]
        x = np.searchsorted(col, rem, side="right") - 1
        rem -= col[x]
        E[:, i] = n - x
    return E


def within_ranks(Z: Iterable[int], n: int, r: int) -> np.ndarray:
    """Ascending int64 ranks of all r-subsets of the vertex set Z.

    The subsets are built in lexicographic order one column at a time, as
    indices into sorted Z: a prefix whose last index is a has the children
    a + 1, ..., |Z| - r + i in column i, and each child subtracts
    C(n - z, r - i) from C(n, r) - 1, as in rank_edges.
    """
    table = binomial_table(n, r)
    zs = sorted(Z)
    if zs and (zs[0] < 1 or zs[-1] > n or len(set(zs)) < len(zs)):
        raise InvalidArgumentError(f"vertex set is not distinct vertices within [1, {n}]")
    k = len(zs)
    if k < r:
        return np.empty(0, dtype=np.int64)
    terms = table[n - np.array(zs, dtype=np.int64)]  # terms[j, c] = C(n - z_j, c)
    last = np.arange(k - r + 1)  # column 0: the index of each prefix's last vertex
    ranks = table[n, r] - 1 - terms[last, r]
    for i in range(1, r):
        counts = (k - r + i) - last
        ends = np.cumsum(counts)
        last = np.arange(ends[-1]) + np.repeat(last + 1 + counts - ends, counts)
        ranks = np.repeat(ranks, counts) - terms[last, r - i]
    return ranks


def all_edges(n: int, r: int) -> Iterator[Edge]:
    """All edges of K_n^r in rank (lexicographic) order."""
    return itertools.combinations(range(1, n + 1), r)


def induced_vertices(edges: Iterable[Edge]) -> FrozenSet[int]:
    """Union of the edges' vertex sets (the edge-induced vertex set)."""
    out: set = set()
    for e in edges:
        out.update(e)
    return frozenset(out)


SUBSET_BUDGET = 10 ** 7


def vertex_subset_densities(
    edges: Iterable[Edge], sizes: Iterable[int]
) -> Iterator[Tuple[int, int, Edge]]:
    """(ell, induced edge count, vertex subset) for every ell-subset of the
    edges' vertices, ell in `sizes` ascending, subsets in lexicographic order.

    Sizes above the vertex count are skipped. Raises BudgetExceededError at
    the call, before any subset is formed, when the asked sizes hold more than
    SUBSET_BUDGET subsets in total.
    """
    edge_sets = [frozenset(e) for e in edges]
    verts = sorted(induced_vertices(edge_sets))
    sizes = sorted(ell for ell in set(sizes) if ell <= len(verts))
    total = sum(comb(len(verts), ell) for ell in sizes)
    if total > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{total} vertex subsets of {len(verts)} vertices (sizes {sizes[0]}..{sizes[-1]}) "
            f"exceed SUBSET_BUDGET = {SUBSET_BUDGET}"
        )

    def scan() -> Iterator[Tuple[int, int, Edge]]:
        for ell in sizes:
            for sub in itertools.combinations(verts, ell):
                yield ell, sum(map(frozenset(sub).issuperset, edge_sets)), sub

    return scan()


def count_isolated_free_edge_sets(ell: int, m: int, r: int) -> int:
    """Number of m-edge sets on ell labeled vertices covering all of them.

    Inclusion-exclusion over the set of missed vertices:
    sum_j (-1)^j C(ell, j) C(C(ell - j, r), m). Exact arbitrary-precision
    integer; degenerate inputs give 0.
    """
    if m < 0 or ell < 0:
        return 0
    return sum(
        (-1) ** j * comb(ell, j) * comb(comb(ell - j, r), m)
        for j in range(ell + 1)
    )


def count_subgraph_class(n: int, ell: int, m: int, r: int) -> int:
    """|S_{ell,m}|: edge-induced subgraphs of K_n^r with ell vertices, m edges."""
    if n < ell:
        raise InvalidArgumentError(f"n={n} < ell={ell}")
    return comb(n, ell) * count_isolated_free_edge_sets(ell, m, r)


LDLR_CLASS_BUDGET = 20_000


def check_class_budget(r: int, D: int) -> None:
    """The argument checks of `class_table(r, D)`, without building it."""
    if r < 1 or D < 0:
        raise InvalidArgumentError(f"r >= 1 and D >= 0 required, got r={r}, D={D}")
    # ceil(ell/r) = 1 only at ell = r, and = k at the r values (k-1)r < ell <= kr
    size = D + r * D * (D - 1) // 2
    if size > LDLR_CLASS_BUDGET:
        raise BudgetExceededError(
            f"degree {D} at r={r} needs {size} (ell, m) classes, over the budget of "
            f"{LDLR_CLASS_BUDGET}; lower --degree"
        )


@functools.lru_cache(maxsize=8)
def class_table(r: int, D: int) -> Mapping[Tuple[int, int], int]:
    """Read-only map (ell, m) -> count_isolated_free_edge_sets(ell, m, r) for
    r <= ell <= rD and ceil(ell/r) <= m <= D, holding only the nonzero counts
    in ascending (ell, m) order; every other key reads 0 through `.get`.

    The counts do not depend on n, so one table serves every n of the degree-D
    low-degree norm. Built from the rows B[k][m] = C(C(k, r), m), k <= rD,
    m <= D: each count is sum_j (-1)^j C(ell, j) B[ell - j][m] over the rows
    with C(ell - j, r) >= m, the others being 0. Raises BudgetExceededError
    when the table would exceed LDLR_CLASS_BUDGET (ell, m) pairs.
    """
    check_class_budget(r, D)
    # cols[m][k] = C(C(k, r), m), by C(N, m) = C(N, m - 1) (N - m + 1) / m
    sizes = [comb(k, r) for k in range(r * D + 1)]
    cols: List[List[int]] = [[1] * len(sizes)]
    for m in range(1, D + 1):
        cols.append([b * (N - m + 1) // m for N, b in zip(sizes, cols[-1])])
    # k_min[m]: the first row with C(k, r) >= m; the rows below it are 0 in column m
    k_min = [r] * (D + 1)
    for m in range(2, D + 1):
        k = k_min[m - 1]
        while sizes[k] < m:  # stops by k = rD, since C(rD, r) >= D
            k += 1
        k_min[m] = k
    table: Dict[Tuple[int, int], int] = {}
    for ell in range(r, r * D + 1):
        signed = [(-1) ** j * comb(ell, j) for j in range(ell - r + 1)]
        for m in range(-(-ell // r), D + 1):
            col = cols[m]
            count = sum(map(operator.mul, signed, col[ell : k_min[m] - 1 : -1]))
            if count > 0:
                table[ell, m] = count
    return types.MappingProxyType(table)


@dataclass(frozen=True, init=False, eq=False)
class Hypergraph:
    """An r-uniform hypergraph on the vertex set [1, n].

    The edge set is `ranks`: the read-only, ascending, unique int64 ranks (see
    rank_edges) of the edges, so binomial_table(n, r) must exist: C(n, r) below
    2^63 and n at most TABLE_BUDGET_VERTICES. `sorted_edges()` gives them as
    vertex tuples.
    """

    n: int
    r: int
    ranks: np.ndarray

    def __init__(self, n: int, r: int, edges: Iterable[Sequence[int]] = ()) -> None:
        """Validate and rank the edges; an edge given twice is kept once."""
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, r)):
            raise InvalidArgumentError(f"n={n!r} and r={r!r} must be integers")
        binomial_table(n, r)  # checks n >= r >= 2 and C(n, r) < 2^63
        rows = list(dict.fromkeys(map(tuple, edges)))
        bad = next((e for e in rows if len(e) != r), None)
        if bad is not None:
            raise InvalidArgumentError(f"edge {bad} does not have {r} vertices")
        for e in rows:  # np.array would truncate a float, overflow on a big int, take True as 1
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       and -(2**63) <= v < 2**63 for v in e):
                raise InvalidArgumentError(f"edge {e} has a vertex that is not an int64 integer")
        ranks = rank_edges(np.array(rows, dtype=np.int64).reshape(len(rows), r), n, r)
        # Edge lists usually arrive in rank order (text files, combinations): sort if not.
        self._init(n, r, np.sort(ranks) if (ranks[1:] < ranks[:-1]).any() else ranks)

    @classmethod
    def from_ranks(cls, n: int, r: int, ranks: np.ndarray) -> "Hypergraph":
        """Wrap ascending, unique edge ranks in [0, C(n, r)), as the samplers
        produce them. An int64 array is not copied but made read-only."""
        hg = cls.__new__(cls)
        hg._init(n, r, np.asarray(ranks, dtype=np.int64))
        return hg

    def _init(self, n: int, r: int, ranks: np.ndarray) -> None:
        total = binomial_table(n, r)[n, r]
        if ranks.ndim != 1 or ranks.size and (
            ranks[0] < 0 or ranks[-1] >= total or (ranks[1:] <= ranks[:-1]).any()
        ):
            raise InvalidArgumentError(f"edge ranks must be ascending, unique, in [0, {total})")
        ranks.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "ranks", ranks)

    @property
    def edge_count(self) -> int:
        return self.ranks.size

    def sorted_edges(self) -> List[Edge]:
        """The edges in rank order, which is lexicographic order."""
        return list(map(tuple, unrank_edges(self.ranks, self.n, self.r).tolist()))

    def to_hypergraph(self) -> "Hypergraph":
        # Kept because bench/workloads.py calls sample_planted(...).Y.to_hypergraph().
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and np.array_equal(self.ranks, other.ranks)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.ranks.tobytes()))

    def __reduce__(self):
        return type(self).from_ranks, (self.n, self.r, self.ranks)


# --- embeddings --------------------------------------------------------------


def _incidence(edges: Iterable[Edge]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per vertex: its degree and the bitset (bit w for vertex w) of its neighbours."""
    deg: Dict[int, int] = {}
    nbr: Dict[int, int] = {}
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            deg[v] = deg.get(v, 0) + 1
            nbr[v] = nbr.get(v, 0) | mask
    return deg, {v: mask & ~(1 << v) for v, mask in nbr.items()}


def count_embeddings(pattern: Hypergraph, host: Hypergraph) -> int:
    """Injective maps from the pattern's non-isolated vertices into the host's
    vertices that send every pattern edge to a host edge.

    Backtracking places one pattern vertex at a time, the next being the one
    with the most placed neighbours (ties: higher degree, then lower id). Its
    candidates are the AND of the host neighbour bitsets of its placed
    neighbours' images, minus the used vertices and the host vertices of lower
    degree. At r = 2 that is the whole edge check; at r > 2 each pattern edge
    the vertex completes is also looked up in a set of the host edges. With
    equal vertex and edge counts the maps are isomorphisms: emb(H, H) = |Aut(H)|.
    """
    if pattern.r != host.r:
        raise InvalidArgumentError(f"rank mismatch: pattern r={pattern.r}, host r={host.r}")
    p_edges, h_edges = pattern.sorted_edges(), host.sorted_edges()
    p_deg, p_nbr = _incidence(p_edges)
    h_deg, h_nbr = _incidence(h_edges)
    order: List[int] = []
    placed = 0
    for _ in p_deg:
        v = max(
            (u for u in p_deg if not placed >> u & 1),
            key=lambda u: ((p_nbr[u] & placed).bit_count(), p_deg[u], -u),
        )
        order.append(v)
        placed |= 1 << v
    pos = {v: i for i, v in enumerate(order)}
    anchors = [[pos[u] for u in order[:i] if p_nbr[v] >> u & 1] for i, v in enumerate(order)]
    eligible = [sum(1 << w for w, d in h_deg.items() if d >= p_deg[v]) for v in order]
    checks: List[List[Tuple[int, ...]]] = [[] for _ in order]
    for e in p_edges if pattern.r > 2 else ():
        at = tuple(pos[v] for v in e)
        checks[max(at)].append(at)
    host_edges = set(h_edges) if pattern.r > 2 else set()
    img = [0] * len(order)
    last = len(order) - 1

    def extend(i: int, used: int) -> int:
        cands = eligible[i] & ~used
        for j in anchors[i]:
            cands &= h_nbr[img[j]]
        if i == last and not checks[i]:
            return cands.bit_count()
        total = 0
        while cands:
            low = cands & -cands
            cands ^= low
            img[i] = low.bit_length() - 1
            if checks[i] and not all(
                tuple(sorted(img[j] for j in at)) in host_edges for at in checks[i]
            ):
                continue
            total += 1 if i == last else extend(i + 1, used | low)
        return total

    return extend(0, 0) if order else 1


# --- hypergraph text format ------------------------------------------------
#
# First line "n r"; then one edge per line as r space-separated 1-based vertex
# ids in increasing order, lines sorted by rank. Blank lines and '#' comments
# are ignored on input; comments may be emitted before the edge list. The
# parser rejects non-integer tokens and repeated edge lines, naming the line;
# the per-line reader alone builds its error messages.

TEXT_CHUNK_CHARS = 1 << 13
# the line boundaries of str.splitlines(), compiled on first use (re caches it)
_LINE_BREAK = "\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]"


def write_hypergraph_text(hg: Hypergraph, comments: Optional[Sequence[str]] = None) -> str:
    head = [f"{hg.n} {hg.r}"] + [f"# {c}" for c in comments or []]
    E = unrank_edges(hg.ranks, hg.n, hg.r)
    row = " ".join(["%d"] * hg.r) + "\n"
    return "\n".join(head) + "\n" + (row * len(E)) % tuple(E.ravel().tolist())


def parse_hypergraph_text(text: str) -> Tuple[Hypergraph, List[str]]:
    """Parse the text format; returns the hypergraph and the comment lines.

    Every outcome is the per-line reader's: the span reader reaches it sooner
    on well-formed text, and the per-line reader reads any other text again.
    """
    try:
        return _read_spans(text)
    except (ValueError, OverflowError, BudgetExceededError):
        return _read_lines(text)


def _line_spans(text: str) -> Iterator[str]:
    """The text in consecutive pieces of about TEXT_CHUNK_CHARS characters,
    each ending just after a line break, so that their splitlines() are
    those of the whole text."""
    line_break = re.compile(_LINE_BREAK)
    start = 0
    while start < len(text):
        brk = line_break.search(text, start + TEXT_CHUNK_CHARS)
        end = brk.end() if brk else len(text)
        yield text[start:end]
        start = end


def _read_spans(text: str) -> Tuple[Hypergraph, List[str]]:
    """Well-formed text only: the edge lines of each span become one int64
    block, ranked by rank_edges; the ranks are sorted and checked for repeats
    at the end. Any fault raises ValueError, OverflowError or
    BudgetExceededError without naming it."""
    comments: List[str] = []
    header: Optional[Tuple[int, int]] = None
    blocks: List[np.ndarray] = []
    for span in _line_spans(text):
        lines = span.splitlines()
        toks = list(map(str.split, lines))
        if header is None or "#" in span:
            for i, line_toks in enumerate(toks):  # clear comment and header tokens
                if not line_toks:
                    continue
                if line_toks[0].startswith("#"):
                    comments.append(lines[i].strip()[1:].strip())
                elif header is None:
                    n, r = header = tuple(map(int, line_toks))
                    binomial_table(n, r)
                else:
                    continue
                toks[i] = []
        if header is None:
            continue
        if not set(map(len, toks)) <= {0, r}:
            raise ValueError("an edge line without r tokens")
        E = np.array(list(map(int, itertools.chain.from_iterable(toks))), dtype=np.int64)
        blocks.append(rank_edges(E.reshape(-1, r), n, r))
    if header is None:
        raise ValueError("missing header line")
    ranks = np.concatenate(blocks)
    if (ranks[1:] < ranks[:-1]).any():
        ranks = np.sort(ranks)
    return Hypergraph.from_ranks(n, r, ranks), comments  # from_ranks rejects a repeat


def _read_lines(text: str) -> Tuple[Hypergraph, List[str]]:
    """One line at a time, every edge line kept as a vertex tuple: the first
    non-integer token, bad header or repeated edge line raises, naming its
    line, and then Hypergraph(n, r, edges) rejects any other bad edge."""
    comments: List[str] = []
    header: Optional[Tuple[int, ...]] = None
    edges: Dict[Edge, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        try:
            values = tuple(int(v) for v in line.split())
        except ValueError:
            what = "header" if header is None else "vertex"
            raise InvalidArgumentError(
                f"line {lineno}: non-integer {what} token in {raw!r}"
            ) from None
        if header is None:
            if len(values) != 2:
                raise InvalidArgumentError(f"line {lineno}: bad header line: {raw!r}")
            header = values
        elif values in edges:
            raise InvalidArgumentError(
                f"line {lineno}: duplicate of the edge on line {edges[values]}: {raw!r}"
            )
        else:
            edges[values] = lineno
    if header is None:
        raise InvalidArgumentError("missing header line")
    n, r = header
    return Hypergraph(n, r, edges), comments
