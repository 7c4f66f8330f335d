import itertools
import math
import pickle
import re
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denselab import hypergraph
from denselab.cli import main
from denselab.errors import BudgetExceededError, InvalidArgumentError
from denselab.hypergraph import (
    Hypergraph,
    all_edges,
    LDLR_CLASS_BUDGET,
    TABLE_BUDGET_VERTICES,
    _comb_log10,
    binomial_table,
    class_table,
    count_isolated_free_edge_sets,
    count_subgraph_class,
    induced_vertices,
    parse_hypergraph_text,
    rank_edges,
    unrank_edges,
    within_ranks,
    write_hypergraph_text,
)
from oracles import rank_edge, unrank_edge


def test_rank_examples():
    assert rank_edge((1, 2), 5, 2) == 0
    assert rank_edge((2, 3), 5, 2) == 4
    assert rank_edge((4, 5), 5, 2) == 9


def test_rank_matches_lexicographic_order():
    for n, r in [(5, 2), (6, 3), (7, 4)]:
        for i, e in enumerate(all_edges(n, r)):
            assert rank_edge(e, n, r) == i
            assert unrank_edge(i, n, r) == e


@given(st.integers(2, 4), st.data())
@settings(max_examples=60)
def test_rank_unrank_roundtrip(r, data):
    n = data.draw(st.integers(r, 12))
    idx = data.draw(st.integers(0, comb(n, r) - 1))
    assert rank_edge(unrank_edge(idx, n, r), n, r) == idx


def test_edge_validation():
    with pytest.raises(InvalidArgumentError):
        rank_edge((2, 1), 5, 2)
    with pytest.raises(InvalidArgumentError):
        rank_edge((1, 1), 5, 2)
    with pytest.raises(InvalidArgumentError):
        rank_edge((1, 6), 5, 2)
    with pytest.raises(InvalidArgumentError):
        unrank_edge(10, 5, 2)


@given(st.integers(2, 5), st.data())
@settings(max_examples=60)
def test_rank_kernel_matches_scalar(r, data):
    n = data.draw(st.integers(r, 14))
    m = comb(n, r)
    every = [list(e) for e in all_edges(n, r)]
    # bijection onto [0, C(n, r)) in the scalar rank order
    assert rank_edges(np.array(every, dtype=np.int64), n, r).tolist() == list(range(m))
    assert unrank_edges(np.arange(m), n, r).tolist() == every
    ranks = data.draw(st.lists(st.integers(0, m - 1), max_size=20))
    E = unrank_edges(np.array(ranks, dtype=np.int64), n, r)
    assert E.shape == (len(ranks), r)
    assert [tuple(e) for e in E.tolist()] == [unrank_edge(i, n, r) for i in ranks]
    assert rank_edges(E, n, r).tolist() == ranks


def test_rank_kernel_empty_and_saturated_table():
    assert rank_edges(np.empty((0, 3), dtype=np.int64), 3, 3).shape == (0,)
    assert unrank_edges(np.empty(0, dtype=np.int64), 3, 3).shape == (0, 3)
    assert within_ranks({2}, 5, 2).shape == (0,)
    # C(70, 35) > 2^63 saturates in the table; C(70, 60) itself fits
    n, r = 70, 60
    assert binomial_table(n, r)[n, r] == comb(n, r)
    ranks = [0, 1, 12345, comb(n, r) // 3, comb(n, r) - 1]
    E = unrank_edges(np.array(ranks), n, r)
    assert [tuple(e) for e in E.tolist()] == [unrank_edge(i, n, r) for i in ranks]
    assert rank_edges(E, n, r).tolist() == ranks


@pytest.mark.parametrize(
    "n, r, count",
    [
        (4_000_000, 3, "= 10666658666668000000"),  # the bound leaves it open: exact count
        (10 ** 10, 3, "~ 10^29.2"),
        (20_000, 10_000, "~ 10^6018.4"),  # past Python's 4300-digit int-to-str limit
        (1_000_000, 500_000, "~ 10^301026.9"),  # ~14 s to form the count
        (10 ** 400, 100, "~ 10^39842.0"),  # k / (n - k) underflows to 0.0
        (2 * 10 ** 400, 10 ** 400, "~ 10^inf"),  # the log10 itself is past the float range
    ],
    ids=["4e6-3", "1e10-3", "2e4-1e4", "1e6-5e5", "1e400-100", "2e400-1e400"],
)
def test_binomial_table_count_budget_message(n, r, count):
    with pytest.raises(BudgetExceededError, match=re.escape(f"C({n}, {r}) {count} edges")):
        binomial_table(n, r)


def test_comb_log10_matches_exact_count():
    for n in (128, 130, 200, 1000, 20_000, 10 ** 12, 10 ** 40):
        for k in (0, 1, 2, 63, 64, 65, 100, n // 2):
            if k <= min(n // 2, 20_000):
                assert _comb_log10(n, k) == pytest.approx(math.log10(comb(n, k)), abs=1e-6)


def test_within_ranks_matches_scalar():
    Z = {9, 2, 5, 7}
    expected = [rank_edge(e, 10, 3) for e in itertools.combinations(sorted(Z), 3)]
    assert within_ranks(Z, 10, 3).tolist() == expected == sorted(expected)


def test_rank_kernel_validation():
    # the last two overflow int64 in their difference
    for bad in ([[1, 2], [2, 2]], [[2, 1]], [[0, 1]], [[1, 6]], [[1, 2, 3]], [[1, -(2**63)]],
                [[5, 2 - 2**63]]):
        with pytest.raises(InvalidArgumentError):
            rank_edges(np.array(bad), 5, 2)
    for bad in ([-1], [10], [[0]]):
        with pytest.raises(InvalidArgumentError):
            unrank_edges(np.array(bad), 5, 2)
    with pytest.raises(InvalidArgumentError):
        binomial_table(2, 3)
    # C(4e6, 3) ~ 1.07e19 ranks do not fit in int64
    with pytest.raises(BudgetExceededError):
        rank_edges(np.array([[1, 2, 3]]), 4_000_000, 3)
    # ranks fit, but the table would hold (n + 1)(r + 1) entries
    with pytest.raises(BudgetExceededError):
        Hypergraph(TABLE_BUDGET_VERTICES + 1, 2)
    # np.array would truncate, overflow on or convert these vertices
    for edge in ((1, 3.5), (1, 2**63), (1, -(2**63) - 1), (1, "2"), (True, 3)):
        with pytest.raises(InvalidArgumentError, match=r"edge .* not an int64 integer"):
            Hypergraph(5, 2, [(1, 2), edge])


def test_isolated_free_counts():
    assert count_isolated_free_edge_sets(3, 2, 2) == 3
    assert count_isolated_free_edge_sets(4, 2, 2) == 3
    assert count_isolated_free_edge_sets(4, 1, 2) == 0


def test_isolated_free_counts_against_bruteforce():
    # direct enumeration of covering edge sets
    for ell in range(2, 6):
        for r in (2, 3):
            if ell < r:
                continue
            universe = list(all_edges(ell, r))
            full = frozenset(range(1, ell + 1))
            for m in range(0, len(universe) + 1):
                brute = sum(
                    1
                    for sub in itertools.combinations(universe, m)
                    if induced_vertices(sub) == full
                )
                assert count_isolated_free_edge_sets(ell, m, r) == brute


def test_class_table_matches_scalar():
    for r in (2, 3, 4):
        for D in range(13):
            table = class_table(r, D)
            assert list(table) == sorted(table)
            for ell in range(r, r * D + 1):
                for m in range(-(-ell // r), D + 1):
                    want = count_isolated_free_edge_sets(ell, m, r)
                    assert table.get((ell, m), 0) == want
                    assert ((ell, m) in table) == (want > 0)
            assert all(-(-ell // r) <= m <= D and r <= ell <= r * D for ell, m in table)
    with pytest.raises(TypeError):
        class_table(2, 3)[2, 1] = 0


def test_class_table_budget():
    # D + r D (D - 1) / 2 (ell, m) classes: 19,600 at r = 2, D = 140; 19,881 at D = 141
    assert len(class_table(2, 0)) == 0
    with pytest.raises(BudgetExceededError, match="--degree"):
        class_table(2, 142)
    with pytest.raises(BudgetExceededError, match=str(LDLR_CLASS_BUDGET)):
        class_table(3, 10 ** 12)


def test_subgraph_class_examples():
    assert count_subgraph_class(5, 3, 2, 2) == 30
    assert count_subgraph_class(5, 3, 3, 2) == 10
    with pytest.raises(InvalidArgumentError):
        count_subgraph_class(2, 3, 1, 2)


def test_hypergraph_canonicalization():
    hg = Hypergraph(4, 2, frozenset({(1, 2), (3, 4)}))
    assert hg.edge_count == 2
    with pytest.raises(InvalidArgumentError):
        Hypergraph(4, 2, frozenset({(2, 1)}))
    with pytest.raises(InvalidArgumentError):
        Hypergraph(1, 2)
    with pytest.raises(InvalidArgumentError):
        Hypergraph(4, 2, [(1, 2), (1, 2, 3)])
    assert Hypergraph(4, 2, [(1, 2), [1, 2], (3, 4)]) == hg


@given(st.integers(2, 4), st.data())
@settings(max_examples=80)
def test_hypergraph_ranks_text_and_pickle_roundtrip(r, data):
    n = data.draw(st.integers(r, 12))
    edges = data.draw(st.lists(st.sampled_from(list(all_edges(n, r))), max_size=30))
    hg = Hypergraph(n, r, edges)
    assert hg.sorted_edges() == sorted(set(edges))
    assert hg.edge_count == len(set(edges))
    assert hg.ranks.tolist() == sorted(rank_edge(e, n, r) for e in set(edges))
    assert not hg.ranks.flags.writeable
    wrapped = Hypergraph.from_ranks(n, r, hg.ranks)
    assert Hypergraph(n, r, set(edges)) == wrapped == hg
    assert hash(wrapped) == hash(hg)
    assert parse_hypergraph_text(write_hypergraph_text(hg))[0] == hg
    restored = pickle.loads(pickle.dumps(hg))
    assert restored == hg and not restored.ranks.flags.writeable


def test_from_ranks_roundtrip():
    hg = Hypergraph(5, 2, frozenset({(1, 2), (2, 5), (3, 4)}))
    assert hg.edge_count == 3
    assert hg.ranks.tolist() == [0, 6, 7]
    assert Hypergraph.from_ranks(5, 2, hg.ranks) == hg


def test_from_ranks_rejects_bad_ranks():
    for ranks in ([6], [-1], [3, 1], [1, 1], [[0, 1]]):
        with pytest.raises(InvalidArgumentError):
            Hypergraph.from_ranks(4, 2, np.array(ranks))


def test_text_format_roundtrip():
    hg = Hypergraph(5, 2, frozenset({(1, 3), (2, 5)}))
    text = write_hypergraph_text(hg, comments=["Z: 1 3"])
    parsed, comments = parse_hypergraph_text(text)
    assert parsed == hg
    assert comments == ["Z: 1 3"]
    # edges emitted in rank order
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "5 2"
    assert lines[1:] == ["1 3", "2 5"]


def test_text_format_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        parse_hypergraph_text("")
    with pytest.raises(InvalidArgumentError):
        parse_hypergraph_text("5\n1 2\n")
    bad_inputs = [
        ("5 x\n1 2\n", "line 1"),
        ("# c\n5 2\n1 y\n", "line 3"),
        ("5 2\n1 2\n\n3 4\n1 2\n", "line 5"),
        ("5 2\n1 2\n01  2\n", "line 3"),
    ]
    for text, where in bad_inputs:
        with pytest.raises(InvalidArgumentError, match=where):
            parse_hypergraph_text(text)


def _within_ranks_by_combinations(Z, n, r):
    """within_ranks as it was built before the index arithmetic: every
    r-subset through itertools.combinations, ranked by rank_edges."""
    zs = sorted(Z)
    k = comb(len(zs), r)
    flat = itertools.chain.from_iterable(itertools.combinations(zs, r))
    return rank_edges(np.fromiter(flat, dtype=np.int64, count=k * r).reshape(k, r), n, r)


@given(st.integers(2, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_within_ranks_matches_combinations(r, data):
    n = data.draw(st.integers(r, 40))
    Z = data.draw(st.sets(st.integers(1, n), max_size=min(n, 16)))
    got = within_ranks(Z, n, r)
    want = _within_ranks_by_combinations(Z, n, r)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_within_ranks_empty_and_short_sets():
    for r in range(2, 6):
        assert within_ranks(set(), 9, r).shape == (0,)
        assert within_ranks(set(range(1, r)), 9, r).shape == (0,)
        assert within_ranks(set(range(1, r + 1)), 9, r).tolist() == [0]
    with pytest.raises(InvalidArgumentError):
        within_ranks({0, 1, 2}, 5, 2)


def _parse_by_line(text):
    """The text parser as it was before it read the text in spans: one line
    at a time, every edge line kept as a vertex tuple."""
    comments = []
    header = None
    edges = {}
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


def _outcome(parse, text):
    try:
        return parse(text)
    except (InvalidArgumentError, BudgetExceededError) as exc:
        return type(exc), str(exc)


def assert_parses_like_by_line(text, chunks=(8, 64, None)):
    """parse_hypergraph_text gives the per-line parser's hypergraph and
    comments, or its exception type and message, at every span length."""
    want = _outcome(_parse_by_line, text)
    for chunk in chunks:
        with mock.patch.object(hypergraph, "TEXT_CHUNK_CHARS", chunk or hypergraph.TEXT_CHUNK_CHARS):
            assert _outcome(parse_hypergraph_text, text) == want, chunk


TEXT_HEADERS = ["6 2", "6 3", " 6\t2 ", "06 +2", "5", "5 2 1", "x 2", "5 2.0", "0 0", "1 2",
                "-3 2", "2000000 2", "4000000 3", "", "# no header"]
TEXT_JUNK = ["", "   ", "\t", "# Z: 1 2", "  #indented", "#", "0 1", "1 7", "-1 2", "2 1",
             "1 1", "1 x", "1.5 2", "1 2 3 4", "1", "1 #2", "١ 2", "1_0 2", "01  2", "1 99999999999999999999"]
TEXT_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", " "]


@st.composite
def edge_list_texts(draw):
    """A header (good or bad), then edges of K_6^r in rank order, spelled
    with varied whitespace and leading zeros, with repeats and junk lines
    (comments, blanks, bad tokens, wrong lengths, out-of-range and unsorted
    edges) inserted anywhere, joined by any mix of line breaks."""
    r = draw(st.sampled_from([2, 3]))
    edges = draw(st.lists(st.sampled_from(list(all_edges(6, r))), max_size=40, unique=True))
    spell = st.sampled_from(["{}", "0{}", "+{}", " {} "])
    lines = [draw(st.sampled_from(TEXT_HEADERS[:2]) | st.sampled_from(TEXT_HEADERS))]
    lines += [" ".join(draw(spell).format(v) for v in e) for e in sorted(edges)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(TEXT_JUNK) | st.sampled_from(lines[1:] or [""])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(TEXT_JUNK[:6])))
    breaks = draw(st.lists(st.sampled_from(TEXT_BREAKS), min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


@given(edge_list_texts())
@settings(max_examples=400, deadline=None)
def test_parser_matches_per_line_parser(text):
    assert_parses_like_by_line(text)


def _span_outcome(text):
    """The span reader's hypergraph and comments, or None where it refuses the text."""
    try:
        return hypergraph._read_spans(text)
    except (ValueError, OverflowError, BudgetExceededError):
        return None


@given(edge_list_texts())
@settings(max_examples=400, deadline=None)
def test_span_reader_accepts_exactly_what_the_per_line_parser_accepts(text):
    want = _outcome(_parse_by_line, text)
    if not isinstance(want[0], Hypergraph):
        want = None
    for chunk in (8, hypergraph.TEXT_CHUNK_CHARS):
        with mock.patch.object(hypergraph, "TEXT_CHUNK_CHARS", chunk):
            assert _span_outcome(text) == want, chunk


def _long_file():
    """About 15,000 edges of K_300^2 under a comment, written over many spans."""
    hg = Hypergraph(300, 2, itertools.islice(all_edges(300, 2), 0, None, 3))
    return hg, write_hypergraph_text(hg, comments=["Z: 1 2"])


SAMPLE_ARGS = {"2": ["--n", "400", "--alpha", "0.3", "--beta", "0.5", "--gamma", "0.6"],
               "3": ["--n", "100", "--alpha", "0.3", "--beta", "1.0", "--gamma", "0.6"]}
SAMPLE_COMMENTS = {"null": [], "planted": ["Z:"], "aux": ["u-signs:"], "long": ["Z:"]}


@pytest.mark.parametrize("model, r", [("null", "2"), ("planted", "2"), ("aux", "2"),
                                      ("null", "3"), ("planted", "3"), ("long", "2")])
def test_span_reader_reads_writer_output_without_the_per_line_reader(model, r, tmp_path):
    """Good text that made the span reader fall back would still parse, only
    slower, so the per-line reader is made to fail here."""
    if model == "long":
        text = _long_file()[1]
    else:
        out = tmp_path / "sample.txt"
        argv = ["sample", "--model", model, "--seed", "3", "--r", r, "--out", str(out)]
        assert main(argv + SAMPLE_ARGS[r]) == 0
        text = out.read_text()
    assert len(text) > 1.5 * hypergraph.TEXT_CHUNK_CHARS
    want = _parse_by_line(text)
    assert [c.split()[0] for c in want[1]] == SAMPLE_COMMENTS[model]
    with mock.patch.object(hypergraph, "_read_lines", side_effect=AssertionError("fell back")):
        for crlf in (False, True):
            assert parse_hypergraph_text(text.replace("\n", "\r\n") if crlf else text) == want


@pytest.mark.parametrize("fault", [None, "repeat", "unsorted", "wrong-length", "token", "range"])
def test_parser_matches_per_line_parser_on_long_files(fault):
    hg, text = _long_file()
    lines = text.splitlines()
    assert len("\n".join(lines)) > 4 * hypergraph.TEXT_CHUNK_CHARS
    late = len(lines) - 5
    if fault == "repeat":  # the same edge, spelled otherwise, many spans later
        lines.insert(late, "0" + lines[3].replace(" ", "  "))
    elif fault == "unsorted":  # out of rank order, which is no fault, twice
        lines[3], lines[late] = lines[late], lines[3]
        lines.insert(late, lines[1200])
    elif fault == "wrong-length":
        lines.insert(2000, "1 2 3")
        lines.insert(late, "1 2 x")
    elif fault == "token":
        lines.insert(late, "1 2 x")
        lines.insert(late + 1, lines[10])
    elif fault == "range":
        lines.insert(late, "300 301")
        lines.insert(1500, "7 3")
    text = "\r\n".join(lines)
    assert_parses_like_by_line(text, chunks=(None, 1000))
    if fault is None:
        assert parse_hypergraph_text(text) == (hg, ["Z: 1 2"])
