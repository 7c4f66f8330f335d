"""Fuzz of the CLI's exit-code contract, in process.

Each example is one argv for one of the five subcommands, with flags drawn
from small pools of good, out-of-domain and malformed values, or a --config
or --input file drawn from good and junk lines, or a --motif-file drawn from
one good motif and its corruptions. Whatever the input, `main`
returns 0, 2, 3 or 4, and the only exception that may leave it is
argparse's SystemExit(2).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from denselab import cli
from denselab.cli import main

EXPONENT_BAD = ["0", "-0.5", "nan", "inf", "-inf", "x", ""]
INT_BAD = ["-1", "0", "x", "2.5"]


def pool(good, bad):
    return st.sampled_from(good), st.sampled_from(bad)


def grid(good, bad):
    return (
        st.lists(st.sampled_from(good), min_size=1, max_size=3).map(",".join),
        st.lists(st.sampled_from(good + bad), max_size=3).map(",".join),
    )


ALPHAS = ["0.15", "0.2", "0.3", "0.45"]
GAMMAS = ["0.3", "0.45", "0.48", "0.6", "0.75"]
SIZES = ["4", "5", "8"]
DEGREE = pool(["0", "1", "2", "3", "4"], ["-1", "x"])
TRIALS = pool(["2", "3"], ["-1", "0", "1", "x"])
FORMAT = pool(["json", "csv"], ["xml"])
# flag -> (strategy of good values, strategy of bad values); every good
# combination passes the exponent domain check 0 < alpha < beta < r - 1
COMMON = {
    "--n": pool(SIZES, INT_BAD),
    "--r": pool(["2", "3", "4"], ["-1", "0", "1", "x"]),
    "--alpha": pool(ALPHAS, EXPONENT_BAD),
    "--beta": pool(["0.5", "0.6", "0.75", "0.9"], EXPONENT_BAD + ["1.5"]),
    "--gamma": pool(GAMMAS, EXPONENT_BAD),
    "--seed": pool(["0", "1", "7"], ["-1", "x"]),
}
FLAGS = {
    "sample": {"--model": pool(["null", "planted", "aux"], ["foo"])},
    "test": {"--stat": pool(["edge", "motif"], ["foo"]), "--trials": TRIALS, "--format": FORMAT},
    "ldlr": {
        "--degree": DEGREE,
        "--mode": pool(["exact", "bruteforce", "conditional"], ["foo"]),
        "--delta": pool(["0.1", "0.5"], EXPONENT_BAD),
        "--format": FORMAT,
    },
    "phase-diagram": {
        "--alpha-grid": grid(ALPHAS, EXPONENT_BAD),
        "--gamma-grid": grid(GAMMAS, EXPONENT_BAD),
        "--n-grid": grid(SIZES, INT_BAD),
        "--degree": DEGREE,
        "--trials": TRIALS,
    },
    "find-balanced": {},
}


@st.composite
def argvs(draw):
    """A good value for every flag of one subcommand, then up to two flags
    given a bad value or dropped."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**COMMON, **FLAGS[command]}
    values = {flag: draw(good) for flag, (good, _) in flags.items()}
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(flags)))
        values[flag] = draw(st.none() | flags[flag][1])
    argv = [command]
    for flag, value in values.items():
        if value is not None:
            argv += [flag, value]
    return argv


def run_main(argv, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the argv
        assert exc.code == 2
        return
    assert code in (0, 2, 3, 4)


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_exits_with_a_contract_code(argv, tmp_path_factory):
    run_main(argv, tmp_path_factory)


def write(tmp_path_factory, name, text):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text, encoding="utf-8")
    return str(path)


JUNK_VALUES = ["", "x", "nan", "-1", "1e999", "=", " 3 ", "0x10", "\u00e9"]
JUNK_LINES = ["no equals sign", "=0.5", "[section]", "alpha==0.3", "nn=3", "Alpha=0.3",
              "config=x", "seed seed=1"]
NEUTRAL_LINES = ["", "   ", "# comment", "  # indented comment"]


@st.composite
def config_files(draw):
    """key=value lines for every flag of one subcommand (some keys spelled
    with dashes, some with spaces around '='), then up to two keys given a
    junk value or dropped, and up to two junk lines or lines giving any
    cli.FLAGS key a junk value, with blank and comment lines anywhere."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**COMMON, **FLAGS[command]}
    values = {flag: draw(good) for flag, (good, _) in flags.items()}
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(flags)))
        values[flag] = draw(st.none() | flags[flag][1] | st.sampled_from(JUNK_VALUES))
    lines = []
    for flag, value in values.items():
        if value is not None:
            key = flag[2:] if draw(st.booleans()) else flag[2:].replace("-", "_")
            lines.append(f"{key} = {value}" if draw(st.booleans()) else f"{key}={value}")
    for _ in range(draw(st.integers(0, 2))):
        junk = st.sampled_from(JUNK_LINES) | st.builds(
            "{}={}".format, st.sampled_from(sorted(cli.FLAGS)), st.sampled_from(JUNK_VALUES))
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NEUTRAL_LINES)))
    return command, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(config=config_files(),
       flags=st.lists(st.sampled_from(sorted(COMMON)).flatmap(
           lambda flag: COMMON[flag][0].map(lambda value: [flag, value])),
           max_size=2, unique_by=lambda pair: pair[0]))
def test_cli_config_file_exits_with_a_contract_code(config, flags, tmp_path_factory):
    """Explicit flags, which win over the config, ride along."""
    command, text = config
    argv = [command, "--config", write(tmp_path_factory, "fuzz.cfg", text)]
    run_main(argv + [token for pair in flags for token in pair], tmp_path_factory)


EDGES = {"2": [f"{i} {j}" for i in range(1, 6) for j in range(i + 1, 6)],
         "3": [f"{i} {j} {k}" for i in range(1, 6) for j in range(i + 1, 6)
               for k in range(j + 1, 6)]}
BAD_HEADERS = ["5 3", "4 2", "1 2", "0 0", "-3 2", "2000000 2", "5", "5 2 1", "x 2", "5 2.0"]
BAD_EDGES = ["0 1", "1 6", "-1 2", "2 1", "1 1", "1 x", "1.5 2", "1 2 3 4", "1", "1 2 3",
             "1 99999999999999999999", "1 -9223372036854775808"]


@st.composite
def input_files(draw):
    """A good file for n = 5 and the drawn r: its header, then distinct edges
    of K_5^r. Up to two corruptions follow: a bad header (mismatched, huge or
    malformed) or a bad edge line (out of range, unsorted, non-integer, wrong
    arity, or a repeat). Blank and comment lines go anywhere."""
    r = draw(st.sampled_from(sorted(EDGES)))
    lines = [f"5 {r}"] + draw(st.lists(st.sampled_from(EDGES[r]), max_size=8, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["header", "edge", "repeat"]))
        if kind == "header":
            lines[0] = draw(st.sampled_from(BAD_HEADERS + [""]))
        elif kind == "edge":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(BAD_EDGES)))
        elif len(lines) > 1:
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(lines[1:])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(NEUTRAL_LINES + ["# Z: 1 2", "\t"])))
    return r, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=150, deadline=None)
@given(graph=input_files(), stat=st.sampled_from(["edge", "motif"]))
def test_cli_input_file_exits_with_a_contract_code(graph, stat, tmp_path_factory):
    r, text = graph
    beta = "0.75" if r == "2" else "1.5"
    argv = ["test", "--stat", stat, "--input", write(tmp_path_factory, "fuzz.txt", text),
            "--n", "5", "--r", r, "--alpha", "0.3", "--beta", beta, "--gamma", "0.48"]
    run_main(argv, tmp_path_factory)


# find-balanced's motif at (alpha, beta, gamma) = (0.3, 0.75, 0.48), r = 2: K_4
MOTIF = {"n": 4, "r": 2, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}
BAD_SIZES = [4.0, 2.0, 4.5, float("inf"), "4", "2", True, False, None]
BAD_EDGE_LISTS = [5, "1 2", {"1": 2}, None, [1, 2]]
NOT_JSON = ["", "{", "n=4", "{'n': 4}", "é"]


@st.composite
def motif_files(draw):
    """The motif file of K_4, then up to two corruptions: `n` or `r` a float,
    string, bool or null; `edges` not a list of edges; a vertex a float; a
    key dropped; or the whole file replaced by text that is not JSON."""
    motif = dict(MOTIF, edges=[list(e) for e in MOTIF["edges"]])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["size", "edges", "vertex", "key", "text"]))
        if kind == "text":
            return draw(st.sampled_from(NOT_JSON))
        if kind == "size":
            motif[draw(st.sampled_from(["n", "r"]))] = draw(st.sampled_from(BAD_SIZES))
        elif kind == "edges":
            motif["edges"] = draw(st.sampled_from(BAD_EDGE_LISTS))
        elif kind == "vertex" and isinstance(motif.get("edges"), list):
            edge = motif["edges"][draw(st.integers(0, len(motif["edges"]) - 1))]
            if isinstance(edge, list):
                edge[draw(st.integers(0, len(edge) - 1))] += draw(st.sampled_from([0.0, 0.5]))
        elif kind == "key":
            del motif[draw(st.sampled_from(sorted(motif)))]
    return json.dumps(motif)


@settings(max_examples=150, deadline=None)
@given(text=motif_files())
def test_cli_motif_file_exits_with_a_contract_code(text, tmp_path_factory):
    """The motif counted on a given K_5 host, so that no trials run."""
    graph = write(tmp_path_factory, "fuzz-host.txt", "\n".join(["5 2"] + EDGES["2"]) + "\n")
    argv = ["test", "--stat", "motif", "--motif-file",
            write(tmp_path_factory, "fuzz-motif.json", text), "--input", graph,
            "--n", "5", "--r", "2", "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48"]
    run_main(argv, tmp_path_factory)
