"""Fuzz of the CLI's exit-code contract, in process.

Each example is one argv for one of the five subcommands, with flags drawn
from small pools of good, out-of-domain and malformed values. Whatever the
argv, `main` returns 0, 2, 3 or 4, and the only exception that may leave it
is argparse's SystemExit(2).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_exits_with_a_contract_code(argv, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the argv
        assert exc.code == 2
        return
    assert code in (0, 2, 3, 4)
