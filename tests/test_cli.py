import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from denselab.balanced import find_balanced_motif
from denselab.cli import build_parser, main
from denselab.errors import InvalidArgumentError
from denselab.models import derive_params
from denselab.stats import classify_regime

BASE = ["--n", "16", "--r", "2", "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"]


def run_cli(args, tmp_path, name="out.txt", env=None):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_sample_null_deterministic(tmp_path):
    c1, t1 = run_cli(["sample", "--model", "null", "--seed", "3"] + BASE, tmp_path, "a")
    c2, t2 = run_cli(["sample", "--model", "null", "--seed", "3"] + BASE, tmp_path, "b")
    assert c1 == c2 == 0
    assert t1 == t2
    assert t1.startswith("16 2\n")


def test_sample_planted_has_z_header(tmp_path):
    code, text = run_cli(["sample", "--model", "planted", "--seed", "3"] + BASE, tmp_path)
    assert code == 0
    assert any(line.startswith("# Z:") for line in text.splitlines())


def test_aux_signs_are_one_exactly_on_the_planted_z(tmp_path):
    _, aux = run_cli(["sample", "--model", "aux", "--seed", "3"] + BASE, tmp_path, "a")
    _, planted = run_cli(["sample", "--model", "planted", "--seed", "3"] + BASE, tmp_path, "p")
    signs = next(line for line in aux.splitlines() if line.startswith("# u-signs:")).split()[2:]
    z = next(line for line in planted.splitlines() if line.startswith("# Z:")).split()[2:]
    assert set(signs) == {"1", "-1"} and len(signs) == 16
    assert [str(v) for v, sign in enumerate(signs, 1) if sign == "1"] == z


def test_sample_aux_infeasible_exit_code(tmp_path, capsys):
    # dense planted part against a very sparse background drives the
    # mixed-pair probability below zero at small n
    args = ["sample", "--model", "aux", "--seed", "1", "--n", "8", "--r", "2",
            "--alpha", "0.05", "--beta", "0.9", "--gamma", "0.4"]
    code = main(args)
    assert code == 4
    assert "probability" in capsys.readouterr().err


def test_invalid_params_exit_code(capsys):
    code = main(["sample", "--model", "null", "--seed", "1", "--n", "16",
                 "--r", "2", "--alpha", "0.7", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 2


def test_rank_overflow_exit_code(capsys):
    # C(4e6, 3) ~ 1.07e19 edges: ranks would overflow int64
    code = main(["sample", "--model", "null", "--seed", "1", "--n", "4000000",
                 "--r", "3", "--alpha", "0.5", "--beta", "1.0", "--gamma", "0.5"])
    assert code == 3
    assert "2^63" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["abc", "0", "-2", "1.5"])
def test_invalid_worker_count_exit_code(workers, monkeypatch, capsys):
    monkeypatch.setenv("DENSELAB_WORKERS", workers)
    code = main(["test", "--stat", "edge", "--trials", "4", "--seed", "1"] + BASE)
    assert code == 2
    assert "DENSELAB_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["4000000 3", "2097152 2", "20000 10000", "1000000 500000"])
def test_input_header_over_budget_exit_code(header, tmp_path, capsys):
    # C(4e6, 3) >= 2^63 ranks; 2^21 vertices exceed the rank table's budget;
    # C(2e4, 1e4) has more digits than Python prints, C(1e6, 5e5) takes ~14 s to form
    graph = tmp_path / "g.txt"
    graph.write_text(header + "\n")
    code = main(["test", "--stat", "edge", "--input", str(graph), "--n", "5", "--r", "2",
                 "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_ldlr_json_past_int_digit_limit_exit_code(tmp_path, capsys):
    # at n = 1e250 the D = 10 class counts have more than 4300 digits
    args = ["ldlr", "--mode", "exact", "--degree", "10", "--n", str(10 ** 250), "--r", "2",
            "--alpha", "0.48", "--beta", "0.5", "--gamma", "0.6"]
    code, _ = run_cli(args, tmp_path, "l.json")
    assert code == 3
    assert "--format csv" in capsys.readouterr().err
    code, text = run_cli(args + ["--format", "csv"], tmp_path, "l.csv")
    assert code == 0 and len(text.splitlines()) > 1


@pytest.mark.parametrize("text", ["5 x\n1 2\n", "5 2\n1 2\n1 y\n", "5 2\n1 2\n1 2\n"])
def test_malformed_input_file_exit_code(text, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code = main(["test", "--stat", "edge", "--input", str(graph), "--n", "5", "--r", "2",
                 "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    code = main(["ldlr"] + BASE)
    assert code == 2
    assert "degree" in capsys.readouterr().err


def test_test_single_input_json(tmp_path):
    _, text = run_cli(["sample", "--model", "null", "--seed", "3"] + BASE, tmp_path, "g.txt")
    graph = tmp_path / "g.txt"
    code, out = run_cli(
        ["test", "--stat", "edge", "--input", str(graph)] + BASE, tmp_path, "dec.json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"statistic", "threshold", "decision"}
    assert payload["decision"] in ("null", "planted")


def test_test_trials_json_and_csv(tmp_path):
    args = ["test", "--stat", "edge", "--trials", "8", "--seed", "5"] + BASE
    code, js = run_cli(args, tmp_path, "rep.json")
    assert code == 0
    payload = json.loads(js)
    assert "separation" in payload and payload["trials"] == 8
    code, cs = run_cli(args + ["--format", "csv"], tmp_path, "rep.csv")
    assert code == 0
    assert cs.splitlines()[0] == "trial,model,statistic,decision"


def test_ldlr_exact_vs_bruteforce(tmp_path):
    args = ["--n", "5", "--r", "2", "--alpha", "0.3", "--beta", "0.6",
            "--gamma", "0.5", "--degree", "3"]
    _, a = run_cli(["ldlr", "--mode", "exact"] + args, tmp_path, "a.json")
    _, b = run_cli(["ldlr", "--mode", "bruteforce"] + args, tmp_path, "b.json")
    va, vb = json.loads(a)["value"], json.loads(b)["value"]
    assert abs(va - vb) <= 1e-9 * va


def test_ldlr_conditional_requires_delta(capsys):
    code = main(["ldlr", "--mode", "conditional", "--degree", "3",
                 "--n", "4", "--r", "2", "--alpha", "0.45", "--beta", "0.6",
                 "--gamma", "0.3"])
    assert code == 2
    assert "delta required" in capsys.readouterr().err


def test_ldlr_csv_format(tmp_path):
    code, text = run_cli(
        ["ldlr", "--mode", "exact", "--degree", "2", "--format", "csv"] + BASE,
        tmp_path,
        "l.csv",
    )
    assert code == 0
    # pinned schema
    assert text.splitlines()[0] == "ell,m,classCountLog10,termLog10"


def test_phase_diagram_schema_and_invalid_cells(tmp_path):
    code, text = run_cli(
        [
            "phase-diagram", "--r", "2", "--beta", "0.5",
            "--alpha-grid", "0.2,0.45,0.7", "--gamma-grid", "0.6",
            "--n-grid", "32", "--degree", "4",
        ],
        tmp_path,
        "pd.csv",
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "alpha,gamma,n,regime,ldlr_minus_1,separation,sep_se"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[3] for r in rows] == ["easy", "boundary", "invalid"]
    # invalid cells keep the sweep alive and leave numeric fields blank
    assert rows[2][4] == ""


def test_find_balanced_roundtrip_through_test(tmp_path):
    code, motif_json = run_cli(
        ["find-balanced", "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48",
         "--r", "2"],
        tmp_path,
        "motif.json",
    )
    assert code == 0
    motif_file = tmp_path / "motif.json"
    payload = json.loads(motif_json)
    assert payload["ratio"] == [3, 2]
    code, rep = run_cli(
        ["test", "--stat", "motif", "--motif-file", str(motif_file),
         "--trials", "4", "--seed", "2",
         "--n", "20", "--r", "2", "--alpha", "0.3", "--beta", "0.75",
         "--gamma", "0.48"],
        tmp_path,
        "rep.json",
    )
    assert code == 0
    assert json.loads(rep)["motif"]["edges"] == payload["edges"]


def test_find_balanced_regime_violation_exit(capsys):
    code = main(["find-balanced", "--alpha", "0.4", "--beta", "0.6",
                 "--gamma", "0.55", "--r", "2"])
    assert code == 4
    assert "regime" in capsys.readouterr().err


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("n=16\nr=2\nalpha=0.25\nbeta=0.5\ngamma=0.5\nseed=3\n")
    c1, t1 = run_cli(["sample", "--model", "null", "--config", str(cfg)], tmp_path, "a")
    c2, t2 = run_cli(
        ["sample", "--model", "null", "--seed", "3"] + BASE, tmp_path, "b"
    )
    assert c1 == c2 == 0 and t1 == t2
    # explicit flag beats the config value
    c3, t3 = run_cli(
        ["sample", "--model", "null", "--config", str(cfg), "--seed", "4"],
        tmp_path,
        "c",
    )
    assert c3 == 0 and t3 != t1


def test_worker_count_does_not_change_output(tmp_path):
    args = [sys.executable, "-m", "denselab.cli", "test", "--stat", "edge",
            "--trials", "10", "--seed", "5"] + BASE
    envs = []
    for workers in ("1", "3"):
        env = dict(os.environ, DENSELAB_WORKERS=workers)
        res = subprocess.run(args, capture_output=True, text=True, env=env)
        assert res.returncode == 0
        envs.append(res.stdout)
    assert envs[0] == envs[1]


def test_motif_input_shape_mismatch_exit_code(tmp_path, capsys):
    # both statistics share one (n, r) check: a 5-vertex file is not an n=60 host
    graph = tmp_path / "g.txt"
    graph.write_text("5 2\n1 2\n2 3\n3 4\n")
    code = main(["test", "--stat", "motif", "--input", str(graph), "--n", "60", "--r", "2",
                 "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48"])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


GRID = ["phase-diagram", "--r", "2", "--beta", "0.5", "--degree", "2"]
COND = ["ldlr", "--mode", "conditional", "--degree", "3", "--n", "4", "--r", "2",
        "--alpha", "0.45", "--beta", "0.6", "--gamma", "0.3"]
COND_R3 = ["ldlr", "--mode", "conditional", "--degree", "3", "--n", "4", "--r", "3",
           "--alpha", "0.45", "--beta", "1.2", "--gamma", "0.3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--config", "{cfg}"],
        ["sample", "--config", "{missing}"] + BASE,
        ["test", "--input", "{missing}", "--seed", "1"] + BASE,
        ["test", "--input", "{tmp}", "--seed", "1"] + BASE,
        ["test", "--input", "{binary}", "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{missing}", "--trials", "2",
         "--seed", "1"] + BASE,
        GRID + ["--alpha-grid", "0.2,x", "--gamma-grid", "0.6", "--n-grid", "32"],
        GRID + ["--alpha-grid", "0.2", "--gamma-grid", "0.6,,y", "--n-grid", "32"],
        GRID + ["--alpha-grid", "0.2", "--gamma-grid", "0.6", "--n-grid", "32,1e3"],
        ["test", "--stat", "motif", "--motif-file", "{cfg}", "--trials", "2",
         "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{nokey}", "--trials", "2",
         "--seed", "1"] + BASE,
        ["find-balanced", "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48", "--r", "2",
         "--out", "{missing}/x.json"],
        COND + ["--delta", "nan"],
        COND + ["--delta", "inf"],
        ["sample", "--seed", "-1"] + BASE,
        ["test", "--trials", "2", "--seed", "-1"] + BASE,
        ["find-balanced", "--alpha", "0", "--beta", "0.75", "--gamma", "0.48", "--r", "2"],
        ["find-balanced", "--alpha", "0.3", "--beta", "0.75", "--gamma", "0.48", "--r", "1"],
        ["find-balanced", "--alpha", "0.3", "--beta", "inf", "--gamma", "0.48", "--r", "2"],
        ["test", "--input", "{big}", "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{bigmotif}", "--trials", "2",
         "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{floatmotif}", "--trials", "2",
         "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{floatn}", "--trials", "2",
         "--seed", "1"] + BASE,
        ["test", "--stat", "motif", "--motif-file", "{floatr}", "--trials", "2",
         "--seed", "1"] + BASE,
        GRID + ["--alpha-grid", "0.2", "--gamma-grid", "0.6", "--n-grid", "32",
                "--trials", "-1", "--seed", "1"],
        # every grid point is invalid, so a check inside the sweep never runs
        GRID + ["--alpha-grid", "0.7", "--gamma-grid", "0.6", "--n-grid", "32",
                "--trials", "3"],
        GRID + ["--alpha-grid", "0.7", "--gamma-grid", "0.6", "--n-grid", "32",
                "--trials", "3", "--seed", "-1"],
        GRID + ["--alpha-grid", ",", "--gamma-grid", "0.6", "--n-grid", "100"],
        GRID[:-1] + ["-1", "--alpha-grid", "0.7", "--gamma-grid", "0.6", "--n-grid", "32"],
        ["phase-diagram", "--r", "1", "--beta", "0.5", "--degree", "-1", "--alpha-grid",
         "0.2", "--gamma-grid", "0.6", "--n-grid", "32"],
    ],
    ids=["config-value", "config-missing", "input-missing", "input-directory",
         "input-binary", "motif-file-missing", "alpha-grid", "gamma-grid", "n-grid",
         "motif-file-not-json", "motif-file-no-key", "out-unwritable", "delta-nan",
         "delta-inf", "sample-seed-negative", "test-seed-negative", "find-balanced-alpha-0",
         "find-balanced-r-1", "find-balanced-beta-inf", "input-vertex-past-int64",
         "motif-file-vertex-past-int64", "motif-file-float-vertex", "motif-file-float-n",
         "motif-file-float-r", "phase-diagram-trials-negative",
         "phase-diagram-trials-without-seed", "phase-diagram-seed-negative",
         "phase-diagram-empty-grid", "phase-diagram-degree-negative",
         "phase-diagram-degree-negative-r-1"],
)
def test_bad_cli_input_exits_2_without_traceback(argv, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("n=abc\nr=2\nalpha=0.25\nbeta=0.5\ngamma=0.5\nseed=3\n")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    nokey = tmp_path / "nokey.json"
    nokey.write_text('{"n": 3}')
    big = tmp_path / "big.txt"
    big.write_text("5 2\n1 99999999999999999999\n")
    paths = {"cfg": cfg, "missing": tmp_path / "missing", "tmp": tmp_path, "binary": binary,
             "nokey": nokey, "big": big}
    for name, vertex in (("bigmotif", "99999999999999999999"), ("floatmotif", "3.5")):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(f'{{"n": 3, "r": 2, "edges": [[1, 2], [2, 3], [1, {vertex}]]}}')
    k4 = "[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]"
    for name, n, r in (("floatn", "4.0", "2"), ("floatr", "4", "2.0")):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(f'{{"n": {n}, "r": {r}, "edges": {k4}}}')
    argv = [a.format(**paths) for a in argv]
    res = subprocess.run([sys.executable, "-m", "denselab.cli"] + argv,
                         capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert any(line.startswith("error: ") for line in res.stderr.splitlines())
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["ldlr", "--mode", "exact", "--degree", "100000"] + BASE,
        GRID[:-1] + ["100000", "--alpha-grid", "0.2", "--gamma-grid", "0.6", "--n-grid", "32"],
    ],
    ids=["ldlr", "phase-diagram"],
)
def test_degree_over_class_budget_exits_3_without_traceback(argv):
    res = subprocess.run([sys.executable, "-m", "denselab.cli"] + argv,
                         capture_output=True, text=True)
    assert res.returncode == 3, res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
    assert errors and "--degree" in errors[0]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "aux", "--seed", "1", "--n", "2000000", "--r", "2"],
        ["sample", "--model", "null", "--seed", "1", "--n", "2000000", "--r", "1000000"],
        ["test", "--stat", "edge", "--trials", "4", "--seed", "1", "--n", "2000000",
         "--r", "1000000"],
        ["ldlr", "--mode", "bruteforce", "--degree", "100000000", "--n", "100", "--r", "2"],
        # alpha 0.7 > beta 0.5: every grid point is invalid
        ["phase-diagram", "--r", "2", "--degree", "500", "--alpha-grid", "0.7",
         "--gamma-grid", "0.6", "--n-grid", "32"],
    ],
    ids=["aux-huge-n", "sample-huge-r", "test-huge-r", "bruteforce-huge-degree",
         "phase-diagram-degree-over-budget"],
)
def test_sample_over_budget_exits_3_at_once(argv):
    # C(2e6, 1e6) takes seconds to form, and a full sum of C(4950, d) over
    # 1e8 degrees is 1e8 Python calls; the budget check must stop first
    res = subprocess.run([sys.executable, "-m", "denselab.cli"] + argv
                         + ["--alpha", "0.3", "--beta", "0.5", "--gamma", "0.75"],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 3, res.stderr
    assert any(line.startswith("error: ") for line in res.stderr.splitlines())
    assert "Traceback" not in res.stderr


def test_cli_import_leaves_mpmath_out():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, denselab, denselab.cli; assert 'mpmath' not in sys.modules"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize(
    "argv, nulls",
    [
        (["test", "--stat", "edge", "--n", "3", "--r", "2", "--alpha", "0.05", "--beta", "0.9",
          "--gamma", "0.99", "--trials", "2", "--seed", "6"], 1),
        (["ldlr", "--mode", "exact", "--degree", "10", "--n", str(10 ** 200), "--r", "2",
          "--alpha", "0.3", "--beta", "0.5", "--gamma", "0.6"], 26),
    ],
    ids=["infinite-separation", "ldlr-overflow"],
)
def test_json_output_is_strict(argv, nulls, tmp_path):
    # at seed 6 both null draws and both planted draws have equal edge counts,
    # so separation = inf (a property of the sampler's stream); at n = 1e200
    # the value and the largest class terms overflow a float
    code, text = run_cli(argv, tmp_path, "out.json")
    assert code == 0
    json.loads(text, parse_constant=_reject_constant)
    assert text.count("null") == nulls


def test_config_supplies_model_and_stat(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("n=20\nr=2\nalpha=0.3\nbeta=0.75\ngamma=0.48\nseed=2\ntrials=2\n"
                   "model=planted\nstat=motif\n")
    code, text = run_cli(["sample", "--config", str(cfg)], tmp_path, "s.txt")
    assert code == 0
    assert any(line.startswith("# Z:") for line in text.splitlines())
    code, rep = run_cli(["test", "--config", str(cfg)], tmp_path, "rep.json")
    assert code == 0
    assert json.loads(rep)["motif"]["ratio"] == [3, 2]
    # an explicit flag still beats the config value
    code, text = run_cli(["sample", "--config", str(cfg), "--model", "null"], tmp_path, "n.txt")
    assert code == 0 and not any(line.startswith("#") for line in text.splitlines())


@pytest.mark.parametrize(
    "key, command",
    [("model", "sample"), ("stat", "test"), ("mode", "ldlr"), ("format", "ldlr")],
)
def test_config_value_outside_flag_choices_exits_2(key, command, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key}=foo\ndegree=2\ntrials=2\nseed=1\n")
    code = main([command, "--config", str(cfg)] + BASE)
    assert code == 2
    assert f"config key {key!r}: bad value 'foo'" in capsys.readouterr().err


def test_conditional_budget_names_supported_pairs(capsys):
    code = main(["ldlr", "--mode", "conditional", "--degree", "3", "--delta", "0.1",
                 "--n", "4", "--r", "4", "--alpha", "0.45", "--beta", "0.6", "--gamma", "0.3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "n <= 4 at r = 2 and n <= 4 at r = 3; got n = 4, r = 4" in err


@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [(0.0, 0.5, 0.45), (0.5, 0.5, 0.45), (0.3, 1.0, 0.45), (0.3, 0.5, 1.0),
     (math.nan, 0.5, 0.45)],
    ids=["alpha=0", "alpha=beta", "beta=r-1", "gamma=1", "nan"],
)
def test_exponent_violation_has_one_message_everywhere(alpha, beta, gamma, capsys):
    messages = set()
    for check in (lambda: derive_params(8, 2, alpha, beta, gamma),
                  lambda: classify_regime(alpha, beta, gamma, 2),
                  lambda: find_balanced_motif(alpha, beta, gamma, 2)):
        with pytest.raises(InvalidArgumentError) as exc:
            check()
        messages.add(f"error: {exc.value}")
    exponents = ["--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma), "--r", "2"]
    for argv in (["sample", "--n", "8", "--seed", "1"],
                 ["test", "--n", "8", "--seed", "1", "--trials", "3"],
                 ["ldlr", "--n", "8", "--degree", "2"],
                 ["find-balanced"]):
        assert main(argv + exponents) == 2
        messages.add(capsys.readouterr().err.strip())
    assert len(messages) == 1, messages


LDLR_EXP = ["--r", "2", "--alpha", "0.48", "--beta", "0.5", "--gamma", "0.6"]
# sha256 prefixes of stdout, computed before the parser was reused across calls,
# the exact LDLR sum moved to raw mpf tuples and the text format to numpy; the
# planted sample's after its stream took both edge counts before any position; the
# edge test's before the separation workers returned bare values; the auxiliary
# sample's after its draw became a planted draw thinned on the mixed pairs; the
# conditional norm's before its sum ran over |Z| strata instead of planted sets
STDOUT_SHA256 = [
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", "1000", *LDLR_EXP], "9a8eaeb1ab6e4637"),
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", "1000", *LDLR_EXP, "--format", "csv"],
     "63892dfe48480fc8"),
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", "1000000", *LDLR_EXP],
     "fb2e9c32575cc457"),
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", "1000000", *LDLR_EXP,
      "--format", "csv"], "95a552d9a60fa006"),
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", str(10 ** 200), *LDLR_EXP],
     "7af345f730028885"),
    (["ldlr", "--mode", "exact", "--degree", "10", "--n", str(10 ** 200), *LDLR_EXP,
      "--format", "csv"], "61dbe7d1e130ee67"),
    (["ldlr", "--mode", "exact", "--degree", "30", "--n", "10000", "--r", "3",
      "--alpha", "0.4", "--beta", "1.2", "--gamma", "0.6"], "728b08907d37c5be"),
    (["phase-diagram", "--r", "2", "--beta", "0.5", "--alpha-grid", "0.2,0.3,0.4,0.45,0.48",
      "--gamma-grid", "0.5,0.55,0.6,0.65,0.7", "--n-grid", "1000,10000,100000,1000000",
      "--degree", "10"], "f2c5dea416fb1453"),
    (["sample", "--model", "planted", "--seed", "321", "--n", "1000", "--r", "2",
      "--alpha", "0.3", "--beta", "0.5", "--gamma", "0.75"], "5fcd9600ad5b97c6"),
    (["sample", "--model", "aux", "--seed", "4", "--n", "30", "--r", "2",
      "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"], "b043779638f8af93"),
    (["test", "--stat", "edge", "--trials", "12", "--seed", "5", "--n", "16", "--r", "2",
      "--alpha", "0.25", "--beta", "0.5", "--gamma", "0.5"], "8bc170431fedb612"),
    ([*COND, "--delta", "0.1"], "e73fdf00c3f4e9f3"),
    ([*COND, "--delta", "0.1", "--format", "csv"], "c76812f1695ac2cd"),
    ([*COND_R3, "--delta", "0.1"], "2a58675724e28563"),
    ([*COND_R3, "--delta", "0.1", "--format", "csv"], "820196f7e680536e"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_SHA256, ids=lambda v: v if isinstance(v, str) else None)
def test_stdout_bytes_are_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("model=planted\n")
    sample = ["sample", "--seed", "3"] + BASE
    code, planted = run_cli(sample + ["--config", str(config)], tmp_path, "a.txt")
    assert code == 0 and "# Z:" in planted
    code, null = run_cli(sample, tmp_path, "b.txt")  # the config's model does not carry over
    assert code == 0 and "# Z:" not in null
    with pytest.raises(SystemExit) as exc:
        main(["ldlr", "--degree", "x"] + BASE)
    assert exc.value.code == 2
    assert main(["ldlr", "--degree", "2"] + BASE) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [[], ["sample"], ["test"], ["ldlr"], ["phase-diagram"],
                                     ["find-balanced"]])
def test_help_matches_a_freshly_built_parser(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    outputs = []
    for parse in (main, build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(command + ["--help"])
        assert exc.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and "usage: denselab" in outputs[0]
