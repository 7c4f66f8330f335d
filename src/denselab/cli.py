"""Command-line front end.

Subcommands: sample, test, ldlr, phase-diagram, find-balanced. Flags may be
preloaded from a key=value config file (--config); explicit flags win. Exit
codes: 0 success, 2 invalid arguments, 3 budget exceeded, 4 regime or
feasibility error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Dict, Optional, Sequence, Tuple, Union

from . import jsonout
from .balanced import BalancedMotif, find_balanced_motif, motif_from_json_dict
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InvalidArgumentError,
    RegimeError,
)
from .hypergraph import check_class_budget, parse_hypergraph_text, write_hypergraph_text
from .ldlr import (
    build_conditioning_spec,
    conditional_ldlr_exact_tiny,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
)
from .models import derive_params, sample_aux, sample_null, sample_planted
from .stats import classify_regime, estimate_separation, threshold_test

EXIT_OK = 0
EXIT_CODES = {InvalidArgumentError: 2, BudgetExceededError: 3, RegimeError: 4, InfeasibleError: 4}


def _read_text(path: str, flag: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read the {flag} file: {exc}") from None


def _read_config(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for raw in _read_text(path, "--config").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(args: argparse.Namespace) -> None:
    """Fill still-unset (None) argument slots from the config file, if any."""
    if not getattr(args, "config", None):
        return
    for key, raw in _read_config(args.config).items():
        if key not in FLAGS:
            raise InvalidArgumentError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            kind = FLAGS[key]
            try:
                if isinstance(kind, tuple) and raw not in kind:
                    raise ValueError(raw)
                setattr(args, key, raw if isinstance(kind, tuple) else kind(raw))
            except ValueError:
                raise InvalidArgumentError(f"config key {key!r}: bad value {raw!r}") from None


def _parse_list(text: str, cast: type, flag: str) -> list:
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgumentError(f"{flag}: bad {cast.__name__} in {text!r}") from None
    if not values:
        raise InvalidArgumentError(f"{flag} has no values")
    return values


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot write the --out file: {exc}") from None
    else:
        sys.stdout.write(text)


MODELS = ("null", "planted", "aux")
STATS = ("edge", "motif")
MODES = ("exact", "bruteforce", "conditional")
FORMATS = ("json", "csv")

# Every flag but --config, by its dest: the value type, or the tuple of its
# choices. Command-line and --config values are cast and checked by this one
# table, so a config value must pass the same check as the flag.
FLAGS: Dict[str, Union[type, Tuple[str, ...]]] = {
    "n": int, "r": int, "alpha": float, "beta": float, "gamma": float, "seed": int,
    "out": str, "model": MODELS, "stat": STATS, "input": str, "motif_file": str,
    "trials": int, "format": FORMATS, "degree": int, "mode": MODES, "delta": float,
    "alpha_grid": str, "gamma_grid": str, "n_grid": str,
}
COMMON_FLAGS = ("n", "r", "alpha", "beta", "gamma", "seed", "out")
HELP = {
    "input": "hypergraph text file for a single decision",
    "motif_file": "motif JSON from find-balanced",
}


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidArgumentError(f"--{name.replace('_', '-')} is required")


def _params_from_args(args: argparse.Namespace):
    _require(args, "n", "r", "alpha", "beta", "gamma")
    return derive_params(args.n, args.r, args.alpha, args.beta, args.gamma)


def cmd_sample(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    _require(args, "seed")
    model = args.model or "null"
    if model == "null":
        text = write_hypergraph_text(sample_null(params, args.seed))
    elif model == "planted":
        sample = sample_planted(params, args.seed)
        z_line = "Z: " + " ".join(str(v) for v in sorted(sample.Z))
        text = write_hypergraph_text(sample.Y, comments=[z_line])
    else:
        sample = sample_aux(params, args.seed)
        signs = " ".join("1" if v in sample.Z else "-1" for v in range(1, params.n + 1))
        text = write_hypergraph_text(sample.Y, comments=[f"u-signs: {signs}"])
    _emit(text, args.out)
    return EXIT_OK


def _resolve_motif(args: argparse.Namespace) -> BalancedMotif:
    if getattr(args, "motif_file", None):
        text = _read_text(args.motif_file, "--motif-file")
        try:
            return motif_from_json_dict(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and motif checks
            raise InvalidArgumentError(f"--motif-file is not a valid motif: {exc!r}") from None
    _require(args, "alpha", "beta", "gamma", "r")
    return find_balanced_motif(args.alpha, args.beta, args.gamma, args.r)


def cmd_test(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    statistic = "edge"
    motif: Optional[BalancedMotif] = None
    if (args.stat or "edge") == "motif":
        motif = _resolve_motif(args)
        statistic = motif
    if args.input:
        hg, _ = parse_hypergraph_text(_read_text(args.input, "--input"))
        result = threshold_test(hg, params, statistic)
        payload = {
            "statistic": result.statistic,
            "threshold": result.threshold,
            "decision": result.decision,
        }
        if motif is not None:
            payload["motif"] = motif.to_json_dict()
        _emit(jsonout.dumps(payload) + "\n", args.out)
        return EXIT_OK
    _require(args, "trials", "seed")
    report = estimate_separation(params, statistic, args.trials, args.seed)
    if (args.format or "json") == "csv":
        _emit(report.to_csv(), args.out)
    else:
        payload = report.to_json_dict()
        if motif is not None:
            payload["motif"] = motif.to_json_dict()
        _emit(jsonout.dumps(payload) + "\n", args.out)
    return EXIT_OK


def cmd_ldlr(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    _require(args, "degree")
    mode = args.mode or "exact"
    if mode == "exact":
        result = ldlr_norm_exact(params, args.degree)
    elif mode == "bruteforce":
        result = ldlr_norm_bruteforce(params, args.degree)
    else:
        if args.delta is None:
            raise InvalidArgumentError("delta required for conditional mode")
        spec = build_conditioning_spec(params, args.delta, args.degree)
        result = conditional_ldlr_exact_tiny(params, spec)
    if (args.format or "json") == "csv":
        _emit(result.to_csv(), args.out)
    else:
        _emit(result.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    _require(args, "r", "beta", "alpha_grid", "gamma_grid", "n_grid")
    alphas = _parse_list(args.alpha_grid, float, "--alpha-grid")
    gammas = _parse_list(args.gamma_grid, float, "--gamma-grid")
    ns = _parse_list(args.n_grid, int, "--n-grid")
    degree = args.degree if args.degree is not None else 10
    trials = args.trials or 0
    if trials < 0 or trials == 1:
        raise InvalidArgumentError("--trials must be 0 (off) or >= 2")
    if trials > 0:
        _require(args, "seed")
        if args.seed < 0:
            raise InvalidArgumentError(f"--seed {args.seed} must be >= 0")
    if degree < 0 or args.r >= 2:  # as the first valid grid point would
        check_class_budget(args.r, degree)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["alpha", "gamma", "n", "regime", "ldlr_minus_1", "separation", "sep_se"]
    )
    for alpha in alphas:
        for gamma in gammas:
            for n in ns:
                try:
                    regime = classify_regime(alpha, args.beta, gamma, args.r)
                    params = derive_params(n, args.r, alpha, args.beta, gamma)
                except InvalidArgumentError:
                    writer.writerow([alpha, gamma, n, "invalid", "", "", ""])
                    continue
                ldlr = ldlr_norm_exact(params, degree)
                sep = se = ""
                if trials > 0:
                    report = estimate_separation(params, "edge", trials, args.seed)
                    sep = repr(report.separation)
                    se = repr(report.separation_se)
                writer.writerow(
                    [alpha, gamma, n, regime, repr(ldlr.value_minus_one), sep, se]
                )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_find_balanced(args: argparse.Namespace) -> int:
    _require(args, "alpha", "beta", "gamma", "r")
    motif = find_balanced_motif(args.alpha, args.beta, args.gamma, args.r)
    _emit(motif.to_json() + "\n", args.out)
    return EXIT_OK


COMMANDS = (
    ("sample", "draw one hypergraph and write it out", cmd_sample, ("model",)),
    ("test", "threshold test or separation experiment", cmd_test,
     ("stat", "input", "motif_file", "trials", "format")),
    ("ldlr", "low-degree likelihood-ratio norm", cmd_ldlr, ("degree", "mode", "delta", "format")),
    ("phase-diagram", "regime/LDLR sweep over a grid", cmd_phase_diagram,
     ("alpha_grid", "gamma_grid", "n_grid", "degree", "trials")),
    ("find-balanced", "balanced motif for the given regime", cmd_find_balanced, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denselab",
        description="Planted dense subhypergraph detection laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, own_flags in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value file supplying defaults")
        for key in COMMON_FLAGS + own_flags:
            kind = FLAGS[key]
            check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=HELP.get(key), **check)
        sp.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first `main` call and reused by the later
    ones; parse_args returns a fresh Namespace each time."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
