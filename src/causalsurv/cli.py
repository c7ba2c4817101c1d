"""Command-line interface.

Subcommands: ``analyze`` (full pipeline), ``backdoor`` (list minimal
adjustment sets for a graph), ``simulate`` (write a synthetic cohort CSV).

Exit codes: 0 success, 2 usage error, 3 data error, 4 not identifiable,
5 numerical failure.  Failures print a machine-readable error JSON object
to stdout.  Once stdout is closed, nothing more is written to it, and the
exit code is the one the command reached.

In process, ``main(argv)`` returns the exit code for every outcome except
argparse's own exits, which raise ``SystemExit``: 2 for a usage error, 0
for ``--help``.  The parser is built on the first call and reused after it.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .analysis import FITS, AnalysisOptions, not_identifiable, run_analysis, write_outputs
from .cohort import save_cohort
from .errors import (
    CausalSurvError,
    EstimationError,
    InvalidAdjustmentSet,
    NotIdentifiable,
)
from .graph import load_graph, minimal_backdoor_sets
from .simulate import SimConfig, generate_cohort

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOT_IDENTIFIABLE = 4
EXIT_NUMERICAL = 5


def _alpha(text: str) -> float:
    """argparse type for --alpha: a number strictly between 0 and 1 with 1 - alpha/2 < 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"{text!r} is not strictly between 0 and 1")
    if 1.0 - value / 2.0 == 1.0:  # no normal quantile to take
        raise argparse.ArgumentTypeError(f"{text!r} is too small: 1 - alpha/2 rounds to 1")
    return value


def _names(text: str) -> tuple[str, ...]:
    """argparse type for --covariates: comma-separated names, blanks dropped."""
    return tuple(c.strip() for c in text.split(",") if c.strip())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``causalsurv`` parser, built on the first call and shared after it.

    Parsing keeps no state on the parser: each ``parse_args`` returns a new
    namespace.
    """
    parser = argparse.ArgumentParser(
        prog="causalsurv",
        description=(
            "Confounding-adjusted survival curves and hazard ratios from "
            "observational cohorts via backdoor adjustment on a causal graph."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full adjustment pipeline")
    analyze.add_argument("--data", required=True, help="cohort CSV file")
    analyze.add_argument("--graph", required=True, help="causal graph JSON file")
    # each option's dest is its AnalysisOptions field
    analyze.add_argument(
        "--treatment", dest="treatment_col", required=True,
        help="treatment column (and graph node) name",
    )
    analyze.add_argument(
        "--time", dest="time_col", required=True,
        help="survival-time column (and outcome node) name",
    )
    analyze.add_argument(
        "--event", dest="event_col", required=True, help="event-status column name"
    )
    analyze.add_argument(
        "--covariates", dest="covariate_cols", type=_names, default=(),
        help="comma-separated covariate column names",
    )
    analyze.add_argument("--id", dest="id_col", default=None, help="id column name")
    analyze.add_argument(
        "--adjustment-set",
        dest="adjustment",
        default="auto",
        help="'auto' (first minimal backdoor set) or explicit comma-separated names",
    )
    analyze.add_argument("--ties", choices=("efron", "breslow"), default="efron")
    analyze.add_argument(
        "--alpha", type=_alpha, default=0.05,
        help="intervals cover 1 - alpha; strictly between 0 and 1 (default 0.05)",
    )
    analyze.add_argument(
        "--t-max", type=int, default=None, help="truncate follow-up at this day"
    )
    analyze.add_argument("--strict-censoring", action="store_true")
    analyze.add_argument("--svg", action="store_true", help="also write curves.svg")
    analyze.add_argument("--out", required=True, help="output directory")
    analyze.set_defaults(func=_cmd_analyze)

    backdoor = sub.add_parser(
        "backdoor", help="list minimal backdoor adjustment sets"
    )
    backdoor.add_argument("--graph", required=True)
    backdoor.add_argument("--treatment", required=True, help="treatment node name")
    backdoor.add_argument("--outcome", required=True, help="outcome node name")
    backdoor.set_defaults(func=_cmd_backdoor)

    simulate = sub.add_parser(
        "simulate", help="write a synthetic confounded cohort CSV"
    )
    simulate.add_argument("--n", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--bias",
        type=float,
        default=0.75,
        help="P(treated | z=0); P(treated | z=1) is its complement",
    )
    simulate.add_argument("--out", default=None, help="output CSV (default stdout)")
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def _cmd_analyze(args) -> int:
    options = AnalysisOptions(*(getattr(args, f) for f in AnalysisOptions._fields))
    report, artifacts = run_analysis(args.data, args.graph, options)
    paths = write_outputs(report, artifacts, args.out, svg=args.svg)
    for name in FITS:
        entry = getattr(report, name)
        if entry.error is not None:
            print(f"{name}: failed ({entry.error})")
        else:
            lo, hi = entry.ci
            print(f"{name}: HR {entry.hr:.4f} (CI {lo:.4f}-{hi:.4f})")
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK


def _cmd_backdoor(args) -> int:
    dag = load_graph(args.graph)
    sets = minimal_backdoor_sets(dag, args.treatment, args.outcome)
    if not sets:
        raise not_identifiable(dag, args.treatment, args.outcome)
    for s in sets:
        print("{" + ", ".join(s.sorted_members()) + "}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = SimConfig(
        n=args.n,
        seed=args.seed,
        p_treat_given_z={0: args.bias, 1: 1.0 - args.bias},
    )
    cohort = generate_cohort(config)
    if args.out:
        save_cohort(cohort, args.out)
    else:
        save_cohort(cohort, sys.stdout)
    arms = cohort.arm_sizes()
    levels = cohort.covariate_levels["z"]
    # subjects per (z level, arm); every level has a subject
    table = np.bincount(cohort.codes["z"] * 2 + cohort.treatment, minlength=2 * len(levels))
    summary = {
        level: treated / (control + treated)
        for level, (control, treated) in zip(levels, table.reshape(-1, 2).tolist())
    }
    bias = ", ".join(f"P(x=1|z={lvl})={p:.3f}" for lvl, p in sorted(summary.items()))
    print(
        f"n={cohort.n} arms: control={arms[0]} treated={arms[1]} "
        f"t_max={cohort.t_max} {bias}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    return EXIT_OK


def _error_payload(exc: Exception, code: int) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit": code}},
        allow_nan=False,
    )


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (NotIdentifiable, InvalidAdjustmentSet)):
        return EXIT_NOT_IDENTIFIABLE
    return EXIT_NUMERICAL if isinstance(exc, EstimationError) else EXIT_DATA


def main(argv=None) -> int:
    code = EXIT_OK
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (CausalSurvError, OSError) as exc:
            code = _exit_code(exc)
            print(_error_payload(exc, code))
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
    except BrokenPipeError:
        # nobody reads stdout any more: send what is left to the null device,
        # and return the code the command reached
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
