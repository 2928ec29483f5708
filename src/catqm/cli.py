"""Command line entry point.

    catqm SUBCOMMAND --config PATH [--seed N] [--budget-scale X] [--out PATH]
    catqm replay REPORT_PATH

Exit codes: 0 all checked properties held, 1 a property was violated (the
report carries the witness), 2 configuration error or any other catqm error
(input, budget, numeric); the report then has status ``error``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CatqmError
from .runner import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    SUBCOMMANDS,
    load_config,
    replay,
    run,
)


_CELL_OPTIONS = ("config", "seed", "budget_scale", "out")


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the subcommand, an optional report path (replay's
    only argument) and the cell options; ``parse_args`` checks which of
    them the subcommand takes."""
    parser = argparse.ArgumentParser(prog="catqm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=[*SUBCOMMANDS, "replay"],
                        help="a suite to run, or replay to re-verify every "
                             "witness in a report")
    parser.add_argument("report", nargs="?", help="report JSON path (replay)")
    parser.add_argument("--config", help="config JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--budget-scale", type=float, default=None,
                        help="multiply every budget")
    parser.add_argument("--out", default=None, help="report output path")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line; a usage error exits 2, as argparse does."""
    parser = build_parser()
    args = parser.parse_args(argv)
    given = [f"--{name.replace('_', '-')}" for name in _CELL_OPTIONS
             if getattr(args, name) is not None]
    if args.subcommand == "replay":
        if args.report is None:
            parser.error("replay needs a report path")
        if given:
            parser.error(f"replay takes no {', '.join(given)}")
    elif args.report is not None:
        parser.error(f"{args.subcommand} takes no positional argument "
                     f"{args.report!r}")
    elif args.config is None:
        parser.error(f"{args.subcommand} needs --config")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.subcommand == "replay":
        try:
            ok = replay(args.report)
        except (CatqmError, OSError, json.JSONDecodeError) as exc:
            print(f"replay error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print("replay: ok" if ok else "replay: MISMATCH")
        return EXIT_OK if ok else EXIT_VIOLATION
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw = {**cfg.raw, "seed": args.seed}
        if args.budget_scale is not None:
            cfg.budgets = cfg.budgets.scaled(args.budget_scale)
            cfg.raw = {**cfg.raw, "budgets": cfg.budgets._asdict()}
    except (CatqmError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report, code = run(args.subcommand, cfg)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
