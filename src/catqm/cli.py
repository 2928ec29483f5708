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
from dataclasses import asdict

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="catqm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", required=True, help="config JSON path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--budget-scale", type=float, default=None,
                       help="multiply every budget")
        p.add_argument("--out", default=None, help="report output path")
    rp = sub.add_parser("replay", help="re-verify every witness in a report")
    rp.add_argument("report", help="report JSON path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
            cfg.raw = {**cfg.raw, "budgets": asdict(cfg.budgets)}
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
