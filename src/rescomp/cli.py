"""Command-line interface.

    rescomp solve <config.json> [--trace out.csv] [--unsafe-norm]
    rescomp props [--seed N] [--trials N]
    rescomp oracle <config.json>

``solve`` runs one configuration end to end (build, iterate, verify) and
prints the run report; ``props`` executes the randomized property suites;
``oracle`` prints the closed-form reference solution when one exists.

Exit codes: 0 success, 1 structural error, 2 tolerance failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import oracle_command, run
from .properties import run_properties


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rescomp",
        description="Resolvent-composition relaxation solver and property runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a configured instance")
    solve.add_argument("config", help="path to a JSON configuration")
    solve.add_argument("--trace", default=None, help="write the iteration trace to this CSV")
    solve.add_argument(
        "--unsafe-norm", action="store_true",
        help="bypass the ||L|| <= 1 gate and run the plain steps "
             "(exploration only; theory unsupported)",
    )

    props = sub.add_parser("props", help="run the property suites")
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--trials", type=int, default=1000)

    oracle = sub.add_parser("oracle", help="print the least-squares reference solution")
    oracle.add_argument("config", help="path to a JSON configuration")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return run(args.config, trace_path=args.trace, unsafe=args.unsafe_norm)
    if args.command == "props":
        return run_properties(seed=args.seed, trials=args.trials)
    if args.command == "oracle":
        return oracle_command(args.config)
    return 1  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
