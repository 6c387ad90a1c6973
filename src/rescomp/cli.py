"""Command-line interface.

    rescomp solve <config.json> [--trace out.csv] [--unsafe-norm]
    rescomp props [--seed N] [--trials N]
    rescomp oracle <config.json>

``solve`` runs one configuration end to end (build, iterate, verify) and
prints the run report; ``props`` executes the randomized property suites;
``oracle`` prints the closed-form reference solution when one exists.

Exit codes: 0 success, 1 structural error (a usage error or bad input
included), 2 tolerance failure.  ``--help`` exits 0.

A ``rescomp`` process runs :func:`entry`, which freezes the garbage
collector once the command returns, so interpreter shutdown does not sweep
the objects the run left behind; atexit handlers, stream flushes, module
teardown and the exit code are those of a normal exit.  ``main(argv)``
does not freeze, so tests and library callers can run it in-process.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .bench import oracle_command, run
from .errors import ValidationError
from .properties import run_properties


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: exit 2 means a tolerance failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
        try:
            return run_properties(seed=args.seed, trials=args.trials)
        except ValidationError as exc:
            print(f"error: {exc}")
            return 1
    if args.command == "oracle":
        return oracle_command(args.config)
    return 1  # pragma: no cover


def entry():
    """The process entry point: runs :func:`main` and returns its exit code."""
    code = main()
    # Interpreter shutdown runs full collections over every tracked object
    # and skips frozen ones, a large share of a short run.  Leaving cyclic
    # garbage uncollected at exit is safe because every file the CLI writes
    # (write_atomically, Trace.to_csv) is closed inside a `with` before main
    # returns.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
