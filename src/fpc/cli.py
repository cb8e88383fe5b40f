"""Command-line surface: the parser, `main`, `run`, and the dispatch.

At module level this imports only argparse, importlib, os, sys and typing,
so `fpc --help` loads no other fpc module. `main` imports only the chosen
command's module, `fpc.commands.<command>`, which holds `cmd_<command>` and
imports what that command runs; only diagnose, and construct and sweep at
a point that the plain route does not take, load numpy. No handler module
imports this one: under `python -m fpc.cli` that would run this file a
second time as a separate module. A refusal is a ValueError, which `main`
reports with exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Optional, Sequence

# The `fpc --help` description; argparse reflows it, so only its words count.
_DESCRIPTION = """Command-line surface.

Subcommands: bounds, oracle, construct, verify, audit, sweep, diagnose.
--help, bounds, oracle, verify and audit start without numpy. construct and
sweep build small Reed-Solomon points in plain Python and import numpy only
for a larger point or a greedy packing, which they tell before any work;
diagnose always imports it.
Exit codes: 0 success, 1 bad input or internal refusal, 2 a checked property
failed (verify found a witness, audit found a violation). All randomness
flows from --seed; a missing seed is generated and printed so any run can be
reproduced. FPC_BUDGET overrides the work budget of the exact checkers and
of audit.
"""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for failed checks here.
    def error(self, message):
        raise ValueError(message)

    # From 3.11 argparse drops an OSError from this write, so `--help` into a
    # closed pipe would exit 0; raised, it reaches run(), which exits 120.
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fpc", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="size bounds and the rate limit for (c, l, q)")
    p.add_argument("c", type=int)
    p.add_argument("l", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="extremal matching value m(l, t, lambda)")
    p.add_argument("l", type=int)
    p.add_argument("t", type=int)
    p.add_argument("lam", type=int, metavar="lambda")
    p.add_argument("--cap", type=int, default=None)  # None: cmd_oracle uses EXHAUSTIVE_CAP
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a frameproof code and write it out")
    _add_point_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="code file destination")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="exact frameproof check of a code file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("audit", help="own-subsequence profile and conditional floor")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("sweep", help="grid of constructions, one JSON report per line")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q-list", required=True, help="comma-separated q values")
    p.add_argument("--eta-list", default="0.05", help="comma-separated eta values")
    p.add_argument("--seeds", default=None, help="comma-separated seeds")
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="JSON Lines destination")

    p = sub.add_parser("diagnose", help="degree diagnostics of a packing")
    _add_point_flags(p)
    p.add_argument("--json", action="store_true")

    return parser


def _add_point_flags(p: argparse.ArgumentParser):
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)


def _add_pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The dispatch: `fpc.commands.<command>` holds `cmd_<command>`.
        module = importlib.import_module(f".commands.{args.command}", __package__)
        return getattr(module, f"cmd_{args.command}")(args)
    except Exception as exc:
        from .core import BudgetExceededError, ConstructionError

        refusals = (ValueError, OSError, BudgetExceededError, ConstructionError)
        # A reader that closed the output pipe is no bad input; run() ends it.
        if not isinstance(exc, refusals) or isinstance(exc, BrokenPipeError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The console entry of `fpc` and `python -m fpc.cli`: `main()`, whose
    int SystemExit (argparse's `--help`) counts as its return, then a flush
    of stdout and stderr and `os._exit`, skipping interpreter teardown. A
    BrokenPipeError from `main`, a write to an output whose reader is gone,
    gives code 120, the status Python exits with when its final flush of
    stdout fails. Any other exception `main` does not catch, or a SystemExit
    whose code is not an int, propagates; after a flush that raises, the
    code is returned for the caller's sys.exit. Library callers call
    `main`, which returns."""
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    except BrokenPipeError:
        code = 120
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # teardown's own flush reports it, as without run()
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
