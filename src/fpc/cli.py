"""Command-line surface: the parser and one `cmd_*` function per subcommand.

At module level this imports only argparse, os, sys and typing, so
`fpc --help` loads no other fpc module. Each command imports what it runs:
bounds loads `fpc.extremal`, oracle that and `fpc.oracle`, verify
`fpc.fileio` and `fpc.core`, and audit those two plus `fpc.extremal` and
`fpc.audit`, each with `fpc.record`; construct and sweep also load the numpy
pipeline (`fpc.construct`, `fpc.packing`), and diagnose that and
`fpc.diagnose`. A missing --seed is drawn from `os.urandom`, which loads
nothing more. The `cmd_*` handlers stay here: a module that
`python -m fpc.cli` reaches must not import `fpc.cli`, which would run this
file a second time as a separate module, whose `CliError` `main` would not
catch.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

# The `fpc --help` description; argparse reflows it, so only its words count.
_DESCRIPTION = """Command-line surface.

Subcommands: bounds, oracle, construct, verify, audit, sweep, diagnose.
Only the commands that build a packing (construct, sweep, diagnose) import
the numpy pipeline, so --help, bounds, oracle, verify and audit start
without numpy.
Exit codes: 0 success, 1 bad input or internal refusal, 2 a checked property
failed (verify found a witness, audit found a violation). All randomness
flows from --seed; a missing seed is generated and printed so any run can be
reproduced. FPC_BUDGET overrides the work budget of the exact checkers and
of audit.
"""


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for failed checks here.
    def error(self, message):
        raise CliError(message)

    # From 3.11 argparse drops an OSError from this write, so `--help` into a
    # closed pipe would exit 0; raised, it reaches run(), which exits 120.
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def _env_budget() -> int:
    from .core import DEFAULT_BUDGET

    raw = os.environ.get("FPC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"FPC_BUDGET must be an integer, got {raw!r}") from None


def _resolve_seed(seed: Optional[int]) -> tuple[int, bool]:
    if seed is not None:
        return seed, False
    return int.from_bytes(os.urandom(4), "big"), True


def _print_kv(pairs):
    for k, v in pairs:
        print(f"{k} = {v}")


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


def _config(args, **given):
    """The config the flags name; `given` fields override or fill in theirs."""
    from .construct import ConstructionConfig

    flags = set(ConstructionConfig.__slots__) - given.keys()
    return ConstructionConfig(**{name: getattr(args, name) for name in flags}, **given)


def cmd_bounds(args) -> int:
    import json

    from .extremal import bounds_report

    report = bounds_report(args.c, args.l, args.q)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        _print_kv(report.as_dict().items())
    return 0


def cmd_oracle(args) -> int:
    import json
    import math

    from .extremal import emc_value
    from .oracle import EXHAUSTIVE_CAP, ExhaustiveCapError, m_exact

    cap = EXHAUSTIVE_CAP if args.cap is None else args.cap
    results = {"formula": emc_value(args.l, args.t, args.lam)}
    try:
        results["exhaustive"] = m_exact(args.l, args.t, args.lam, cap=cap)
    except ExhaustiveCapError:
        pass
    # The line text output ends with; --json carries it as "verdict".
    if "exhaustive" not in results:
        n_edges = math.comb(args.l, args.t)
        verdict = f"exhaustive: not run, binom({args.l},{args.t}) = {n_edges} exceeds the cap {cap}"
    elif results["formula"].value == results["exhaustive"].value:
        verdict = "agreement"
    else:
        verdict = "disagreement"  # text output prints it to stderr only
    if args.json:
        payload = {k: {"value": v.value, "status": v.status} for k, v in results.items()}
        print(json.dumps({**payload, "verdict": verdict}, sort_keys=True))
    else:
        for k, v in results.items():
            print(f"{k}: m({args.l},{args.t},{args.lam}) = {v.value} [{v.status}]")
        if verdict != "disagreement":
            print(verdict)
    if verdict == "disagreement":
        print(
            f"DISAGREEMENT: formula {results['formula'].value} vs "
            f"exhaustive {results['exhaustive'].value}",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_out_dir(path: str) -> None:
    """Refuse, before any work, an output path that is empty, a directory,
    or in a missing directory."""
    if not path:
        raise CliError("--out is empty")
    if os.path.isdir(path):
        raise CliError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliError(f"--out directory {parent!r} does not exist")


def cmd_construct(args) -> int:
    import json

    from . import fileio
    from .construct import construct

    _check_out_dir(args.out)
    seed, generated = _resolve_seed(args.seed)
    cfg = _config(args, seed=seed)
    code, report = construct(cfg, budget=_env_budget())
    comments = [
        f"c={cfg.c} l={cfg.l} q={cfg.q} eta={cfg.eta} seed={cfg.seed}",
        f"mode={cfg.mode} packing={cfg.packing} matching={cfg.matching}",
    ]
    fileio.write_code_file(args.out, code, comments)
    payload = report.as_dict()
    payload["out"] = args.out
    if generated:
        payload["seed_generated"] = True
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_kv(payload.items())
    return 0


def cmd_verify(args) -> int:
    from . import fileio
    from .core import is_frameproof

    code = fileio.read_code_file(args.path)
    verdict = is_frameproof(code, args.c, _env_budget())
    if verdict.ok:
        print(f"frameproof: ok ({len(code)} words, c={args.c})")
        return 0
    w = verdict.witness
    print(f"frameproof: VIOLATION (c={args.c})")
    print(f"word      = {' '.join(map(str, w.word))}")
    for member in w.coalition:
        print(f"coalition = {' '.join(map(str, member))}")
    return 2


def cmd_audit(args) -> int:
    from . import fileio
    from .audit import own_subsequence_audit

    code = fileio.read_code_file(args.path)
    result = own_subsequence_audit(code, args.c, _env_budget())
    print(
        f"t = {result.t}  lambda = {result.lam}  m = {result.m.value} "
        f"[{result.m.status}]  required_own_t = {result.required}"
    )
    print(f"{'word':<{3 * code.l}} own_t own_t-1 floor_applies ok")
    for row in result.rows:
        word = " ".join(map(str, row.word))
        print(
            f"{word:<{3 * code.l}} {row.own_t_count:>5} {row.own_tminus1_count:>7} "
            f"{str(row.bound_applies).lower():>13} {str(row.ok).lower()}"
        )
    if result.ok:
        print("own-subsequence floor: ok")
        return 0
    print(f"own-subsequence floor: {len(result.violations)} violation(s)")
    return 2


def cmd_sweep(args) -> int:
    import json
    import time

    from .construct import construct

    _check_out_dir(args.out)
    qs = _parse_list(args.q_list, "--q-list", int)
    etas = _parse_list(args.eta_list, "--eta-list", float)
    if args.seeds is None:
        seed, _ = _resolve_seed(None)
        print(f"seed = {seed} (generated)")
        seeds = [seed]
    else:
        seeds = _parse_list(args.seeds, "--seeds", int)
    budget = _env_budget()
    # Every grid point's config first, so a bad point is refused before any build.
    configs = [_config(args, q=q, eta=eta, seed=seed) for q in qs for eta in etas for seed in seeds]
    rows = []
    for cfg in configs:
        started = time.perf_counter()
        _code, report = construct(cfg, budget=budget)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        rows.append(json.dumps({**report.as_dict(), "elapsed_ms": elapsed_ms}, sort_keys=True))
    # Written only once every point is built, so a failed point leaves no file.
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(row + "\n" for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    import json

    from .construct import build_extremal_complement, build_packing
    from .diagnose import check_image_cap, degree_diagnostics
    from .packing import SparsifierConfig

    check_image_cap(args.l)  # before the packing, which can be huge at large l
    seed, generated = _resolve_seed(args.seed)
    cfg = _config(args, seed=seed, verify=False)
    pack = build_packing(cfg)
    _chosen, complement = build_extremal_complement(cfg.c, cfg.l)
    diag = degree_diagnostics(pack, SparsifierConfig(eta=cfg.eta, seed=seed), complement)
    payload = {
        "c": cfg.c,
        "l": cfg.l,
        "q": cfg.q,
        "t": pack.t,
        "eta": cfg.eta,
        "seed": seed,
        "packing": cfg.packing,
        "packing_size": len(pack),
        **diag._asdict(),
    }
    if generated:
        payload["seed_generated"] = True
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_kv(payload.items())
    return 0


def _parse_list(raw: str, flag: str, kind: type) -> list:
    """The comma-separated values of `kind` (int or float) a flag lists."""
    try:
        values = [kind(part) for part in raw.split(",") if part != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise CliError(f"{flag} must be comma-separated {noun}, got {raw!r}") from None
    if not values:
        raise CliError(f"{flag} lists no values, got {raw!r}")
    return values


_COMMANDS = {
    "bounds": cmd_bounds,
    "oracle": cmd_oracle,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "audit": cmd_audit,
    "sweep": cmd_sweep,
    "diagnose": cmd_diagnose,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as exc:
        from .core import BudgetExceededError, ConstructionError

        refusals = (CliError, ValueError, OSError, BudgetExceededError, ConstructionError)
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
