"""`fpc verify`: the exact frameproof check of a code file."""

from __future__ import annotations

from . import env_budget


def cmd_verify(args) -> int:
    from .. import fileio
    from ..frameproof import is_frameproof

    code = fileio.read_code_file(args.path)
    verdict = is_frameproof(code, args.c, env_budget())
    if verdict.ok:
        print(f"frameproof: ok ({len(code)} words, c={args.c})")
        return 0
    w = verdict.witness
    print(f"frameproof: VIOLATION (c={args.c})")
    print(f"word      = {' '.join(map(str, w.word))}")
    for member in w.coalition:
        print(f"coalition = {' '.join(map(str, member))}")
    return 2
