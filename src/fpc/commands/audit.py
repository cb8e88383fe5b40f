"""`fpc audit`: the own-subsequence profile of a code file against the
conditional floor."""

from __future__ import annotations

from . import env_budget


def cmd_audit(args) -> int:
    from .. import fileio
    from ..audit import own_subsequence_audit

    code = fileio.read_code_file(args.path)
    result = own_subsequence_audit(code, args.c, env_budget())
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
