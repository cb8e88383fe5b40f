"""`fpc oracle`: the extremal matching value by formula and, within the cap,
by exhaustive search."""

from __future__ import annotations

import sys


def cmd_oracle(args) -> int:
    import json
    import math

    from ..extremal import emc_value
    from ..oracle import EXHAUSTIVE_CAP, ExhaustiveCapError, m_exact

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
