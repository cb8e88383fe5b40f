"""`fpc construct`: build a code, write its file and print the report."""

from __future__ import annotations

from . import check_out_dir, config, env_budget, print_kv, resolve_seed


def cmd_construct(args) -> int:
    import json

    from .. import fileio
    from ..construct import construct

    check_out_dir(args.out)
    seed, generated = resolve_seed(args.seed)
    cfg = config(args, seed=seed)
    code, report = construct(cfg, budget=env_budget())
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
        print_kv(payload.items())
    return 0
