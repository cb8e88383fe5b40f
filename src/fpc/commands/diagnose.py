"""`fpc diagnose`: degree diagnostics of the packing at a point."""

from __future__ import annotations

from . import config, print_kv, resolve_seed


def cmd_diagnose(args) -> int:
    import json

    from ..construct import build_extremal_complement, build_packing
    from ..diagnose import check_image_cap, degree_diagnostics
    from ..packing import SparsifierConfig

    check_image_cap(args.l)  # before the packing, which can be huge at large l
    seed, generated = resolve_seed(args.seed)
    cfg = config(args, seed=seed, verify=False)
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
        print_kv(payload.items())
    return 0
