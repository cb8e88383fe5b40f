"""`fpc sweep`: a grid of constructions, one `construct --json` object per
line."""

from __future__ import annotations

from . import check_out_dir, config, env_budget, resolve_seed


def cmd_sweep(args) -> int:
    import json
    import time

    from ..construct import construct

    check_out_dir(args.out)
    qs = _parse_list(args.q_list, "--q-list", int)
    etas = _parse_list(args.eta_list, "--eta-list", float)
    if args.seeds is None:
        seed, _ = resolve_seed(None)
        print(f"seed = {seed} (generated)")
        seeds = [seed]
    else:
        seeds = _parse_list(args.seeds, "--seeds", int)
    budget = env_budget()
    # Every grid point's config first, so a bad point is refused before any build.
    configs = [config(args, q=q, eta=eta, seed=seed) for q in qs for eta in etas for seed in seeds]
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


def _parse_list(raw: str, flag: str, kind: type) -> list:
    """The comma-separated values of `kind` (int or float) a flag lists."""
    try:
        values = [kind(part) for part in raw.split(",") if part != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {noun}, got {raw!r}") from None
    if not values:
        raise ValueError(f"{flag} lists no values, got {raw!r}")
    return values
