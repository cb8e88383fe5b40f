"""`fpc bounds`: the size bounds and the rate limit at (c, l, q)."""

from __future__ import annotations

from . import print_kv


def cmd_bounds(args) -> int:
    import json

    from ..extremal import bounds_report

    report = bounds_report(args.c, args.l, args.q)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print_kv(report.as_dict().items())
    return 0
