#!/usr/bin/env python3
"""Time the seed-7 construction grid, one cold child per command.

Run from any directory with no arguments:

    python3 scripts/bench_grid.py > rows.json

For each (c, l, q) point it runs `fpc construct --seed 7 --json` with verify
on, then `fpc verify` on the file it wrote. Each is one cold interpreter on
this checkout's src/, spawned, reaped and timed by `perfbench/run.py`'s
`run_fpc`, so both harnesses measure one configuration: the same child
environment, wall time from spawn to exit and peak RSS from os.wait4. Each
row holds construct's own `timings_ms`, both wall times and peaks,
`code_size` and the Blackburn bound, `rate`, rate over `rate_limit`, and the
code file's sha256. Standard library only; prints one JSON object with the
host and the rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import run_fpc  # noqa: E402

SEED = 7
GRID = [(2, 4, q) for q in (13, 31, 47, 101, 127)] + [(2, 5, 11), (3, 5, 11), (3, 6, 16)]
CHILD_LIMIT_S = 600.0  # a child still running this long is killed


def _child(args: list[str]) -> tuple[float, float, str]:
    """Run `python -m fpc.cli *args` cold; its wall seconds, peak RSS in MB
    and stdout. Raises if it exits nonzero."""
    child = run_fpc(args, time.perf_counter() + CHILD_LIMIT_S)
    if child.rc != 0:
        raise RuntimeError(f"{' '.join(args)} exited {child.rc}")
    return child.wall_s, child.maxrss_kb / 1024, child.stdout


def _row(c: int, l: int, q: int, tmp: Path) -> dict:
    code = tmp / "code.fpc"
    point = ["--c", str(c), "--l", str(l), "--q", str(q)]
    construct_s, construct_mb, stdout = _child(
        ["construct", *point, "--seed", str(SEED), "--out", str(code), "--json"]
    )
    report = json.loads(stdout)
    if report["verified"] is not True:
        raise RuntimeError(f"({c},{l},{q}): construct reported verified {report['verified']}")
    verify_s, verify_mb, _ = _child(["verify", "--in", str(code), "--c", str(c)])
    rate, limit = Fraction(report["rate"]), Fraction(report["rate_limit"])
    return {
        "c": c,
        "l": l,
        "q": q,
        "code_size": report["code_size"],
        "blackburn": report["blackburn"],
        "rate": report["rate"],
        "rate_to_limit": round(float(rate / limit), 4),
        "timings_ms": report["timings_ms"],
        "construct_s": round(construct_s, 3),
        "construct_peak_rss_mb": round(construct_mb, 1),
        "verify_s": round(verify_s, 3),
        "verify_peak_rss_mb": round(verify_mb, 1),
        "sha256": hashlib.sha256(code.read_bytes()).hexdigest(),
    }


def main() -> int:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for c, l, q in GRID:
            rows.append(_row(c, l, q, Path(tmp)))
            print(f"({c},{l},{q}) done", file=sys.stderr)
    host = {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    print(json.dumps({"seed": SEED, "host": host, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
