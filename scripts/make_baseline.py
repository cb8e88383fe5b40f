#!/usr/bin/env python3
"""Regenerate the committed regression baselines.

Writes baselines/rate_baseline.json: the reference rates of the fixed-seed
construction at (c=2, l=4) over the q grid, and the reference size of the
seeded greedy packing. The acceptance suite compares fresh runs against
these numbers (rates within 5%, packing size exact), so regenerate only when
an intentional change shifts them, and commit the result.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from fpc.construct import ConstructionConfig, construct
from fpc.packing import greedy_packing

BASELINE_PATH = Path(__file__).resolve().parent.parent / "baselines" / "rate_baseline.json"

RATE_TREND_QS = [13, 17, 23]
POLICY = {
    "c": 2,
    "l": 4,
    "eta": 0.05,
    "seed": 7,
    "packing": "rs",
}


def main() -> int:
    rates = {}
    for q in RATE_TREND_QS:
        cfg = ConstructionConfig(q=q, verify=False, **POLICY)
        _code, report = construct(cfg)
        rates[str(q)] = {
            "code_size": report.code_size,
            "rate": str(Fraction(report.rate)),
            "rate_float": float(report.rate),
        }
        print(f"q={q}: code_size={report.code_size} rate={float(report.rate):.6f}")

    greedy = greedy_packing(4, 2, 5, seed=7)
    print(f"greedy_packing(4,2,5,seed=7): size={len(greedy)}")

    payload = {
        "policy": POLICY,
        "rate_trend": rates,
        "greedy_packing": {"l": 4, "t": 2, "q": 5, "seed": 7, "size": len(greedy)},
    }
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
