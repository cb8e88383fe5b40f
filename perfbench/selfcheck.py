#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at (c, l, q) = (2, 4, 13).

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

It goes through every harness path at tiny parameters: the set-up runs,
the measured construct/verify loop, the traced replica, and the output gate.
It also feeds the gate deliberately failing ops and asserts that each one is
counted as failed and not timed as a success. Exits 0 when every check holds
(about ten seconds).
"""

from __future__ import annotations

import json
import sys
import time

import replica
import run as harness

TINY = harness.Workload("selfcheck-c2-q13", 2, 4, 13, True)
NOT_PRIME_POWER = harness.Workload("selfcheck-c2-q12", 2, 4, 12, False)  # rs packing refuses q=12
SEED = 7
SEED7_CODE_SIZE = 108


def framed_copy(good, bad):
    """Write `good` plus one word mixed from two codewords: a framed word, so
    `fpc verify --c 2` must exit 2."""
    from fpc.core import Code
    from fpc.fileio import read_code_file, write_code_file

    code = read_code_file(good)
    members = set(code.words)
    for u in code.words:
        for v in code.words:
            mixed = u[:2] + v[2:]
            if mixed not in members:
                write_code_file(bad, Code(code.q, code.l, [*code.words, mixed]))
                return len(code) + 1
    raise AssertionError("no framed word found")


def main() -> int:
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    if not (harness.SRC / "fpc" / "cli.py").is_file():
        print(f"error: no fpc sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    run_start = time.perf_counter()
    deadline = run_start + harness.HARD_LIMIT_S

    record = harness.measure(TINY, SEED, 2.0, run_start)
    check(record["failures"] == [], f"measured loop has no failed ops: {record['failures']}")
    check(record["payload"]["code_size"] == SEED7_CODE_SIZE, "seed-7 code_size is 108")
    check(len(record["samples_s"]["setup"]) == harness.SETUP_REPS, "set-up runs timed")
    metrics = harness.end_to_end(record)
    check(
        list(metrics) == [m["name"] for m in spec["end_to_end"]],
        "end-to-end metrics match BENCHMARK.json, in order",
    )
    check(all(m["value"] > 0 for m in metrics.values()), "every end-to-end metric is nonzero")

    traced = replica.run(TINY, SEED, run_start)
    check(traced["failures"] == [], f"traced replica passes its gate: {traced['failures']}")
    check(traced["replica_sha256"] == record["sha256"], "replica file matches the CLI's bytes")
    check(
        list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]],
        "per-layer metrics match BENCHMARK.json, in order",
    )
    check(
        {s["run_id"] for s in traced["spans"]} == {traced["spans"][0]["run_id"]},
        "all spans share one run id",
    )

    good = harness.OUT / f"{TINY.name}.fpc"
    bad = harness.OUT / "selfcheck-framed.fpc"
    n_bad = framed_copy(good, bad)
    tally = harness.Tally()
    ok = harness.verify_op(tally, bad, TINY.c, n_bad, deadline)
    check(
        not ok
        and tally.attempted == 1
        and tally.failures == ["verify: verify exit 2"]
        and "verify" not in tally.samples,
        "verify of a framed code: exit 2 counted as failed, not timed",
    )

    tally = harness.Tally()
    sha, _ = harness.construct_op(tally, TINY, SEED, good, "0" * 64, deadline)
    check(
        sha is None
        and tally.failures == ["construct: code file bytes differ from the first iteration"]
        and "construct" not in tally.samples,
        "construct whose bytes differ from the first iteration counted as failed",
    )

    broken = harness.measure(NOT_PRIME_POWER, SEED, 1.0, run_start)
    construct_ops = broken["attempted"] - harness.SETUP_REPS
    check(
        construct_ops >= 1
        and broken["failures"] == ["construct: construct exit 1"] * construct_ops
        and "construct" not in broken["samples_s"]
        and broken["session_s"] == []
        and broken["sha256"] is None,
        "measured loop counts a nonzero construct exit as failed, never timed",
    )

    payload = record["payload"]
    for field, value, reason in (
        ("verified", None, "verified=None"),
        ("verified", False, "verified=False"),
        ("code_size", payload["blackburn"] + 1, "code_size"),
        ("rate", "1/1", "rate"),
    ):
        doctored = json.dumps({**payload, field: value})
        problem, _ = harness.construct_problem(TINY, 0, doctored, record["sha256"], None)
        check(problem is not None and problem.startswith(reason), f"gate rejects {field}={value!r}")
    problem, _ = harness.construct_problem(TINY, 0, "no json here", record["sha256"], None)
    check(problem == "construct printed no JSON", "gate rejects output without JSON")

    print(f"selfcheck: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
