#!/usr/bin/env python3
"""Closed-loop benchmark of the fpc command line, one client.

Run from the root of a source checkout (the directory holding src/fpc):

    python3 perfbench/run.py --workload build-c2-q47 --seed 7 --seconds 36 --trace 0

--trace 0 starts one `fpc` child at a time, cold start to exit, times it with
os.wait4 and checks every output (see NOTES.md for the gate). --trace 1 runs
the traced in-process replica of `fpc construct` instead (perfbench/replica.py)
and reports per-layer metrics. Human-readable lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. A per-run record with every sample and the code-file sha256 is
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5  # cold `fpc --help` runs per run; setup_s is their median
CAL_WORDS = 20_000  # calibration task size, about 0.5 s
CAL_REF_S = 0.5  # calibration time that defines the reference speed
HARD_LIMIT_S = 170.0  # children still running this long after start are killed


@dataclass(frozen=True)
class Workload:
    name: str
    c: int
    l: int
    q: int
    verify: bool  # construct with verify on, then `fpc verify` its file


# Why each workload exists: see NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Largest q that fits a few seconds: pipeline layers only, checkers idle.
        Workload("build-c2-q47", 2, 4, 47, False),
        # Users' default with verify on: all three verify layers at scale, s=2.
        Workload("verified-c2-q31", 2, 4, 31, True),
        # s=3 numpy frameproof path, lambda=2 acceptance, prime-power GF table.
        Workload("verified-c3-q16", 3, 6, 16, True),
    )
}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    rc: int
    wall_s: float
    maxrss_kb: int
    stdout: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FPC_BUDGET")}
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_fpc(args: list[str], deadline: float) -> Child:
    """One cold `python -m fpc.cli` process, spawned and reaped with wait4.

    Output goes to a file rather than a pipe so the parent never has to read
    while the child runs; a child still alive at `deadline` is killed and
    reported with rc -9.
    """
    OUT.mkdir(exist_ok=True)
    out_path = OUT / "child.stdout"
    argv = [sys.executable, "-m", "fpc.cli", *map(str, args)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    killer = threading.Timer(max(0.0, deadline - start), _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    return Child(
        rc=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def _kill(pid: int):
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------


def construct_args(w: Workload, seed: int, path: Path) -> list:
    args = ["construct", "--c", w.c, "--l", w.l, "--q", w.q, "--seed", seed, "--json", "--out", path]
    return args if w.verify else [*args, "--no-verify"]


def construct_problem(
    w: Workload, rc: int, stdout: str, sha: Optional[str], first_sha: Optional[str]
) -> tuple[Optional[str], Optional[dict]]:
    """(reason the op failed or None, parsed --json payload or None)."""
    if rc != 0:
        return f"construct exit {rc}", None
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "construct printed no JSON", None
    if w.verify and payload.get("verified") is not True:
        return f"verified={payload.get('verified')!r}", payload
    if payload["code_size"] > payload["blackburn"]:
        return f"code_size {payload['code_size']} > blackburn {payload['blackburn']}", payload
    if Fraction(payload["rate"]) != Fraction(payload["code_size"], w.q ** payload["t"]):
        return f"rate {payload['rate']} != code_size / q^t", payload
    if sha is None:
        return "no code file written", payload
    if first_sha is not None and sha != first_sha:
        return "code file bytes differ from the first iteration", payload
    return None, payload


def verify_problem(rc: int, stdout: str, n_words: int) -> Optional[str]:
    if rc != 0:
        return f"verify exit {rc}"
    if not stdout.startswith(f"frameproof: ok ({n_words} words"):
        return f"verify printed {stdout[:60]!r}"
    return None


def sha256_of(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def calibrate() -> float:
    """Wall time of a fixed pure-Python task shaped like fpc's sparsifier
    (labeled subsets of words, keyed blake2b, frozensets). It keeps nothing
    alive: a child spawned from this process reports at least this
    process's peak RSS as its own ru_maxrss."""
    key = bytes(8)
    start = time.perf_counter()
    for i in range(CAL_WORDS):
        word = tuple((i * 7 + p * 13) % 47 + 1 for p in range(4))
        subsets = (tuple((p + 1, word[p]) for p in combo) for combo in _PAIRS)
        frozenset(
            a
            for a in subsets
            if hashlib.blake2b(repr(a).encode(), key=key, digest_size=8).digest()[0] < 243
        )
    return time.perf_counter() - start


_PAIRS = tuple(itertools.combinations(range(4), 2))


@dataclass
class Tally:
    """Ops attempted, failures with reasons, and times of successes only.

    The shared host's speed swings by up to 2x within seconds, so the
    calibration task runs before the first op and after every op, in this
    process while no child runs. `wall` holds each op's wall seconds;
    `samples` holds them scaled to the reference speed,
    wall * CAL_REF_S / (mean of the calibrations just before and after).
    """

    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    cal: list = field(default_factory=lambda: [calibrate()])
    peak_kb: int = 0

    def record(self, kind: str, child: Child, problem: Optional[str]):
        self.attempted += 1
        self.cal.append(calibrate())
        if problem is not None:
            self.failures.append(f"{kind}: {problem}")
            return
        speed = CAL_REF_S / ((self.cal[-2] + self.cal[-1]) / 2.0)
        self.wall.setdefault(kind, []).append(child.wall_s)
        self.samples.setdefault(kind, []).append(child.wall_s * speed)
        if kind != "setup":
            self.peak_kb = max(self.peak_kb, child.maxrss_kb)


def setup_op(tally: Tally, deadline: float):
    child = run_fpc(["--help"], deadline)
    ok = child.rc == 0 and child.stdout.startswith("usage: fpc")
    tally.record("setup", child, None if ok else f"--help exit {child.rc}")


def construct_op(
    tally: Tally, w: Workload, seed: int, path: Path, first_sha: Optional[str], deadline: float
) -> tuple[Optional[str], Optional[dict]]:
    """Run one construct; returns (sha256 of the file, payload) on success."""
    if path.exists():
        path.unlink()
    child = run_fpc(construct_args(w, seed, path), deadline)
    sha = sha256_of(path) if child.rc == 0 else None
    problem, payload = construct_problem(w, child.rc, child.stdout, sha, first_sha)
    tally.record("construct", child, problem)
    return (sha, payload) if problem is None else (None, None)


def verify_op(tally: Tally, path: Path, c: int, n_words: int, deadline: float) -> bool:
    child = run_fpc(["verify", "--in", path, "--c", c], deadline)
    problem = verify_problem(child.rc, child.stdout, n_words)
    tally.record("verify", child, problem)
    return problem is None


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(w: Workload, seed: int, seconds: float, run_start: float) -> dict:
    """Set-up runs, then construct (and verify) iterations until `seconds`
    of measuring would be exceeded by one more iteration; at least one."""
    deadline = run_start + HARD_LIMIT_S
    tally = Tally()
    run_fpc(["--help"], deadline)  # warm-up, untimed: writes __pycache__
    for _ in range(SETUP_REPS):
        setup_op(tally, deadline)
    path = OUT / f"{w.name}.fpc"
    first_sha = None
    first_payload = None
    sessions = []
    kinds = ("construct", "verify") if w.verify else ("construct",)
    iterations = 0
    measure_end = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        iterations += 1
        sha, payload = construct_op(tally, w, seed, path, first_sha, deadline)
        session_ok = sha is not None
        if session_ok and first_sha is None:
            first_sha, first_payload = sha, payload
        if session_ok and w.verify:
            session_ok = verify_op(tally, path, w.c, payload["code_size"], deadline)
        took = time.perf_counter() - began
        if session_ok:
            sessions.append(sum(tally.samples[k][-1] for k in kinds))
        now = time.perf_counter()
        if now + took > measure_end or now >= deadline - took:
            break
    return {
        "workload": w.name,
        "seed": seed,
        "iterations": iterations,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "samples_s": tally.samples,
        "wall_s": tally.wall,
        "calibration_s": tally.cal,
        "session_s": sessions,
        "peak_rss_kb": tally.peak_kb,
        "sha256": first_sha,
        "payload": first_payload,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "construct_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
    "code_size": "count",
    "rate_to_limit": "ratio",
}


def end_to_end(record: dict) -> dict:
    """Medians of the run's op times at the reference speed."""
    samples = record["samples_s"]
    payload = record["payload"]
    values = {
        "setup_s": statistics.median(samples["setup"]),
        "construct_s": statistics.median(samples["construct"]),
        "session_s": statistics.median(record["session_s"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "code_size": payload["code_size"],
        "rate_to_limit": float(Fraction(payload["rate"]) / Fraction(payload["rate_limit"])),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def report_lines(record: dict, metrics: dict) -> list[str]:
    wall = record["wall_s"]
    failed = len(record["failures"])
    lines = [
        f"workload {record['workload']} seed {record['seed']}: closed loop, 1 client, "
        f"{record['iterations']} iteration(s)"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    for kind in ("setup", "construct", "verify"):
        if kind in wall:
            xs = wall[kind]
            lines.append(
                f"  {kind + '_s':<14} unscaled wall median {statistics.median(xs):.4f} s, "
                f"max {max(xs):.4f} s, n={len(xs)}"
            )
    if "verify" not in wall:
        lines.append("  verify_s       n/a (no `fpc verify` in this workload)")
    lines.append(
        f"  calibration    median {statistics.median(record['calibration_s']):.4f} s, "
        f"reference {CAL_REF_S} s, n={len(record['calibration_s'])}"
    )
    lines.append(f"  failed_ops     {failed}/{record['attempted']} ops")
    lines.append(f"  sha256         {record['sha256']}")
    lines.extend(f"  FAILED {reason}" for reason in record["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.perf_counter()
    if not (SRC / "fpc" / "cli.py").is_file():
        print(f"error: no fpc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    env = environment()

    if args.trace:
        import replica  # perfbench/replica.py, beside this file

        record = replica.run(w, args.seed, run_start)
        metrics = record.pop("metrics")
        lines = record.pop("lines")
    else:
        record = measure(w, args.seed, args.seconds, run_start)
        if record["sha256"] is None or not record["session_s"]:
            print("\n".join(report_lines(record, {})))
            print("error: no successful iteration; nothing to report", file=sys.stderr)
            return 1
        metrics = end_to_end(record)
        lines = report_lines(record, metrics)
    record["environment"] = env
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{w.name}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n"
    )
    print("\n".join(lines))
    failed = len(record["failures"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": record["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
