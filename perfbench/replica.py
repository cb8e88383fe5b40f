"""Traced in-process replica of `fpc construct`, for per-layer metrics.

The replica calls the package's public functions in the order `construct`
does: build_extremal_complement -> rs_packing -> survived_set ->
accept_candidate -> greedy_matching -> Code, then the three exact checkers
(on every workload, so the q=47 code is proven here too), the bounds, and a
write and read-back of the code file. Each stage is one span wrapping the
loop of public calls; there are no per-call spans and no tracing inside the
package. The file it writes must match, byte for byte, the one the CLI wrote
for the same seed, which keeps the replica from drifting away from
`construct`.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import run as harness

# Per-layer metric prefix -> span name. Stage spans carry the stage keys of
# ConstructionReport.timings_ms; the others carry the function they wrap.
LAYER_SPANS = {
    "construct.build_extremal_complement": "families",
    "packing.rs_packing": "packing",
    "packing.survived_set": "candidates",
    "packing.accept_candidate": "accept",
    "packing.greedy_matching": "matching",
    "core.Code": "core.Code",
    "packing.validate_induced": "packing.validate_induced",
    "core.is_frameproof": "core.is_frameproof",
    "core.is_cover_free": "core.is_cover_free",
    "extremal.bounds": "extremal.bounds",
    "fileio.write_code_file": "fileio.write_code_file",
    "fileio.read_code_file": "fileio.read_code_file",
}


class Tracer:
    """Spans held in memory: name, start, end, parent id, run id, counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run_id": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        peak_kb = _peak_kb()
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["counts"]["rss_mb"] = (_peak_kb() - peak_kb) / 1024.0
            self._stack.pop()

    def self_ms(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover."""
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + _ms(s)
        return {s["name"]: _ms(s) - child_ms.get(s["id"], 0.0) for s in self.spans}

    def by_name(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def replicate(w: harness.Workload, seed: int, path: Path, tracer: Tracer) -> list[str]:
    """One traced pass; returns the reasons it failed, empty when it passed."""
    from fpc.construct import ConstructionConfig, build_extremal_complement
    from fpc.core import Code, is_cover_free, is_frameproof
    from fpc.extremal import blackburn_upper, improved_upper, lambda_of, rate_limit, resolve_m
    from fpc.fileio import read_code_file, write_code_file
    from fpc.packing import (
        SparsifierConfig,
        accept_candidate,
        greedy_matching,
        rs_packing,
        survived_set,
        validate_induced,
    )

    cfg = ConstructionConfig(c=w.c, l=w.l, q=w.q, seed=seed, verify=w.verify)
    t, lam = lambda_of(cfg.c, cfg.l)
    problems = []
    with tracer.span("trace"):
        with tracer.span("families"):
            _chosen, complement = build_extremal_complement(cfg.c, cfg.l)
        with tracer.span("packing") as k:
            pack = rs_packing(cfg.l, t, cfg.q)
            k["items_out"] = len(pack)
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        with tracer.span("candidates") as k:
            candidates = [survived_set(U, t, sparsifier) for U in pack.transversals]
            k["calls"] = len(candidates)
            k["keep_ratio"] = sum(len(cand.survived) for cand in candidates) / (
                len(candidates) * math.comb(cfg.l, t)
            )
        with tracer.span("accept") as k:
            accepted = [
                cand
                for cand in candidates
                if accept_candidate(cand, cfg.mode, complement, lam)
            ]
            k["calls"] = len(candidates)
            k["accept_ratio"] = len(accepted) / len(candidates)
        with tracer.span("matching") as k:
            selected = greedy_matching(accepted, cfg.seed, cfg.matching)
            k["select_ratio"] = len(selected) / len(accepted)
        with tracer.span("core.Code"):
            code = Code(cfg.q, cfg.l, [cand.transversal for cand in selected])
        n = len(code)
        with tracer.span("verify"):
            with tracer.span("packing.validate_induced") as k:
                if not validate_induced(selected, t):
                    problems.append("validate_induced rejected the selection")
                k["pairs"] = math.comb(len(selected), 2)
            with tracer.span("core.is_frameproof") as k:
                fp = is_frameproof(code, cfg.c)
                k["coalitions"] = math.comb(n, min(cfg.c, n - 1))
            with tracer.span("core.is_cover_free") as k:
                cf = is_cover_free(code, cfg.c)
                k["pairs"] = n * (n - 1)
            if not (fp.ok and cf.ok):
                problems.append(f"checkers: frameproof={fp.ok} cover-free={cf.ok}")
        with tracer.span("extremal.bounds"):
            bb = blackburn_upper(cfg.c, cfg.l, cfg.q)
            improved_upper(cfg.c, cfg.l, cfg.q)
            rate_limit(cfg.c, cfg.l)
            resolve_m(cfg.l, t, lam)
        if n > bb:
            problems.append(f"code_size {n} > blackburn {bb}")
        comments = [
            f"c={cfg.c} l={cfg.l} q={cfg.q} eta={cfg.eta} seed={cfg.seed}",
            f"mode={cfg.mode} packing={cfg.packing} matching={cfg.matching}",
        ]
        with tracer.span("fileio.write_code_file") as k:
            write_code_file(path, code, comments)
            k["bytes"] = path.stat().st_size
        with tracer.span("fileio.read_code_file"):
            back = read_code_file(path)
        if back != code:
            problems.append("read_code_file did not return the written code")
    return problems


def run(w: harness.Workload, seed: int, run_start: float) -> dict:
    """CLI construct once (the reference file), then one traced replica pass."""
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(harness.SRC))
    deadline = run_start + harness.HARD_LIMIT_S
    tally = harness.Tally()
    cli_path = harness.OUT / f"{w.name}.cli.fpc"
    cli_sha, _payload = harness.construct_op(tally, w, seed, cli_path, None, deadline)

    replica_path = harness.OUT / f"{w.name}.replica.fpc"
    tracer = Tracer(f"{w.name}-seed{seed}-pid{os.getpid()}")
    problems = replicate(w, seed, replica_path, tracer)
    replica_sha = harness.sha256_of(replica_path)
    if cli_sha is not None and replica_sha != cli_sha:
        problems.append("replica code file differs from the CLI's")
    tally.attempted += 1
    tally.failures.extend(f"replica: {p}" for p in problems)

    self_ms = tracer.self_ms()
    total_ms = _ms(tracer.by_name("trace"))
    if sum(self_ms.values()) > total_ms * (1 + 1e-9):
        tally.failures.append("trace: self times exceed trace.total_ms")
    metrics = layer_metrics(tracer, self_ms, total_ms)
    lines = [f"workload {w.name} seed {seed}: traced replica, run id {tracer.run_id}"]
    lines += [f"  {k:<44} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"  replica sha256 {replica_sha}  cli sha256 {cli_sha}")
    lines.extend(f"  FAILED {reason}" for reason in tally.failures)
    return {
        "workload": w.name,
        "seed": seed,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "sha256": cli_sha,
        "replica_sha256": replica_sha,
        "spans": tracer.spans,
        "metrics": metrics,
        "lines": lines,
    }


# (metric name, unit, span name, count key or None for the span's self time)
METRIC_TABLE = [(f"{prefix}.ms", "ms", span, None) for prefix, span in LAYER_SPANS.items()] + [
    ("packing.survived_set.calls", "count", "candidates", "calls"),
    ("packing.survived_set.keep_ratio", "ratio", "candidates", "keep_ratio"),
    ("packing.survived_set.rss_mb", "MB", "candidates", "rss_mb"),
    ("packing.accept_candidate.calls", "count", "accept", "calls"),
    ("packing.accept_candidate.accept_ratio", "ratio", "accept", "accept_ratio"),
    ("packing.rs_packing.items_out", "count", "packing", "items_out"),
    ("packing.rs_packing.rss_mb", "MB", "packing", "rss_mb"),
    ("packing.greedy_matching.select_ratio", "ratio", "matching", "select_ratio"),
    ("packing.validate_induced.pairs", "count", "packing.validate_induced", "pairs"),
    ("core.is_frameproof.coalitions", "count", "core.is_frameproof", "coalitions"),
    ("core.is_cover_free.pairs", "count", "core.is_cover_free", "pairs"),
    ("fileio.bytes", "bytes", "fileio.write_code_file", "bytes"),
]


def layer_metrics(tracer: Tracer, self_ms: dict, total_ms: float) -> dict:
    metrics = {}
    for name, unit, span, key in METRIC_TABLE:
        value = self_ms[span] if key is None else tracer.by_name(span)["counts"][key]
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.total_ms"] = {"value": total_ms, "unit": "ms"}
    return metrics
