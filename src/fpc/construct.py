"""End-to-end code construction.

The pipeline lays a transversal packing over the symbols (Reed-Solomon where
`rs_applies`, else greedy), sparsifies each transversal's labeled t-subsets,
keeps candidates whose missing pattern has no lam+1 pairwise disjoint
members, and extracts a conflict-free selection. The stages share the
packing's (n, l) word matrix and name labeled subsets by their global keys:
the sparsifier gives one kept table over those keys and each row's
kept-pattern bits; `shared_patterns` ranks the distinct patterns;
acceptance is decided once per distinct pattern, and the matching shuffles
the accepted rows in place and derives each block's keys from its words.
Only the selected rows become tuples, and the `Code`, inside the timed
matching stage; only a verified build makes them `Candidate` objects, each
with the one frozenset that `shared_patterns` gives its pattern, for
`validate_induced`. `build_packing` sizes and builds the packing for
`construct` and `fpc diagnose` alike. The selected transversals are the
code; verification re-checks the frameproof property exactly rather than
trusting any pipeline stage, and only it loads the two checkers' modules
and `fpc.validate`. Acceptance and the report take t, lambda, m and the
bounds from one `BoundsReport`, and the report derives the rate from the
code size. Acceptance needs m alone, no extremal family:
`build_extremal_complement` serves `fpc diagnose` and the tests. The
diagnosis of a failed verification lives in `fpc.diagnose`, and the
baseline code and the exhaustive maximizer in `fpc.oracle`.
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import BudgetExceededError, Code, ConstructionError, DEFAULT_BUDGET
from .extremal import (
    BoundsReport,
    PositionFamily,
    bounds_report,
    complete_family,
    extremal_family,
    lambda_of,
)
from .packing import (
    Candidate,
    SparsifierConfig,
    TransversalPacking,
    accept_pattern,
    check_matrix_bytes,
    flagged_rows,
    greedy_packing,
    greedy_select,
    rs_applies,
    rs_packing,
    shared_patterns,
    sparsify,
)
from .record import Record
from .shuffle import shuffle


class ConstructionConfig(Record):
    __slots__ = ("c", "l", "q", "eta", "seed", "verify")
    # The one acceptance rule and the one matching; constants, not fields,
    # named for the reports and the code-file comment that print them.
    mode = "relaxed"
    matching = "greedy"

    def __init__(
        self,
        c: int,
        l: int,
        q: int,
        eta: float = 0.05,
        seed: int = 0,
        verify: bool = True,
    ):
        if c < 2 or l < 2 or q < 2:
            raise ValueError("need c, l, q all at least 2")
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"eta={eta} outside [0, 1]")
        super().__init__(c, l, q, eta, seed, verify)

    @property
    def packing(self) -> str:
        """The packing `build_packing` lays: "rs" where `rs_packing` builds, else "greedy"."""
        return "rs" if rs_applies(self.l, self.q) else "greedy"


_REPORT_FIELDS = (
    "config",  # the ConstructionConfig
    "bounds",  # its BoundsReport: t, lambda, m and the bounds at (c, l, q)
    "packing_size",
    "accepted_count",
    "code_size",
    "verified",  # True, or None when verification did not run
    "verified_note",
    # Stage -> ms. "verify" is the total of the layers that ran inside it:
    # "validate_induced", "is_frameproof" and "is_cover_free".
    "timings_ms",
)


class ConstructionReport(namedtuple("ConstructionReport", _REPORT_FIELDS)):
    """What one `construct` run built and how long each stage took."""

    __slots__ = ()

    @property
    def rate(self) -> Fraction:
        """code_size / q^t."""
        return Fraction(self.code_size, self.config.q**self.bounds.t)

    def as_dict(self) -> dict:
        return {
            **self.bounds.as_dict(),  # c, l, q, t, lambda, m and the bounds
            "eta": self.config.eta,
            "seed": self.config.seed,
            "mode": self.config.mode,
            "packing": self.config.packing,
            "matching": self.config.matching,
            "packing_size": self.packing_size,
            "accepted_count": self.accepted_count,
            "code_size": self.code_size,
            "rate": str(self.rate),
            "verified": self.verified,
            "verified_note": self.verified_note,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }


def build_extremal_complement(c: int, l: int) -> tuple[PositionFamily, PositionFamily]:
    """The `extremal_family` of (c, l) and its complement among all t-subsets
    of positions."""
    t, lam = lambda_of(c, l)
    chosen = extremal_family(l, t, lam)
    complement = PositionFamily(l, t, complete_family(l, t).edges - chosen.edges)
    return chosen, complement


def build_packing(cfg: ConstructionConfig) -> TransversalPacking:
    """The packing `cfg.packing` names at the config's point, once
    `check_matrix_bytes` has let through the q^(t+1) words that bound any
    packing, with their labeled t-subsets."""
    t, _lam = lambda_of(cfg.c, cfg.l)
    check_matrix_bytes(cfg.q ** (t + 1), cfg.l, t)
    if cfg.packing == "rs":
        return rs_packing(cfg.l, t, cfg.q)
    return greedy_packing(cfg.l, t, cfg.q, cfg.seed)


def construct(
    cfg: ConstructionConfig, budget: int = DEFAULT_BUDGET
) -> tuple[Code, ConstructionReport]:
    """Run the full pipeline and, when cfg.verify, prove the result exactly.

    Verification failure raises ConstructionError with a mechanism diagnosis:
    it would mean a bug, never an expected outcome. A verification that would
    blow the comparison budget yields verified=None with a note instead.
    """
    bounds = bounds_report(cfg.c, cfg.l, cfg.q)
    t, lam = bounds.t, bounds.lam
    timings: dict[str, float] = {}

    # The packing goes first so that an oversized point is refused before
    # any work.
    with _timed(timings, "packing"):
        pack = build_packing(cfg)

    with _timed(timings, "candidates"):
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        kept, patterns = sparsify(pack.words, t, sparsifier)
        sets, pattern_ids = shared_patterns(patterns, cfg.l, t)
        del patterns

    with _timed(timings, "accept"):
        m = bounds.m.value
        accepts = np.array([accept_pattern(p, cfg.l, t, lam, m) for p in sets], dtype=bool)
        accepted = flagged_rows(accepts, pattern_ids)

    with _timed(timings, "matching"):
        accepted_count = len(accepted)
        chosen = greedy_select(pack.words, kept, shuffle(accepted, cfg.seed))
        words = list(map(tuple, pack.words[chosen].tolist()))
        if cfg.verify:
            selected = [
                Candidate(word, sets[k]) for word, k in zip(words, pattern_ids[chosen].tolist())
            ]
        code = Code(cfg.q, cfg.l, words)

    # Verification needs none of the pipeline's arrays; free them first.
    packing_size = len(pack)
    del pack, kept, pattern_ids, accepts, accepted

    verified: Optional[bool] = None
    note = ""
    if cfg.verify:
        try:
            _verify_pipeline(code, selected, cfg, t, lam, budget, timings)
            verified = True
        except BudgetExceededError as exc:
            note = f"verification skipped: {exc}"
    else:
        note = "verification skipped: disabled by config"

    if len(code) > bounds.blackburn:
        raise ConstructionError(
            f"constructed {len(code)} words above the proven bound {bounds.blackburn}; "
            "this is a checker or pipeline bug"
        )
    report = ConstructionReport(
        config=cfg,
        bounds=bounds,
        packing_size=packing_size,
        accepted_count=accepted_count,
        code_size=len(code),
        verified=verified,
        verified_note=note,
        timings_ms=timings,
    )
    return code, report


@contextmanager
def _timed(timings: dict[str, float], name: str):
    """Record the block's wall time as timings[name] in ms, unless it raises."""
    start = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - start) * 1000.0


def _verify_pipeline(
    code: Code,
    selected: list[Candidate],
    cfg: ConstructionConfig,
    t: int,
    lam: int,
    budget: int,
    timings: dict[str, float],
) -> None:
    """The three verify layers, each timed under its own key in `timings`,
    and their total under "verify"; a layer that finds a fault raises
    ConstructionError. The checkers are loaded before the clock starts, so
    that "verify" is the sum of its layers."""
    from .cover_free import is_cover_free
    from .frameproof import is_frameproof
    from .validate import validate_induced

    with _timed(timings, "verify"):
        with _timed(timings, "validate_induced"):
            induced = validate_induced(selected, t)
        if not induced:
            raise ConstructionError(
                "selected family violates the induced-packing conditions "
                "(shared t-agreement inside a survived set, or agreement above t)"
            )
        with _timed(timings, "is_frameproof"):
            fp = is_frameproof(code, cfg.c, budget)
        with _timed(timings, "is_cover_free"):
            cf = is_cover_free(code, cfg.c, budget)
        if fp.ok != cf.ok:
            raise ConstructionError(
                f"checker disagreement: frameproof={fp.ok} cover-free={cf.ok}; "
                "one of the two checkers is wrong"
            )
        if not fp.ok:
            assert fp.witness is not None
            from .diagnose import _diagnose_violation

            diagnosis = _diagnose_violation(fp.witness, t, lam)
            raise ConstructionError(
                f"constructed code is not {cfg.c}-frameproof: "
                f"{fp.witness.word} in desc{fp.witness.coalition}. {diagnosis}"
            )
