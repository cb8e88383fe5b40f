"""End-to-end code construction.

The pipeline lays a transversal packing over the symbols (Reed-Solomon where
`rs_applies`, else greedy), sparsifies each transversal's labeled t-subsets,
keeps candidates whose missing pattern has no lam+1 pairwise disjoint
members, and extracts a conflict-free selection. It has two routes, which
give the same code and report, timings aside; `construct` picks one from
the point's packing and size before it imports numpy, by
`takes_plain_route`.

- `plain_route`, for an rs packing of at most `PLAIN_LIMIT` keys, is plain
  Python over the lists of `fpc.plain`: the packing through the `GF`
  tables, one keyed blake2b per labeled subset, acceptance once per
  distinct pattern, then `random.Random(seed).shuffle` and a set-based
  greedy walk. It loads no numpy, whose import costs more than the whole
  build there.
- `numpy_route` shares the packing's (n, l) word matrix across its stages
  and names labeled subsets by their global keys: the sparsifier gives one
  kept table over those keys and each row's kept-pattern bits;
  `shared_patterns` ranks the distinct patterns; acceptance is decided once
  per distinct pattern, and the matching shuffles the accepted rows in
  place, replaying the same shuffle, and derives each block's keys from its
  words.

On either route only the selected rows become tuples, and the `Code`,
inside the timed matching stage; only a verified build makes them
`Candidate` objects, those with equal patterns sharing one frozenset, for
`validate_induced`. `build_packing` sizes and builds the numpy packing for
the numpy route and `fpc diagnose` alike. The selected transversals are the
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

import math
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .candidate import Candidate, SparsifierConfig, accept_pattern
from .core import BudgetExceededError, Code, ConstructionError, DEFAULT_BUDGET
from .extremal import (
    BoundsReport,
    PositionFamily,
    bounds_report,
    complete_family,
    extremal_family,
    lambda_of,
    position_masks,
)
from .field import rs_applies
from .record import Record

if TYPE_CHECKING:
    from .packing import TransversalPacking

# The most keys, rows walked times keys per row, at which `construct` takes
# the plain route. Set from cold `fpc construct` children of each route
# (seed 7, verify on, medians of 11 alternating pairs, 2-core x86-64 host,
# CPython 3.11; the numpy route's time includes its import): the plain route
# was faster and smaller at (3,6,25), 234,375 keys (132.2 against 150.2 ms,
# 10 of 11 pairs; 30.2 against 31.2 MB), and slower and larger at (2,5,13),
# 285,610 keys (204.8 against 190.3 ms; 36.9 against 30.9 MB), and at
# (3,6,27), 295,245 keys (158.7 against 151.9 ms).
PLAIN_LIMIT = 240_000


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
    from .packing import check_matrix_bytes, greedy_packing, rs_packing

    t, _lam = lambda_of(cfg.c, cfg.l)
    check_matrix_bytes(cfg.q ** (t + 1), cfg.l, t)
    if cfg.packing == "rs":
        return rs_packing(cfg.l, t, cfg.q)
    return greedy_packing(cfg.l, t, cfg.q, cfg.seed)


def takes_plain_route(cfg: ConstructionConfig) -> bool:
    """Whether `construct` builds cfg on the plain route: its packing is the
    rs packing, and the rows that packing holds times the keys per row,
    q^(t+1)·C(l, t), are at most `PLAIN_LIMIT`. A greedy packing, whose
    crossover was never measured, always takes the numpy route."""
    t, _lam = lambda_of(cfg.c, cfg.l)
    return cfg.packing == "rs" and cfg.q ** (t + 1) * math.comb(cfg.l, t) <= PLAIN_LIMIT


# What a route returns: the code, the selected candidates when cfg.verify
# (else None), the packing's size and the number of accepted candidates.
_Built = tuple[Code, Optional[list[Candidate]], int, int]


def construct(
    cfg: ConstructionConfig, budget: int = DEFAULT_BUDGET
) -> tuple[Code, ConstructionReport]:
    """Run the full pipeline and, when cfg.verify, prove the result exactly.

    The pipeline runs on the plain route where `takes_plain_route`, else on
    the numpy route; both give the same code and report, timings aside.
    Verification failure raises ConstructionError with a mechanism diagnosis:
    it would mean a bug, never an expected outcome. A verification that would
    blow the comparison budget yields verified=None with a note instead.
    """
    bounds = bounds_report(cfg.c, cfg.l, cfg.q)
    timings: dict[str, float] = {}
    route = plain_route if takes_plain_route(cfg) else numpy_route
    code, selected, packing_size, accepted_count = route(cfg, bounds, timings)
    report = _report(cfg, bounds, budget, timings, code, selected, packing_size, accepted_count)
    return code, report


def numpy_route(cfg: ConstructionConfig, bounds: BoundsReport, timings: dict[str, float]) -> _Built:
    """The four stages over the packing's word matrix, each timed in
    `timings`."""
    import numpy as np

    from .packing import flagged_rows, greedy_select, shared_patterns, sparsify
    from .shuffle import shuffle

    t, lam = bounds.t, bounds.lam
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
        chosen = greedy_select(pack.words, kept, shuffle(accepted, cfg.seed))
        words = list(map(tuple, pack.words[chosen].tolist()))
        selected = None
        if cfg.verify:
            selected = [
                Candidate(word, sets[k]) for word, k in zip(words, pattern_ids[chosen].tolist())
            ]
        code = Code(cfg.q, cfg.l, words)
    return code, selected, len(pack), len(accepted)


def plain_route(cfg: ConstructionConfig, bounds: BoundsReport, timings: dict[str, float]) -> _Built:
    """The four stages of `numpy_route` in plain Python, each timed in
    `timings` under the same name, on the columns of `fpc.plain`. cfg's
    packing must be the rs packing."""
    import random
    from itertools import compress

    from . import plain

    t, lam = bounds.t, bounds.lam
    with _timed(timings, "packing"):
        columns = plain.rs_columns(cfg.l, t, cfg.q)

    with _timed(timings, "candidates"):
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        rows, patterns, kept = plain.sparsify(columns, cfg.q, t, sparsifier)
        masks = position_masks(cfg.l, t)
        sets = {
            bits: frozenset(mask for i, mask in enumerate(masks) if bits >> i & 1)
            for bits in set(patterns)
        }

    with _timed(timings, "accept"):
        m = bounds.m.value
        accepts = {bits: accept_pattern(p, cfg.l, t, lam, m) for bits, p in sets.items()}
        accepted = list(compress(range(len(patterns)), map(accepts.__getitem__, patterns)))

    with _timed(timings, "matching"):
        random.Random(cfg.seed).shuffle(accepted)
        chosen = plain.walk(rows, accepted, kept)
        words = plain.symbols(columns, cfg.q, chosen)
        selected = None
        if cfg.verify:
            selected = [Candidate(word, sets[patterns[k]]) for word, k in zip(words, chosen)]
        code = Code(cfg.q, cfg.l, words)
    return code, selected, len(patterns), len(accepted)


def _report(
    cfg: ConstructionConfig,
    bounds: BoundsReport,
    budget: int,
    timings: dict[str, float],
    code: Code,
    selected: Optional[list[Candidate]],
    packing_size: int,
    accepted_count: int,
) -> ConstructionReport:
    """Verify what a route built, when cfg.verify, and report it."""
    verified: Optional[bool] = None
    note = ""
    if cfg.verify:
        try:
            _verify_pipeline(code, selected, cfg, bounds.t, bounds.lam, budget, timings)
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
    return ConstructionReport(
        config=cfg,
        bounds=bounds,
        packing_size=packing_size,
        accepted_count=accepted_count,
        code_size=len(code),
        verified=verified,
        verified_note=note,
        timings_ms=timings,
    )


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
