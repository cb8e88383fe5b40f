"""End-to-end code construction, baselines, and a ground-truth maximizer.

The pipeline lays a transversal packing over the symbols (Reed-Solomon where
`rs_applies`, else greedy), builds the complement family of a largest
no-(lam+1)-matching family, sparsifies each transversal's labeled t-subsets,
keeps candidates whose missing pattern stays below the matching threshold,
and extracts a conflict-free selection. The stages share the packing's (n, l)
word matrix: the sparsifier gives each row one kept-pattern int and an id per
kept labeled subset, each in the narrowest type its bound allows, acceptance
is decided once per distinct pattern, and the matching indexes the accepted
rows of the id matrix without copying them. Only the selected rows become
tuples and `Candidate` objects, each with the one frozenset that
`shared_patterns` gives its pattern. `build_packing` sizes and builds the
packing for `construct` and `fpc diagnose` alike. The selected transversals
are the code; verification re-checks the frameproof property exactly rather
than trusting any pipeline stage. The report takes t, lambda, m and the
bounds from one `BoundsReport`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    BudgetExceededError,
    Code,
    ConstructionError,
    DEFAULT_BUDGET,
    Verdict,
    Witness,
    Word,
    desc_contains,
    is_cover_free,
    is_frameproof,
)
from .extremal import (
    BoundsReport,
    PositionFamily,
    bounds_report,
    complete_family,
    extremal_family,
    lambda_of,
    matching_number,
)
from .packing import (
    Candidate,
    SparsifierConfig,
    TransversalPacking,
    accept_pattern,
    check_matrix_bytes,
    greedy_packing,
    greedy_select,
    rs_applies,
    rs_packing,
    shared_patterns,
    sparsify,
    validate_induced,
)
from .record import Record


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


class ConstructionReport(NamedTuple):
    config: ConstructionConfig
    bounds: BoundsReport  # t, lambda, m and the bounds at the config's (c, l, q)
    packing_size: int
    accepted_count: int
    code_size: int
    rate: Fraction
    verified: Optional[Verdict]
    verified_note: str = ""
    # Stage -> ms. "verify" is the total of the layers that ran inside it:
    # "validate_induced", "is_frameproof" and "is_cover_free".
    timings_ms: dict = MappingProxyType({})

    def as_dict(self) -> dict:
        return {
            **self.bounds.as_dict(),  # c, l, q, t, lambda, m and the bounds
            "eta": self.config.eta,
            "seed": self.config.seed,
            "mode": self.config.mode,
            "packing": self.config.packing,
            "matching": self.config.matching,
            "packing_size": self.packing_size,
            # Every packing word is a candidate; every selected one a codeword.
            "candidate_count": self.packing_size,
            "accepted_count": self.accepted_count,
            "selected_count": self.code_size,
            "code_size": self.code_size,
            "rate": str(self.rate),
            "verified": None if self.verified is None else self.verified.ok,
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
    `check_matrix_bytes` has let its word and id matrices through."""
    t, _lam = lambda_of(cfg.c, cfg.l)
    check_matrix_bytes(cfg.l, t, cfg.q)
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
    # any work, the families' included, which grows steeply with l.
    with _timed(timings, "packing"):
        pack = build_packing(cfg)

    with _timed(timings, "families"):
        _chosen, complement = build_extremal_complement(cfg.c, cfg.l)

    with _timed(timings, "candidates"):
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        pattern_ints, subset_ids = sparsify(pack.words, t, sparsifier)
        patterns, pattern_ids = shared_patterns(pattern_ints, cfg.l, t)
        del pattern_ints

    with _timed(timings, "accept"):
        accepts = np.array([accept_pattern(p, complement, lam) for p in patterns], dtype=bool)
        accepted = np.flatnonzero(accepts[pattern_ids]).astype(np.int32)

    with _timed(timings, "matching"):
        chosen = greedy_select(subset_ids, accepted, cfg.seed)
        selected = [
            Candidate(tuple(word), patterns[k])
            for word, k in zip(pack.words[chosen].tolist(), pattern_ids[chosen].tolist())
        ]

    code = Code(cfg.q, cfg.l, [cand.transversal for cand in selected])
    # Verification needs none of the pipeline's arrays; free them first.
    packing_size, accepted_count = len(pack), len(accepted)
    del pack, subset_ids, pattern_ids, accepts, accepted

    verified: Optional[Verdict] = None
    note = ""
    if cfg.verify:
        with _timed(timings, "verify"):
            try:
                verified = _verify_pipeline(code, selected, cfg, t, lam, budget, timings)
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
        rate=Fraction(len(code), cfg.q**t),
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
) -> Verdict:
    """The three verify layers, each timed under its own key in `timings`."""
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
        diagnosis = _diagnose_violation(fp.witness, selected, t, lam)
        raise ConstructionError(
            f"constructed code is not {cfg.c}-frameproof: "
            f"{fp.witness.word} in desc{fp.witness.coalition}. {diagnosis}"
        )
    return Verdict(True)


def _diagnose_violation(
    witness: Witness, selected: list[Candidate], t: int, lam: int
) -> str:
    """Trace a cover-free violation back through the covering argument:
    a covered transversal must meet lam+1 coalition members in pairwise
    disjoint t-sets, all missing from its survived pattern."""
    by_word = {cand.transversal: cand for cand in selected}
    victim = by_word.get(witness.word)
    if victim is None:
        return "witness word is not among the selected transversals"
    l = len(witness.word)
    exact_t = []
    for other in witness.coalition:
        agree = [p for p in range(l) if witness.word[p] == other[p]]
        if len(agree) > t:
            return f"packing breach: agreement {len(agree)} > t with {other}"
        if len(agree) == t:
            exact_t.append(sum(1 << p for p in agree))
    if not exact_t:
        return "no t-agreements at all; the witness itself is suspect"
    fam = PositionFamily(l, t, frozenset(exact_t))
    nu = matching_number(fam)
    if nu <= lam:
        return (
            f"only {nu} <= lam disjoint t-agreements; the covering argument "
            "should have been impossible - suspect the checkers"
        )
    in_pattern = [m for m in exact_t if m in victim.pattern]
    if in_pattern:
        return "a t-agreement survived in the victim's pattern: matching breach"
    return (
        f"{nu} > lam disjoint t-agreements all missing from the victim's "
        "pattern: candidate acceptance admitted an infeasible pattern"
    )


def trivial_code(l: int, q: int) -> Code:
    """The l(q-1) words that differ from all-ones in exactly one coordinate.

    Each word's off-symbol at its private position is reproducible by no
    other codeword, so no coalition of any size frames an outsider.
    """
    if q < 2 or l < 1:
        raise ValueError("need q >= 2 and l >= 1")
    words = []
    for i in range(l):
        for s in range(2, q + 1):
            w = [1] * l
            w[i] = s
            words.append(tuple(w))
    return Code(q, l, words)


def search_max(
    c: int, l: int, q: int, budget: int = 1_000_000, cap: int = 64
) -> tuple[Code, bool]:
    """Exhaustive maximum frameproof code by include/exclude branch and bound.

    Returns (best code, optimal). optimal=False only if the node budget ran
    out. Frameproofness is invariant under per-coordinate symbol relabeling,
    so the all-ones word is pinned into the code without loss of generality.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    total = q**l
    if total > cap:
        raise ValueError(f"q^l = {total} exceeds the exhaustive cap {cap}")
    words = sorted(itertools.product(range(1, q + 1), repeat=l))
    n = len(words)
    best: list[Word] = [words[0]]
    nodes = 0
    exhausted = False

    def extension_ok(chosen: list[Word], w: Word) -> bool:
        m = len(chosen)
        if m == 0:
            return True
        s = min(c, m)
        for coal in itertools.combinations(chosen, s):
            if desc_contains(w, coal):
                return False
        for x0 in chosen:
            rest = [x for x in chosen if x != x0]
            for sub in itertools.combinations(rest, s - 1):
                if desc_contains(x0, sub + (w,)):
                    return False
        return True

    def search(idx: int, chosen: list[Word]):
        nonlocal best, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == n or len(chosen) + (n - idx) <= len(best):
            return
        w = words[idx]
        if extension_ok(chosen, w):
            search(idx + 1, chosen + [w])
            if exhausted:
                return
        search(idx + 1, chosen)

    search(1, [words[0]])
    return Code(q, l, best), not exhausted
