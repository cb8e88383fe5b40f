"""Exhaustive references that the closed forms and the pipeline are tested
against, and the descendant test they rest on.

`m_exact` settles small instances of the extremal matching number by branch
and bound, which `fpc oracle` sets beside `emc_value`'s closed form.
`search_max` finds a largest frameproof code of tiny parameters outright,
`trivial_code` is the one-off baseline code of size l(q-1), and
`desc_contains` tests a descendant of a coalition directly. Of the commands,
only `fpc oracle` loads this module; the pipeline and the checkers need none
of it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Sequence

from .core import Code, Word
from .extremal import (
    EmcValue,
    _check_emc_params,
    _largest_matching,
    extremal_family,
    position_masks,
)

EXHAUSTIVE_CAP = 20  # largest binom(l, t) m_exact will take on by default


class ExhaustiveCapError(Exception):
    """Instance too large for m_exact; use emc_value for the formula."""


def m_exact(l: int, t: int, lam: int, cap: int = EXHAUSTIVE_CAP) -> EmcValue:
    """Exact maximum by exhaustive branch and bound.

    Searches the complement: the fewest edges whose removal from the complete
    family destroys every (lam+1)-matching. Branching follows one violating
    matching at a time (the first that `_largest_matching` meets), with
    earlier members pinned kept so subtrees stay disjoint. The bound starts
    from the certified `extremal_family`, so a wrong closed form cannot leak
    into the result. Refuses instances with binom(l, t) above `cap`.
    """
    _check_emc_params(l, t, lam)
    n_edges = math.comb(l, t)
    if n_edges > cap:
        raise ExhaustiveCapError(
            f"binom({l},{t}) = {n_edges} exceeds the exhaustive cap {cap}; "
            "raise the cap or use emc_value for the formula"
        )
    if cap > EXHAUSTIVE_CAP:
        warnings.warn(
            f"m_exact running above the default cap ({cap} > {EXHAUSTIVE_CAP}); "
            "expect exponential growth",
            RuntimeWarning,
        )
    best = n_edges - len(extremal_family(l, t, lam))

    def search(kept: frozenset[int], deleted: int, pinned: frozenset[int]):
        nonlocal best
        if deleted >= best:
            return
        violating = _largest_matching(sorted(kept), l, t, stop=lam + 1)
        if len(violating) <= lam:
            best = deleted
            return
        for k, e in enumerate(violating):
            if e in pinned:
                continue
            search(kept - {e}, deleted + 1, pinned | set(violating[:k]))

    search(frozenset(position_masks(l, t)), 0, frozenset())
    return EmcValue(n_edges - best, True, "exhaustive")


def _check_coalition(coalition: Sequence[Word], l: int) -> tuple[Word, ...]:
    coal = tuple(sorted(set(map(tuple, coalition))))
    if not coal:
        raise ValueError("coalition must be nonempty")
    for w in coal:
        if len(w) != l:
            raise ValueError(f"coalition word {w} has length {len(w)}, expected {l}")
    return coal


def desc_contains(y: Sequence[int], coalition: Sequence[Word]) -> bool:
    """True iff every coordinate of y appears in some coalition member there."""
    y = tuple(y)
    coal = _check_coalition(coalition, len(y))
    for i, s in enumerate(y):
        if all(x[i] != s for x in coal):
            return False
    return True


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
