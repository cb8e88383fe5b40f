"""The own-subsequence audit behind `fpc audit`, and the word/edge
correspondence it is cross-checked through.

A restriction x_S of a codeword is own when no other codeword agrees with x
on S. `own_profile` counts each word's own t- and (t-1)-subsequences, and
`own_subsequence_audit` checks the conditional floor Blackburn's bound rests
on. `pi` maps words to transversal edges of the complete l-partite
hypergraph, where `own_subset_counts` counts the same thing on vertex sets.
Of the commands, only `fpc audit` loads this module; like `fpc.core`, it is
pure Python.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from typing import Iterable, Optional, Sequence

from .core import DEFAULT_BUDGET, BudgetExceededError, Code, Word
from .extremal import emc_value, lambda_of

Edge = frozenset[tuple[int, int]]  # {(position, symbol)}, positions 1-based


def pi(code: Code) -> list[Edge]:
    """Map each word to its transversal edge {(i, x_i)} of the complete
    l-partite hypergraph; order follows the sorted word order."""
    return [frozenset((i + 1, sym) for i, sym in enumerate(w)) for w in code.words]


def pi_inverse(edges: Iterable[Edge], q: int, l: Optional[int] = None) -> Code:
    """Inverse of `pi`. Every edge must carry exactly one symbol per position."""
    edge_list = list(edges)
    if not edge_list:
        if l is None:
            raise ValueError("cannot infer word length from an empty edge list")
        return Code(q, l, [])
    words = []
    for e in edge_list:
        positions = sorted(p for p, _ in e)
        ll = len(e)
        if l is not None and ll != l:
            raise ValueError(f"edge {sorted(e)} has size {ll}, expected {l}")
        if positions != list(range(1, ll + 1)):
            raise ValueError(f"edge {sorted(e)} is not a transversal of positions 1..{ll}")
        by_pos = dict(e)
        words.append(tuple(by_pos[p] for p in range(1, ll + 1)))
    return Code(q, len(edge_list[0]), words)


class OwnCounts(namedtuple("OwnCounts", "own_t_count own_tminus1_count")):
    """A word's counts of own t- and (t-1)-subsequences."""

    __slots__ = ()


def own_profile(code: Code, t: int, budget: int = DEFAULT_BUDGET) -> dict[Word, OwnCounts]:
    """Per-word counts of own t- and (t-1)-subsequences.

    A restriction x_S is own when no other codeword agrees with x on S.
    Raises BudgetExceededError, before any work, when the projections to
    build, n * (C(l, t) + C(l, t-1)), exceed `budget`.
    """
    if not (1 <= t <= code.l):
        raise ValueError(f"t={t} outside 1..{code.l}")
    estimate = len(code) * (math.comb(code.l, t) + math.comb(code.l, t - 1))
    if estimate > budget:
        raise BudgetExceededError(
            f"own-subsequence audit needs ~{estimate:.2e} projections, budget is {budget:.2e}"
        )
    counts_t = _own_subsequence_counts(code.words, code.l, t)
    counts_tm1 = _own_subsequence_counts(code.words, code.l, t - 1)
    return {
        w: OwnCounts(counts_t[k], counts_tm1[k]) for k, w in enumerate(code.words)
    }


def _own_subsequence_counts(words: tuple[Word, ...], l: int, t: int) -> list[int]:
    counts = [0] * len(words)
    for positions in itertools.combinations(range(l), t):
        groups = Counter(tuple(w[i] for i in positions) for w in words)
        for k, w in enumerate(words):
            if groups[tuple(w[i] for i in positions)] == 1:
                counts[k] += 1
    return counts


def own_subset_counts(edges: Sequence[Edge], t: int) -> list[int]:
    """Per-edge counts of own t-subsets, computed purely on vertex sets.

    Cross-checks `own_profile` through the pi correspondence: a position set
    is own for a word exactly when the matching vertex set is an own t-subset.
    """
    incidence: Counter = Counter()
    subsets_of = []
    for e in edges:
        subs = [frozenset(c) for c in itertools.combinations(sorted(e), t)]
        subsets_of.append(subs)
        incidence.update(subs)
    return [sum(1 for T in subs if incidence[T] == 1) for subs in subsets_of]


class AuditRow(
    namedtuple("AuditRow", "word own_t_count own_tminus1_count bound_applies ok")
):
    """One word's audit line: its own counts, whether the floor applies to it
    (it has no own (t-1)-subsequence), and whether it holds."""

    __slots__ = ()


class AuditResult(namedtuple("AuditResult", "t lam m required rows")):
    """The audit of one code: t, lambda, m (an `EmcValue`), the floor
    binom(l, t) - m on own t-subsequences, and one `AuditRow` per word."""

    __slots__ = ()

    @property
    def violations(self) -> list[Word]:
        return [r.word for r in self.rows if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.violations


def own_subsequence_audit(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> AuditResult:
    """Check the conditional floor on own t-subsequences.

    On a c-frameproof code, any codeword with no own (t-1)-subsequence must
    have at least binom(l, t) - m own t-subsequences. Violations on a
    verified code would disprove the checker or the m oracle. `own_profile`
    refuses a code whose projections exceed `budget`.
    """
    t, lam = lambda_of(c, code.l)
    m = emc_value(code.l, t, lam)
    required = math.comb(code.l, t) - m.value
    rows = []
    for word, counts in own_profile(code, t, budget).items():
        applies = counts.own_tminus1_count == 0
        ok = (not applies) or counts.own_t_count >= required
        rows.append(
            AuditRow(word, counts.own_t_count, counts.own_tminus1_count, applies, ok)
        )
    return AuditResult(t=t, lam=lam, m=m, required=required, rows=tuple(rows))
