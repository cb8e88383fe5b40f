"""Code primitives and exact collusion-resistance checkers.

Words are tuples of 1-based symbols from {1..q}. A code is a set of distinct
words of a common length. The two checkers, `is_frameproof` and
`is_cover_free`, decide the same property through deliberately different
routes (coordinate products vs. set unions) so they can cross-validate each
other; both are exact and refuse oversized instances instead of sampling.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

Word = tuple[int, ...]
Edge = frozenset[tuple[int, int]]  # {(position, symbol)}, positions 1-based

DEFAULT_BUDGET = 10**10


class BudgetExceededError(Exception):
    """The exact enumeration would exceed the comparison budget."""


def validate_word(word: Sequence[int], l: int, q: int) -> Word:
    w = tuple(word)
    if len(w) != l:
        raise ValueError(f"word {w} has length {len(w)}, expected {l}")
    for s in w:
        if not (isinstance(s, int) and not isinstance(s, bool) and 1 <= s <= q):
            raise ValueError(f"word {w} has symbol {s!r} outside 1..{q}")
    return w


@dataclass(frozen=True)
class Code:
    """A set of distinct length-l words over symbols {1..q}, kept sorted."""

    q: int
    l: int
    words: tuple[Word, ...]

    def __init__(self, q: int, l: int, words: Iterable[Sequence[int]]):
        if q < 1 or l < 1:
            raise ValueError("q and l must be positive")
        validated = [validate_word(w, l, q) for w in words]
        if len(set(validated)) != len(validated):
            dupes = [w for w, k in Counter(validated).items() if k > 1]
            raise ValueError(f"duplicate words rejected: {dupes[:3]}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "words", tuple(sorted(validated)))

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: `word` is a descendant of `coalition`."""

    word: Word
    coalition: tuple[Word, ...]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class OwnCounts:
    own_t_count: int
    own_tminus1_count: int


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


def desc_size(coalition: Sequence[Word]) -> int:
    """Number of descendants: product of per-coordinate symbol-set sizes."""
    first = next(iter(coalition), None)
    if first is None:
        raise ValueError("coalition must be nonempty")
    coal = _check_coalition(coalition, len(first))
    size = 1
    for col in zip(*coal):
        size *= len(set(col))
    return size


# ---------------------------------------------------------------------------
# Frameproof checker (word side)
# ---------------------------------------------------------------------------
#
# A violation is a pair (x0, coalition) with x0 a codeword outside the
# coalition and x0 a descendant of it. Checking coalitions of size exactly
# s = min(c, |C|-1) is complete: descendants only grow with the coalition.
# Witnesses are canonical: least (x0, sorted coalition) over all violations,
# so results never depend on evaluation order.
#
# One route, which never enumerates coalitions: states grow one position at a
# time along the prefix trie of the code. A state is a codeword prefix plus the
# members used so far (at most s). At the next position it grows
#   - by each member's own symbol there, where the trie has that child;
#   - while it has fewer than s members, by every trie child whose symbol no
#     member carries, once per word with that symbol at that position; the
#     word becomes the next member.
# So only codeword prefixes ever become states. A full-length state whose word
# is not a member is a violation, and its least coalition is its members plus
# the smallest word indices outside them and the word. That is complete:
# follow x0 through any coalition that frames it, adding, wherever the members
# so far miss x0's symbol, a coalition member that carries it; the state grown
# along x0 has a member set inside the coalition. So the least (word, least
# coalition) over the grown violations is the canonical witness.
#
# States grow in passes, cut before they expand: a state's weight is s plus,
# while it has a free slot, the number of words its node's children can add
# (at most n), which bounds the states it grows. So a pass holds at most
# `_STATE_CAP` of weight plus one state's fan-out. Each pass takes the deepest
# level with a full pass of weight waiting, else the shallowest level, so a
# level never holds more than about 2 * `_STATE_CAP` states plus one fan-out.
# Once a violation is known, a state is dropped when every word below its
# prefix sorts after the violation's word. Symbols are replaced by their rank
# at their position before anything enters numpy, so arbitrarily large symbols
# never meet a fixed-width integer.

# Weight per pass. Checking a 667-word (2,4,31) code, 4,096 kept the
# tracemalloc peak at 0.60 MB, under the 0.63 MB of the coalition-block route
# it replaced; 8,192 ran about 20% faster but peaked at 1.2 MB and raised the
# peak RSS of `fpc construct` by 0.4 MB, and 2,048 ran about 35% slower.
_STATE_CAP = 4096


def is_frameproof(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact c-frameproof check.

    Grows (codeword prefix, partial coalition) states position by position:
    a state follows its members' symbols where they continue a codeword
    prefix and, while it has fewer than s = min(c, n-1) members, takes as
    the next member any word carrying a prefix's next symbol that no member
    carries. A full-length state whose word is not a member is a violation.
    The witness is the least (word, coalition) over all violations. Raises
    BudgetExceededError rather than sampling when the instance exceeds
    `budget` comparisons.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    words = code.words
    n = len(words)
    if n <= 1:
        return Verdict(True)
    s = min(c, n - 1)
    # A member set of size m has at most min(m^k, n) descendant prefixes of
    # length k, so over the l positions (prefix, member set) pairs number
    # about this at most; n - s in place of n keeps the refusal thresholds
    # where they have always been. The route's states are bounded by s! times
    # the pairs, because a member set can be reached in each order its
    # members are added in. A repeat needs two members that carry the same
    # symbol where one of them is added: the seed-4099 (2,4,31) and (3,6,16)
    # codes grew 2 repeats among about 350k states.
    estimate = math.comb(n, s) * code.l * min(n - s, s**code.l)
    if estimate > budget:
        raise BudgetExceededError(
            f"frameproof check needs ~{estimate:.2e} comparisons, "
            f"budget is {budget:.2e}"
        )
    best = _least_violation(_prefix_levels(words), n, s)
    if best is None:
        return Verdict(True)
    j, coal = best
    return Verdict(False, Witness(words[j], tuple(words[i] for i in coal)))


@dataclass(frozen=True)
class _Level:
    """The trie level one position adds, with its parents' children.

    A child's key is parent id * (n+1) + the rank of its symbol; ids are
    positions in the sorted keys, so the last level's ids are word indices.
    """

    keys: np.ndarray  # sorted child keys
    child_lo: np.ndarray  # children of parent v are keys[child_lo[v]:child_lo[v+1]]
    fan: np.ndarray  # per parent: words its children's symbols can add
    by_rank: np.ndarray  # word indices grouped by their rank here
    rank_lo: np.ndarray  # rank r's group is by_rank[rank_lo[r]:rank_lo[r+1]]
    first_word: np.ndarray  # per child: least word index below it
    ranks: np.ndarray  # per word its rank here, then -1 for an empty slot


def _prefix_levels(words: tuple[Word, ...]) -> list[_Level]:
    """One `_Level` per position of the (sorted, distinct) words."""
    n = len(words)
    levels = []
    node = np.zeros(n, dtype=np.int64)
    for col in _column_ranks(words).T:
        keys, first_word, node = np.unique(
            node * (n + 1) + col, return_index=True, return_inverse=True
        )
        parents = 1 if not levels else len(levels[-1].keys)
        child_lo = np.searchsorted(keys, np.arange(parents + 1) * (n + 1))
        rank_lo = np.concatenate(([0], np.cumsum(np.bincount(col))))
        group = np.diff(rank_lo)[keys % (n + 1)]
        fan = np.add.reduceat(group, child_lo[:-1])  # every parent has a child
        levels.append(
            _Level(
                keys, child_lo, fan, np.argsort(col, kind="stable"), rank_lo,
                first_word, np.append(col, -1),
            )
        )
    return levels


def _column_ranks(words: tuple[Word, ...]) -> np.ndarray:
    """ranks[j, k] is the rank of words[j][k] among the symbols at position k."""
    rank_rows = []
    for col in zip(*words):
        rank = {sym: r for r, sym in enumerate(sorted(set(col)))}
        rank_rows.append([rank[sym] for sym in col])
    return np.array(rank_rows, dtype=np.int64).T


def _least_violation(
    levels: list[_Level], n: int, s: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Least (word index, coalition indices) over all violations, or None.

    A state is a node id of its level and a row of s member indices in the
    order they were added, n marking a free slot.
    """
    best: Optional[tuple[int, tuple[int, ...]]] = None
    # Per level, the states waiting to grow there and their total weight.
    root = (np.zeros(1, dtype=np.int64), np.full((1, s), n, dtype=np.int64), n + s)
    waiting = {0: root}
    while waiting:
        # Grow the deepest level that has a full batch waiting, else the
        # shallowest: passes over a few states each would cost numpy's
        # per-call overhead many times over.
        full = [k for k, (_, _, total) in waiting.items() if total >= _STATE_CAP]
        k = max(full) if full else min(waiting)
        node, members, _ = waiting.pop(k)
        if best is not None and k:
            keep = levels[k - 1].first_word[node] <= best[0]
            node, members = node[keep], members[keep]
            if not len(node):
                continue
        weight = np.cumsum(_weight(levels[k], node, members, n))
        cut = max(1, int(np.searchsorted(weight, _STATE_CAP, side="right")))
        if cut < len(node):
            waiting[k] = (node[cut:], members[cut:], int(weight[-1] - weight[cut - 1]))
        node, members = _grow(levels[k], node[:cut], members[:cut], n)
        if k + 1 < len(levels):
            total = int(_weight(levels[k + 1], node, members, n).sum())
            if k + 1 in waiting:
                held_node, held_members, held = waiting[k + 1]
                node = np.concatenate((held_node, node))
                members = np.concatenate((held_members, members))
                total += held
            waiting[k + 1] = (node, members, total)
            continue
        framed = (members != node[:, None]).all(axis=1)
        if framed.any():
            hit = _least_coalition(node[framed], members[framed], n, s)
            if best is None or hit < best:
                best = hit
    return best


def _weight(level: _Level, node: np.ndarray, members: np.ndarray, n: int) -> np.ndarray:
    """Per state, a bound on the states it grows: its s members' symbols,
    plus, while it has a free slot, the words its node's children can add."""
    return members.shape[1] + level.fan[node] * (members[:, -1] == n)


def _grow(
    level: _Level, node: np.ndarray, members: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The states one more position grows from a batch."""
    s = members.shape[1]
    syms = level.ranks[members]
    # By a member's own symbol, once per distinct symbol, where the child exists.
    fresh = syms >= 0
    for j in range(1, s):
        fresh[:, j] &= (syms[:, :j] != syms[:, j : j + 1]).all(axis=1)
    probe = np.where(fresh, node[:, None] * (n + 1) + syms, -1).ravel()
    pos = np.searchsorted(level.keys, probe)
    found = np.flatnonzero(level.keys[np.minimum(pos, len(level.keys) - 1)] == probe)
    follow_node, follow_members = pos[found], members[found // s]
    # By every child whose symbol no member carries, taking each word with
    # that symbol as the next member.
    state = np.flatnonzero(members[:, -1] == n)
    lo = level.child_lo[node[state]]
    count = level.child_lo[node[state] + 1] - lo
    child, state = _ranges(lo, count), np.repeat(state, count)
    rank = level.keys[child] % (n + 1)
    unclaimed = (syms[state] != rank[:, None]).all(axis=1)
    state, child, rank = state[unclaimed], child[unclaimed], rank[unclaimed]
    size = level.rank_lo[rank + 1] - level.rank_lo[rank]
    word = level.by_rank[_ranges(level.rank_lo[rank], size)]
    added = members[np.repeat(state, size)]
    slot = np.repeat((syms[state] >= 0).sum(axis=1), size)
    added.reshape(-1)[np.arange(len(word)) * s + slot] = word
    return (
        np.concatenate((follow_node, np.repeat(child, size))),
        np.concatenate((follow_members, added)),
    )


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], start[i]+1, ..., start[i]+count[i]-1 for each i, concatenated."""
    offset = np.repeat(start - (np.cumsum(count) - count), count)
    return np.arange(len(offset)) + offset


def _least_coalition(
    word: np.ndarray, members: np.ndarray, n: int, s: int
) -> tuple[int, tuple[int, ...]]:
    """Least (word, coalition) where each row's members are filled up to s
    with the smallest indices that are neither a member nor the word."""
    least = word == word.min()
    word, members = word[least], members[least]
    # At most s+1 indices are taken, so range(s+1) has enough free ones.
    spare = np.arange(s + 1)
    taken = np.column_stack((members, word))
    free = (spare[None, :, None] != taken[:, None, :]).all(axis=2)
    need = (members == n).sum(axis=1)
    fill = np.where(free & (np.cumsum(free, axis=1) <= need[:, None]), spare, n)
    coal = np.sort(np.column_stack((members, fill)), axis=1)[:, :s]
    first = np.lexsort(coal.T[::-1])[0]
    return int(word[0]), tuple(int(i) for i in coal[first])


# ---------------------------------------------------------------------------
# Cover-free checker (hypergraph side)
# ---------------------------------------------------------------------------


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


def is_cover_free(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact c-cover-free check on the edge family pi(code).

    Independent of `is_frameproof`: for each candidate victim edge it asks
    whether the agreement sets of s other edges can union to all positions,
    by breadth-first closure over the distinct agreement masks. Witnesses use
    the same canonical (word, coalition) order as the frameproof checker.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    words = code.words
    n = len(words)
    if n <= 1:
        return Verdict(True)
    l = code.l
    s = min(c, n - 1)
    estimate = n * n * l + n * (4**l) * s
    if estimate > budget:
        raise BudgetExceededError(
            f"cover-free check needs ~{estimate:.2e} comparisons, budget is {budget:.2e}"
        )
    full = (1 << l) - 1
    ranks = _column_ranks(words)
    # Bit p of a word's mask says it agrees with the victim at position p+1;
    # only the victim itself agrees everywhere.
    bits = np.array([1 << p for p in range(l)], dtype=np.int64 if l < 64 else object)
    for i0 in range(n):
        masks = np.sort((ranks == ranks[i0]) @ bits)
        distinct = np.concatenate((masks[:1], masks[1:][masks[1:] != masks[:-1]]))
        values = set(distinct.tolist()) - {0, full}
        if not _unions_reach(values, full, s):
            continue
        # Rare path: locate the lexicographically least covering coalition.
        edges = pi(code)
        e0 = edges[i0]
        others = [j for j in range(n) if j != i0]
        for coal_j in itertools.combinations(others, s):
            union = frozenset().union(*(edges[j] for j in coal_j))
            if e0 <= union:
                coalition = tuple(words[j] for j in coal_j)
                return Verdict(False, Witness(words[i0], coalition))
        raise AssertionError("mask closure found a cover but no coalition realizes it")
    return Verdict(True)


def _unions_reach(values: set[int], full: int, steps: int) -> bool:
    """Can at most `steps` of the masks union to `full`?

    Reusing a mask value never enlarges a union, so closure over distinct
    values is equivalent to closure over distinct edges.
    """
    reach = {0}
    for _ in range(steps):
        new = set()
        for u in reach:
            for v in values:
                uv = u | v
                if uv == full:
                    return True
                new.add(uv)
        if new <= reach:
            return False
        reach |= new
    return False


# ---------------------------------------------------------------------------
# Own subsequences / own subsets
# ---------------------------------------------------------------------------


def own_profile(code: Code, t: int) -> dict[Word, OwnCounts]:
    """Per-word counts of own t- and (t-1)-subsequences.

    A restriction x_S is own when no other codeword agrees with x on S.
    """
    if not (1 <= t <= code.l):
        raise ValueError(f"t={t} outside 1..{code.l}")
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
