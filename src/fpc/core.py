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
from typing import Iterable, Iterator, Optional, Sequence

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
# One route: each coalition's descendants grow one coordinate at a time from
# the coalition's distinct symbols there, and a partial descendant is dropped
# as soon as it is not a prefix of any codeword. The members' own prefixes
# always survive and can never end in a violation, so they are neither stored
# nor probed: only mixed paths, those that are no member's prefix, are grown.
# A mixed path starts where a member's prefix is extended by a symbol that no
# member on that prefix carries, and only from prefixes with at least two
# children in the code (a one-child prefix continues only into its members).
# Every mixed path that survives all l coordinates is a non-member codeword.
# Symbols are replaced by their rank at their position before anything enters
# numpy, so arbitrarily large symbols never meet a fixed-width integer.

# Coalitions handled per numpy pass. Larger blocks cut per-pass overhead but
# hold more mixed paths at once. Checking an 85-word (3,6,16) code, blocks of
# 2,048 and 4,096 ran the check about 15% faster than 1,024 but raised the
# 36 MB peak RSS of `fpc construct` by 0.4 and 1.5 MB over 1,024.
_COALITION_BLOCK = 1024


def is_frameproof(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact c-frameproof check.

    Enumerates every coalition of s = min(c, n-1) codewords and grows its
    mixed descendants (those that are no member's prefix) coordinate by
    coordinate, keeping only those that are still prefixes of some codeword;
    what survives all l coordinates is a codeword outside the coalition. The
    witness is the least (word, coalition) over all violations. Raises
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
    # Level k keeps at most min(s^k, distinct length-k prefixes) <= min(s^l, n)
    # mixed paths per coalition, so the work is bounded by about this. It is an
    # upper bound: the members' own prefixes are never kept, and most levels
    # hold far fewer. n - s in place of n keeps the refusal thresholds where
    # they have always been.
    estimate = math.comb(n, s) * code.l * min(n - s, s**code.l)
    if estimate > budget:
        raise BudgetExceededError(
            f"frameproof check needs ~{estimate:.2e} comparisons, "
            f"budget is {budget:.2e}"
        )
    index = _prefix_index(words)
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for block in _coalition_blocks(n, s):
        hit = _least_framed(block, *index)
        if hit is not None and (best is None or hit < best):
            best = hit
    if best is None:
        return Verdict(True)
    j, coal = best
    return Verdict(False, Witness(words[j], tuple(words[i] for i in coal)))


def _coalition_blocks(n: int, s: int) -> Iterator[np.ndarray]:
    """Every s-subset of range(n) as an increasing row, in lexicographic
    order, `_COALITION_BLOCK` rows at a time (the last block may be short).

    The (s-1)-subsets, the heads, are drawn lazily; each head is followed by
    every last index above its own, and numpy expands a batch of heads into
    their rows at once.
    """
    heads = itertools.combinations(range(n), s - 1)
    per_batch = max(1, 8 * _COALITION_BLOCK // n)  # at most 8 blocks of rows
    pending = np.zeros((0, s), dtype=np.int64)
    while batch := list(itertools.islice(heads, per_batch)):
        batch = np.array(batch, dtype=np.int64).reshape(len(batch), s - 1)
        lowest = batch[:, -1] + 1 if s > 1 else np.zeros(len(batch), dtype=np.int64)
        count = n - lowest
        last = np.arange(count.sum()) + np.repeat(lowest - (np.cumsum(count) - count), count)
        rows = np.column_stack((np.repeat(batch, count, axis=0), last))
        pending = np.concatenate((pending, rows))
        while len(pending) >= _COALITION_BLOCK:
            yield pending[:_COALITION_BLOCK]
            pending = pending[_COALITION_BLOCK:]
    if len(pending):
        yield pending


def _prefix_index(
    words: tuple[Word, ...],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Rank matrix, the sorted prefix keys of every level, each word's
    prefix ids, and which prefixes branch.

    The level-k key of a prefix is node * (n+1) + rank, where node is the id
    of its length-k prefix (0 for the empty prefix); ids are positions in the
    previous level's sorted keys, so they stay below n and the last level's
    ids are word indices. nodes[j, k] is the id of words[j]'s length-(k+1)
    prefix, and branches[k][id] says that prefix has at least two children.
    """
    n = len(words)
    ranks = _column_ranks(words)
    level_keys = []
    nodes = np.empty_like(ranks)
    node = np.zeros(n, dtype=np.int64)
    for k in range(ranks.shape[1]):
        keys, node = np.unique(node * (n + 1) + ranks[:, k], return_inverse=True)
        level_keys.append(keys)
        nodes[:, k] = node
    branches = [
        np.bincount(keys // (n + 1), minlength=len(parents)) >= 2
        for parents, keys in zip(level_keys, level_keys[1:])
    ]
    return ranks, level_keys, nodes, branches


def _column_ranks(words: tuple[Word, ...]) -> np.ndarray:
    """ranks[j, k] is the rank of words[j][k] among the symbols at position k."""
    rank_rows = []
    for col in zip(*words):
        rank = {sym: r for r, sym in enumerate(sorted(set(col)))}
        rank_rows.append([rank[sym] for sym in col])
    return np.array(rank_rows, dtype=np.int64).T


def _least_framed(
    block: np.ndarray,
    ranks: np.ndarray,
    level_keys: list[np.ndarray],
    nodes: np.ndarray,
    branches: list[np.ndarray],
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Least (word index, coalition indices) framed by a row of `block`."""
    n = len(ranks)
    s = block.shape[1]
    # Ordered pairs (m, m2) of distinct members: m's prefix, m2's symbol.
    m, m2 = np.nonzero(~np.eye(s, dtype=bool))
    coal = np.zeros(0, dtype=np.int64)  # row of each mixed path
    node = np.zeros(0, dtype=np.int64)  # its prefix id
    for k in range(1, len(level_keys)):
        syms = ranks[block, k]
        fresh = np.ones(syms.shape, dtype=bool)  # first member with its symbol
        for j in range(1, s):
            fresh[:, j] = (syms[:, :j] != syms[:, j : j + 1]).all(axis=1)
        # Mixed paths grow by each distinct coalition symbol.
        grow = fresh[coal]
        probe = (node[:, None] * (n + 1) + syms[coal])[grow]
        rows = np.broadcast_to(coal[:, None], grow.shape)[grow]
        # New mixed paths: member m's prefix, once per distinct prefix and only
        # where it branches, extended by member m2's symbol unless that gives
        # some member's own prefix.
        if branches[k - 1].any():
            pref = nodes[block, k - 1]
            head = pref * (n + 1)
            first = branches[k - 1][pref]
            for j in range(1, s):
                first[:, j] &= (pref[:, :j] != pref[:, j : j + 1]).all(axis=1)
            key = head[:, m] + syms[:, m2]
            seed = first[:, m] & fresh[:, m2]
            for j in range(s):
                seed &= key != (head[:, j] + syms[:, j])[:, None]
            row, pair = np.nonzero(seed)
            probe = np.concatenate((probe, key[row, pair]))
            rows = np.concatenate((rows, row))
        keys = level_keys[k]
        pos = np.searchsorted(keys, probe)
        found = keys[np.minimum(pos, len(keys) - 1)] == probe
        coal, node = rows[found], pos[found]
    if not len(node):
        return None
    least = np.lexsort((coal, node))[0]
    return int(node[least]), tuple(int(i) for i in block[coal[least]])


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
