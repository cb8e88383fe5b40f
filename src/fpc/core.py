"""Code primitives and exact collusion-resistance checkers.

Words are tuples of 1-based symbols from {1..q}. A code is a set of distinct
words of a common length. The two checkers, `is_frameproof` and
`is_cover_free`, decide the same property through deliberately different
routes (a search over words grouped by (position, symbol) vs. closure over
unions of the agreement bit masks of each victim's neighbours, the words
sharing a (position, symbol) with it) so they can cross-validate each other;
both are exact and refuse oversized instances instead of sampling. The
module is pure Python, so checking never loads numpy. What `construct` and
`verify` never run lives elsewhere: the own-subsequence audit and the
word/edge correspondence in `fpc.audit`, and the descendant tests of the
exhaustive references in `fpc.oracle`.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .record import Record

Word = tuple[int, ...]

DEFAULT_BUDGET = 10**10


class BudgetExceededError(Exception):
    """The exact enumeration would exceed the comparison budget."""


class ConstructionError(Exception):
    """A pipeline invariant failed; carries the diagnosis."""


def validate_word(word: Sequence[int], l: int, q: int) -> Word:
    w = tuple(word)
    if len(w) != l:
        raise ValueError(f"word {w} has length {len(w)}, expected {l}")
    for s in w:
        if not (isinstance(s, int) and not isinstance(s, bool) and 1 <= s <= q):
            raise ValueError(f"word {w} has symbol {s!r} outside 1..{q}")
    return w


class Code(Record):
    """A set of distinct length-l words over symbols {1..q}, kept sorted.
    Immutable; compares, hashes and prints by (q, l, words)."""

    __slots__ = ("q", "l", "words")

    def __init__(self, q: int, l: int, words: Iterable[Sequence[int]]):
        if q < 1 or l < 1:
            raise ValueError("q and l must be positive")
        validated = [validate_word(w, l, q) for w in words]
        if len(set(validated)) != len(validated):
            dupes = [w for w, k in Counter(validated).items() if k > 1]
            raise ValueError(f"duplicate words rejected: {dupes[:3]}")
        super().__init__(q, l, tuple(sorted(validated)))

    def __len__(self) -> int:
        return len(self.words)


class Witness(namedtuple("Witness", "word coalition")):
    """A concrete violation: `word` is a descendant of `coalition`, a tuple
    of words."""

    __slots__ = ()


class Verdict(namedtuple("Verdict", "ok witness", defaults=(None,))):
    """A checker's answer: `ok`, and the canonical `Witness` when not ok."""

    __slots__ = ()


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
# One route, victim by victim, which never enumerates coalitions. Word indices
# are grouped by (position, symbol) into sets. For each word x in sorted order,
# a search asks whether s other words can cover x's positions, a word covering
# the positions where it agrees with x:
#   - it branches over the words in the smallest group among x's uncovered
#     positions, since one of them must cover that position; members that
#     leave x the same positions uncovered make one branch, since an OR
#     does not change when a repeated question is dropped;
#   - it learns what each member covers by intersecting that group with x's
#     groups at the other uncovered positions, so a member that agrees with x
#     at the group's position only is counted, never visited;
#   - with one slot left, one lookup in a labeled-subset index says whether
#     another word agrees with x on every uncovered position. Per distinct
#     uncovered set, the index holds the symbol tuples there that two or more
#     words share; it is built lazily, with one count over the words per set,
#     and keeps no count;
#   - with no uncovered position left, spare words fill the free slots.
# A word picked by the search agrees with x where no earlier pick does, so the
# picks are distinct and never x. As n-1 >= s, spare words always suffice.
#
# The first framed word is the least framed word. Its least coalition is found
# index by index: j joins when the members so far and j still extend to a
# coalition that frames x, which the same search decides. The search need not
# be restricted to indices above j: if the members, j and a smaller index t
# frame x, then either t would have joined at its turn or that coalition sorts
# below the least one.


def is_frameproof(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact c-frameproof check.

    For each word x in sorted order, searches for s = min(c, n-1) other words
    that cover x's positions, branching over the smallest (position, symbol)
    group among the positions still uncovered, once per distinct set of
    positions its members leave uncovered, and answering the last slot from
    a labeled-subset index. The first framed word is the least one, and
    its least coalition is chosen index by index. Raises BudgetExceededError
    rather than sampling when the instance exceeds `budget` comparisons.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    words = code.words
    n, l = len(words), code.l
    if n <= 1:
        return Verdict(True)
    s = min(c, n - 1)
    # own[j][k] is the set of words that carry word j's symbol at position k;
    # the words sharing a symbol there share the one set.
    groups: list[dict[int, set[int]]] = [{} for _ in range(l)]
    own = []
    for j, w in enumerate(words):
        mine = []
        for by_symbol, sym in zip(groups, w):
            group = by_symbol.get(sym)
            if group is None:
                group = by_symbol[sym] = set()
            group.add(j)
            mine.append(group)
        own.append(mine)
    del groups
    # A branching step over a group of g words intersects it with up to l-1
    # other groups and sets a bit per member found there: l*g comparisons. A
    # search for x branches once over x's smallest group g_x and then, while
    # slots remain, over groups no larger than x's largest G_x. Its at most
    # s-1 levels of steps cost at most l*g_x*G_x^(s-2) comparisons each, and
    # it makes at most g_x*G_x^(s-2) lookups. Each distinct uncovered set the
    # lookups meet, at most one per lookup and at most 2^l - 1, costs one pass
    # over the n words. The least coalition then takes at most n searches
    # with fewer slots, for one word only, which this does not count.
    lookups = 0
    for mine in own:
        sizes = sorted(map(len, mine))
        lookups += sizes[0] * sizes[-1] ** (s - 2)
    estimate = l * (s - 1) * lookups + n * l * min(2**l - 1, lookups)
    if estimate > budget:
        raise BudgetExceededError(
            f"frameproof check needs ~{estimate:.2e} comparisons, "
            f"budget is {budget:.2e}"
        )
    index: dict[tuple[int, ...], set] = {}

    def reach(x: int, uncovered: tuple[int, ...], left: int) -> bool:
        """Can `left` words other than x cover x on `uncovered`?"""
        if left == 1:
            # On all l positions the projection is the word itself.
            get = tuple if len(uncovered) == l else itemgetter(*uncovered)
            shared = index.get(uncovered)
            if shared is None:
                counts = Counter(map(get, words))
                shared = index[uncovered] = {p for p, k in counts.items() if k > 1}
            return get(words[x]) in shared
        # Every member of the group agrees with x at one uncovered position,
        # so one uncovered position leaves nothing to another member.
        mine = own[x]
        group = min([mine[k] for k in uncovered], key=len)
        if len(uncovered) == 1:
            return len(group) > 1
        # Bit i of a member's mask says it agrees with x at others[i] too.
        # Members that leave x the same positions uncovered answer alike, so
        # each distinct mask is asked once; one that leaves none frames x. A
        # member found in no intersection agrees at the group's position only.
        others = [k for k in uncovered if mine[k] is not group]
        masks: dict[int, int] = {}
        get = masks.get
        for i, k in enumerate(others):
            bit = 1 << i
            for j in group & mine[k]:
                masks[j] = get(j, 0) | bit
        del masks[x]
        rests = set(masks.values())
        if (1 << len(others)) - 1 in rests:
            return True
        if len(masks) < len(group) - 1:
            rests.add(0)
        return any(
            reach(x, tuple(k for i, k in enumerate(others) if not m >> i & 1), left - 1)
            for m in rests
        )

    everywhere = tuple(range(l))
    for x in range(n):
        if reach(x, everywhere, s):
            break
    else:
        return Verdict(True)
    w = words[x]
    coalition: list[int] = []
    uncovered = everywhere
    for j in range(n):
        if j == x:
            continue
        left = s - len(coalition) - 1
        rest = tuple(k for k in uncovered if words[j][k] != w[k])
        if not rest or left and reach(x, rest, left):
            coalition.append(j)
            uncovered = rest
            if not left:
                break
    return Verdict(False, Witness(w, tuple(words[j] for j in coalition)))


# ---------------------------------------------------------------------------
# Cover-free checker (hypergraph side)
# ---------------------------------------------------------------------------


def is_cover_free(code: Code, c: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact c-cover-free check on the edge family pi(code).

    Independent of `is_frameproof`: for each candidate victim edge it asks
    whether the agreement sets of s other edges can union to all positions,
    by breadth-first closure over the distinct agreement masks. Only the
    victim's neighbours, the edges sharing a vertex with it, get a mask; every
    other edge agrees nowhere and has mask 0. Witnesses use the same canonical
    (word, coalition) order as the frameproof checker.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    words = code.words
    n = len(words)
    if n <= 1:
        return Verdict(True)
    l = code.l
    s = min(c, n - 1)
    # edges_at[i][k] is the set of edges through edge i's vertex at position
    # k+1; the edges through one vertex share the one set.
    vertex_edges: dict[tuple[int, int], set[int]] = {}
    edges_at = []
    for j, w in enumerate(words):
        through = []
        for vertex in enumerate(w):
            edges = vertex_edges.get(vertex)
            if edges is None:
                edges = vertex_edges[vertex] = set()
            edges.add(j)
            through.append(edges)
        edges_at.append(through)
    # A victim intersects its vertices' edge sets pairwise, each intersection
    # costing its smaller set, and sets two mask bits on each member found
    # there. Its closure unions at most 2^l reached masks with 2^l values s
    # times. A pair's smaller set is at most their mean, so the intersections
    # cost at most (l-1)/2 times the sum of squared set sizes; only past that
    # bound is the exact sum of minima taken, a sort per word.
    closure = n * (4**l) * s
    if (l - 1) * sum(len(edges) ** 2 for edges in vertex_edges.values()) + closure > budget:
        intersections = 0
        for through in edges_at:
            sizes = sorted(map(len, through))
            intersections += sum(map(mul, sizes, range(l - 1, -1, -1)))
        estimate = 2 * intersections + closure
        if estimate > budget:
            raise BudgetExceededError(
                f"cover-free check needs ~{estimate:.2e} comparisons, budget is {budget:.2e}"
            )
    del vertex_edges
    pairs = [(a, b, 1 << a | 1 << b) for a, b in itertools.combinations(range(l), 2)]
    full = (1 << l) - 1
    bits = [1 << k for k in range(l)]
    for i0, w in enumerate(words):
        # Bit k of a neighbour's mask says it agrees with the victim at
        # position k+1; only the victim itself agrees everywhere. A neighbour
        # found in two of the victim's vertex sets gets its exact mask from
        # the pairs it lies in; any other edge in the set at position k+1 has
        # the mask of bit k alone.
        through = edges_at[i0]
        masks: dict[int, int] = {}
        get = masks.get
        for a, b, ab in pairs:
            for j in through[a] & through[b]:
                masks[j] = get(j, 0) | ab
        masks.pop(i0, None)
        values = set(masks.values())
        for bit, edges in zip(bits, through):
            # An edge here found in no intersection agrees at position k+1
            # only; there is one unless masked neighbours, at most len(masks)
            # of them, fill the set.
            members = len(edges) - 1
            if members > len(masks) or members > len(masks.keys() & edges):
                values.add(bit)
        # s masks cover at most as many positions as their sizes sum to.
        widest = sorted(map(int.bit_count, values))[-s:]
        if sum(widest) < l or not _unions_reach(values, full, s):
            continue
        # Rare path: the least coalition, index by index. j joins when the
        # other masks, cut to the bits j leaves uncovered, reach them in the
        # slots left; spare edges, neighbours or not, fill the rest, as
        # n-1 >= s. Masks below j need no exclusion: a coalition completed
        # through one would sort below the least coalition, or that index
        # would have joined at its turn.
        coalition: list[int] = []
        need = full
        for j in range(n):
            if j == i0:
                continue
            mask = sum(bit for bit, edges in zip(bits, through) if j in edges)
            rest = need & ~mask
            left = s - len(coalition) - 1
            if rest:
                cut = {m & rest for m in values} - {0}
                if not (left and _unions_reach(cut, rest, left)):
                    continue
            coalition.append(j)
            need = rest
            if not left:
                return Verdict(False, Witness(w, tuple(words[j] for j in coalition)))
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
