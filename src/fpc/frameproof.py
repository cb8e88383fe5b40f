"""The exact frameproof checker: a search over words grouped by (position,
symbol), independent of `fpc.cover_free`'s route to the same verdict. Pure
Python; only `fpc verify` and a verified build load it.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .core import DEFAULT_BUDGET, BudgetExceededError, Code, Verdict, Witness

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

    # `reach` holds itself, and with it `own` and `index`, through its
    # closure; unbinding it on every way out breaks that cycle, so they are
    # freed on return, not by the collector.
    try:
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
    finally:
        del reach
