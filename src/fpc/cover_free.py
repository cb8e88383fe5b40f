"""The exact cover-free checker: closure over unions of agreement masks,
independent of `fpc.frameproof`'s route to the same verdict. Pure Python;
of the commands, only a verified build loads it.
"""

from __future__ import annotations

import itertools
from operator import mul

from .core import DEFAULT_BUDGET, BudgetExceededError, Code, Verdict, Witness


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
