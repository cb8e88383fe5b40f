"""The pipeline's plain-Python route: the rs packing, sparsifier and
matching stages of `fpc.construct`'s numpy route over lists, tuples and
sets, for the small points where importing numpy costs more than the whole
build. Each stage gives what its numpy counterpart gives, so equal seeds
give equal code files on either route.

A packing here is l columns, one per position, each listing every word's
weighted symbol there: s·(q+1)^x for the 1-based symbol s at position x.
So a labeled subset is named by one int, the sum of its weighted symbols,
whose base-(q+1) digit x is its symbol at x, or 0 off its positions; the
names of a word's labeled subsets on one set of positions are one
elementwise sum of columns. `rs_columns` evaluates the polynomials of
degree <= t through the `GF` tables, in `itertools.product` order of their
coefficients as `rs_packing` lays them. `sparsify` hashes each labeled
t-subset once, byte for byte as `fpc.packing._kept` does, and gives each
word its names and its kept pattern; `walk` is the matching's greedy pass.
Only `fpc.construct.plain_route` loads this module.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from operator import add, itemgetter, lshift, or_
from typing import Optional, Sequence

from .candidate import SparsifierConfig
from .field import GF

Columns = list[list[int]]


def _names(columns: Columns, k: int) -> list[list[int]]:
    """Each word's labeled k-subsets by name, one list per k-subset of the
    positions, in combination order."""
    names = []
    for combo in itertools.combinations(range(len(columns)), k):
        name = columns[combo[0]]
        for p in combo[1:]:
            name = list(map(add, name, columns[p]))
        names.append(name)
    return names


def rs_columns(l: int, t: int, q: int) -> Columns:
    """`rs_packing(l, t, q)`'s words, in its row order, as columns. The
    polynomial with coefficients c_0..c_t is c_0 + x·g(x), and x·g(x) is
    evaluated once per point over the q^t tails (c_1, ..., c_t) by Horner's
    rule in the field's tables; each c_0 then reads one row of the add
    table at those values. t must be at least 1."""
    field = GF(q)
    columns = []
    # tails[j] lists coefficient c_(j+1) of every tail, in product order.
    tails = list(zip(*itertools.product(range(q), repeat=t)))
    for x in range(l):
        mul, weight = field.mul_row(x), (q + 1) ** x
        value = [0] * q**t
        for coefficients in reversed(tails):
            value = [field.add[mul[v]][c] for v, c in zip(value, coefficients)]
        at = itemgetter(*[mul[v] for v in value])
        column: list[int] = []
        for row in field.add:
            column.extend(at([(s + 1) * weight for s in row]))
        columns.append(column)
    return columns


def sparsify(
    columns: Columns, q: int, t: int, cfg: SparsifierConfig
) -> tuple[list[tuple[int, ...]], list[int], Optional[set[int]]]:
    """Each word's labeled t-subsets by name, one per position combination
    in combination order; each word's kept pattern, whose bit i says that
    its subset on combination i is kept, as in `fpc.packing.sparsify`; and
    the names of the kept subsets, or None when all are kept. Each labeled
    t-subset with symbols in 1..q, which an rs packing all holds, is hashed
    once, byte for byte as `r_membership` hashes it; at eta 0 and eta 1
    every digest falls on one side of the threshold, so none is computed.
    The patterns are ORed together a combination at a time over one int
    per combination that holds every word's bit in its own 64-bit lane, 64
    combinations at a time."""
    names, n = _names(columns, t), len(columns[0])
    threshold, radix = cfg.threshold, q + 1
    if threshold >= 2**64:
        return list(zip(*names)), [(1 << len(names)) - 1] * n, None
    kept: set[int] = set()
    if threshold > 0:
        # Digests compare as bytes in the order of their big-endian values.
        keyed, below = cfg.keyed(), threshold.to_bytes(8, "big")
        for combo in itertools.combinations(range(len(columns)), t):
            weighted = [range(radix**x, radix ** (x + 1), radix**x) for x in combo]
            records = [[struct.pack(">HI", x + 1, s) for s in range(1, radix)] for x in combo]
            subsets = itertools.product(*weighted), itertools.product(*records)
            for name, record in zip(map(sum, subsets[0]), map(b"".join, subsets[1])):
                h = keyed.copy()
                h.update(record)
                if h.digest() < below:
                    kept.add(name)
    patterns = [0] * n
    for start in range(0, len(names), 64):
        lanes = 0
        for i, name in enumerate(names[start : start + 64]):
            bits = array("Q", map(kept.__contains__, name)).tobytes()
            lanes |= int.from_bytes(bits, sys.byteorder) << i
        group = memoryview(lanes.to_bytes(8 * n, sys.byteorder)).cast("Q").tolist()
        patterns = list(map(or_, patterns, map(lshift, group, itertools.repeat(start))))
    return list(zip(*names)), patterns, kept


def walk(
    rows: Sequence[tuple[int, ...]], order: Sequence[int], kept: Optional[set[int]]
) -> list[int]:
    """The rows of `order`, in that order, that hold no kept name of a row
    taken before them: the greedy pass, maximal among the rows of `order`.
    rows[k] holds row k's names, and `kept` the kept names, or None when
    all are kept. The used set holds kept names only, so a row's other
    names never clash."""
    used: set[int] = set()
    taken = []
    for k in order:
        row = rows[k]
        if used.isdisjoint(row):
            used.update(row if kept is None else kept.intersection(row))
            taken.append(k)
    return taken


def symbols(columns: Columns, q: int, rows: Sequence[int]) -> list[tuple[int, ...]]:
    """The 1-based symbols of the words at `rows`."""
    digits = [
        [v // (q + 1) ** x for v in map(column.__getitem__, rows)]
        for x, column in enumerate(columns)
    ]
    return list(zip(*digits))
