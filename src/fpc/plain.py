"""The pipeline's plain-Python route: the rs packing, sparsifier and
matching stages of `fpc.construct`'s numpy route over the standard
library's typed arrays, for the small points where importing numpy costs
more than the whole build. Each stage gives what its numpy counterpart
gives, so equal seeds give equal code files on either route, and, but for
the kept patterns past 64 position sets, no per-word value is held as a
Python object.

A packing here is l columns, one `array` per position, of every word's
1-based symbol there. A labeled t-subset is named by the numpy route's
global key: its combination's index times (q+1)^t plus its Horner key, its
symbols as base-(q+1) digits with the first position highest. The index of
the combination (x_0 < ... < x_(t-1)) among the t-subsets of l positions,
in `itertools.combinations` order, is C(l,t) - 1 - sum_j C(l-1-x_j, t-j),
so a key is the sum of t weights, one per (position, place) of its
members, and the keys of every word on one set of positions are t-1
elementwise sums of weight columns. Every key of a point under
`fpc.construct.PLAIN_LIMIT` is below 2^32, so each word's names are held
once, as C(l,t) consecutive entries of one `array("I")`. `rs_columns`
evaluates the polynomials of degree <= t through the `GF` tables, in
`itertools.product` order of their coefficients as `rs_packing` lays them.
`sparsify` hashes each labeled t-subset once, byte for byte as
`fpc.packing._kept` does, into one bytearray kept table over the global
keys, and reads each word's kept pattern from it; `walk` is the matching's
greedy pass, keeping a set of the kept keys of the rows it has taken. Only
`fpc.construct.plain_route` loads this module.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from array import array
from itertools import compress
from operator import add, itemgetter
from typing import Iterable, Sequence

from .candidate import SparsifierConfig
from .field import GF


def _typecode(top: int) -> str:
    """The unsigned `array` typecode of fewest bytes that holds 0..top."""
    return next(code for code in "BHIQ" if top < 1 << 8 * array(code).itemsize)


def rs_columns(l: int, t: int, q: int) -> list[array]:
    """`rs_packing(l, t, q)`'s words, in its row order, as one column of
    1-based symbols per position. The polynomial with coefficients
    c_0..c_t is c_0 + x·g(x), and x·g(x) is evaluated once per point over
    the q^t tails (c_1, ..., c_t) by Horner's rule in the field's tables;
    each c_0 then reads one row of the add table at those values. t must
    be at least 1."""
    field, code = GF(q), _typecode(q)
    # Row c of the add table, as 1-based symbols.
    rows = [[s + 1 for s in row] for row in field.add]
    # tails[j] lists coefficient c_(j+1) of every tail, in product order.
    tails = list(zip(*itertools.product(range(q), repeat=t)))
    columns = []
    for x in range(l):
        mul = field.mul_row(x)
        value = [0] * q**t
        for coefficients in reversed(tails):
            value = [field.add[mul[v]][c] for v, c in zip(value, coefficients)]
        value = [mul[v] for v in value]
        columns.append(array(code, itertools.chain.from_iterable(map(itemgetter(*value), rows))))
    return columns


def _kept_table(combos: list[tuple[int, ...]], q: int, cfg: SparsifierConfig) -> bytearray:
    """The sparsifier's kept table: byte k is 1 iff the labeled subset
    with global key k is kept. Each labeled subset on `combos` with symbols
    in 1..q, which an rs packing all holds, is hashed once, byte for byte
    as `r_membership` hashes it; at eta 0 and eta 1 every digest falls on
    one side of the threshold, so none is computed."""
    t, radix = len(combos[0]), q + 1
    span, threshold = radix**t, cfg.threshold
    if threshold >= 2**64:
        return bytearray(b"\x01") * (len(combos) * span)
    table = bytearray(len(combos) * span)
    if threshold <= 0:
        return table
    # Each subset's Horner key, in the product order of its symbols.
    places = [range(radix**e, radix ** (e + 1), radix**e) for e in reversed(range(t))]
    horner = list(map(sum, itertools.product(*places)))
    # Digests compare as bytes in the order of their big-endian values.
    keyed, below = cfg.keyed(), threshold.to_bytes(8, "big")
    for i, combo in enumerate(combos):
        records = [[struct.pack(">HI", x + 1, s) for s in range(1, radix)] for x in combo]
        for key, record in zip(horner, map(b"".join, itertools.product(*records))):
            h = keyed.copy()
            h.update(record)
            table[i * span + key] = h.digest() < below
    return table


def sparsify(
    columns: Sequence[array], q: int, t: int, cfg: SparsifierConfig
) -> tuple[array, Sequence[int], bytearray]:
    """Each word's labeled t-subsets by global key, in combination order,
    C(l,t) entries per word of one flat `array("I")`; each word's kept
    pattern, whose bit i says that its subset on combination i is kept, as
    in `fpc.packing.sparsify`; and the kept table of `_kept_table`.

    The patterns are an array of the unsigned type that holds C(l,t) bits,
    or past 64 combinations, which few plain points reach, a list of ints.
    They are ORed together eight combinations at a time, over one int that
    holds every word's bits in its own byte, from the kept bytes
    `bytes(itemgetter(*keys)(table))` of each combination's keys."""
    l, n = len(columns), len(columns[0])
    combos = list(itertools.combinations(range(l), t))
    width, span = len(combos), (q + 1) ** t
    table = _kept_table(combos, q, cfg)
    # weights[x, j] lists what each word's symbol at position x adds to the
    # key of a combination that holds x in place j; place 0 also adds the
    # C(l,t) - 1 that starts every combination's index.
    weights = {}
    for x, j in itertools.product(range(l), range(t)):
        if j <= x <= l - t + j:
            offset = ((j == 0) * (width - 1) - math.comb(l - 1 - x, t - j)) * span
            step = (q + 1) ** (t - 1 - j)
            weight = [s * step + offset for s in range(q + 1)]
            weights[x, j] = list(map(weight.__getitem__, columns[x]))
    code = _typecode((1 << width) - 1) if width <= 64 else None
    size = array(code).itemsize if code else -(-width // 8)
    # Word k's pattern takes bytes k*size..(k+1)*size-1, least significant
    # first in a list's ints, in the machine's order in an array.
    packed = bytearray(n * size)
    names = array("I", [0]) * (n * width)
    group = 0
    for i, combo in enumerate(combos):
        keys: Iterable[int] = weights[combo[0], 0]
        for j in range(1, t):
            keys = map(add, keys, weights[combo[j], j])
        keys = array("I", keys)
        names[i::width] = keys
        group |= int.from_bytes(bytes(itemgetter(*keys)(table)), "little") << i % 8
        if i % 8 == 7 or i == width - 1:
            at = i // 8 if code is None or sys.byteorder == "little" else size - 1 - i // 8
            packed[at::size] = group.to_bytes(n, "little")
            group = 0
    if code is None:
        patterns: Sequence[int] = [
            int.from_bytes(packed[k : k + size], "little") for k in range(0, n * size, size)
        ]
    else:
        patterns = array(code, packed)
    return names, patterns, table


def walk(names: array, width: int, order: Iterable[int], table: bytearray) -> list[int]:
    """The rows of `order`, in that order, that hold no kept key of a row
    taken before them: the greedy pass, maximal among the rows of `order`.
    Row k holds names[k*width : (k+1)*width], and `table` is the kept
    table. The used set holds kept keys only, so a row's other keys never
    clash."""
    used: set[int] = set()
    taken = []
    for k in order:
        row = names[k * width : k * width + width]
        if used.isdisjoint(row):
            used.update(compress(row, map(table.__getitem__, row)))
            taken.append(k)
    return taken


def symbols(columns: Sequence[array], rows: Sequence[int]) -> list[tuple[int, ...]]:
    """The 1-based symbols of the words at `rows`."""
    return list(zip(*[list(map(column.__getitem__, rows)) for column in columns]))
