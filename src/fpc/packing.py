"""Near-perfect transversal packings and the sparsify/select machinery of
the pipeline's numpy route.

A packing here is a set of words any two of which agree in at most t
coordinates; equivalently their labeled (t+1)-subsets are pairwise distinct.
`rs_packing` realizes the perfect case (q^(t+1) words) by evaluating all
polynomials of degree <= t over GF(q), through numpy copies of the pure
Python `fpc.field.GF` tables; `greedy_packing` is the maximal-by-inclusion
fallback for any q, the matching's own greedy pass over all q^l words at
t+1. One byte estimate, `check_matrix_bytes`, refuses either packing before
it is built. Every stage works on the packing's (n, l) word matrix of the
narrowest unsigned type that holds q, the only per-word array that grows
with l: a labeled t-subset is named by its global key, its combination's
index times radix^t plus its `_subset_keys` key, which each stage derives
from the words where it needs it. `sparsify` hashes each labeled subset
that some word holds once, into one bool kept table over the global keys,
and ORs each word's kept-pattern bits together one combination at a time;
`shared_patterns` ranks the distinct patterns, on each of which
`fpc.candidate.accept_pattern` is decided once; and `greedy_select` walks
the words in a given order, in the pipeline the one
`random.Random(seed).shuffle` gives, replayed in place by `shuffle.shuffle`,
dropping in one numpy test per block every word that holds a used kept key.
Every per-word pass runs a row chunk of `_ROW_CHUNK` rows at a time, so no
index copy, key array or row list it makes grows with n.

`fpc.construct` loads this module, and numpy with it, only for a point
above its plain route's limit, and `fpc diagnose` always. What neither
runs lives elsewhere: the pipeline's numpy-free pieces (`SparsifierConfig`
and its keyed hash, `Candidate`, `accept_pattern`) in `fpc.candidate`, the
field in `fpc.field`, the plain route in `fpc.plain`, the re-checks of a
verified build (`validate_packing`, `validate_induced`) in `fpc.validate`,
the per-word reference routes (`survived_set`, `r_membership`,
`accept_candidate`, `greedy_matching`) in `fpc.reference`, and the degree
diagnostics of `fpc diagnose` in `fpc.diagnose`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .candidate import SparsifierConfig
from .core import Word
from .extremal import position_masks
from .field import _GF_TABLE_CAP, GF, rs_applies
from .record import Record
from .shuffle import shuffle

# Most bytes that a word matrix and the per-word arrays over its labeled
# subsets may take together, as `check_matrix_bytes` estimates them, and
# most bytes of one kept table, which `sparsify` checks.
_MATRIX_BYTE_CAP = 1 << 30
# Rows that one step of a per-word pass covers: every index copy, key array
# and row list such a pass makes is at most this long, whatever n is.
_ROW_CHUNK = 1 << 14


def _row_chunks(n: int) -> Iterable[slice]:
    """0..n-1 as consecutive slices of at most `_ROW_CHUNK` rows."""
    return (slice(start, min(start + _ROW_CHUNK, n)) for start in range(0, n, _ROW_CHUNK))


# ---------------------------------------------------------------------------
# Packings
# ---------------------------------------------------------------------------


class TransversalPacking:
    """Words with pairwise coordinate agreement at most t, as the rows of an
    (n, l) matrix of 1-based symbols. `rs_packing` and `greedy_packing` give
    it the narrowest unsigned type that holds q. Packings are immutable and
    compare by identity."""

    __setattr__ = __delattr__ = Record.__setattr__

    def __init__(self, l: int, q: int, t: int, words: np.ndarray):
        self.__dict__.update(l=l, q=q, t=t, words=words)

    @functools.cached_property
    def transversals(self) -> tuple[Word, ...]:
        """The rows as tuples, built once on first access."""
        return tuple(map(tuple, self.words.tolist()))

    def __len__(self) -> int:
        return len(self.words)


def check_matrix_bytes(n: int, l: int, k: int) -> None:
    """Refuse, before it is built, an (n, l) word matrix that, with the
    per-word arrays over its labeled k-subsets, would take it past
    `_MATRIX_BYTE_CAP`. The estimate, 8l + 4·C(l, k) bytes per word, is an
    upper bound: int64 symbols and four bytes for each labeled subset. The
    arrays the pipeline builds are far narrower (one byte per symbol up to
    q = 255, and a few bytes per word besides)."""
    need = n * (8 * l + 4 * math.comb(l, k))
    if need > _MATRIX_BYTE_CAP:
        raise ValueError(
            f"{n} words of length {l}, with their labeled {k}-subsets, need an "
            f"estimated {need / 2**30:.2f} GiB, above the {_MATRIX_BYTE_CAP / 2**30:g} GiB cap"
        )


def rs_packing(l: int, t: int, q: int) -> TransversalPacking:
    """All q^(t+1) evaluation vectors of degree-<=t polynomials over GF(q).

    Distinct polynomials of degree <= t agree on at most t of the l >= t+1
    evaluation points, so the packing is perfect. Requires `rs_applies(l, q)`.
    """
    if t + 1 > l:
        raise ValueError(f"need t+1 <= l, got t={t}, l={l}")
    if not rs_applies(l, q):
        raise ValueError(
            f"no Reed-Solomon packing at l={l}, q={q}: it needs a prime power q >= l, "
            f"a prime above {_GF_TABLE_CAP}; greedy_packing works for any q"
        )
    field = GF(q)
    # In `itertools.product` order, coefficient vector i lists the base-q
    # digits of i, most significant first, and digit j is the coefficient of
    # x^j: the constant term c_0 is the slowest digit, and the rows that
    # share it form one run of q^t. So f(x) = c_0 + x·g(x), and x·g(x) is
    # evaluated once per point over the q^t grid of (c_1, ..., c_t), by
    # Horner's rule as lookups in the mul table and the raveled add table.
    # Each run of rows is then one lookup of the 2-D add table, for as many
    # runs at a time as fit in a row chunk. Symbols take the type that
    # holds q, and the grid, values and tables the one that holds q^2.
    symbol, lookup = np.min_scalar_type(q), np.min_scalar_type(q * q)
    span = q**t
    words = np.empty((q * span, l), dtype=symbol)
    # Only the rows of the l evaluation points are read from `mul`.
    mul = np.array([field.mul_row(x) for x in range(l)], dtype=lookup)
    add = np.frombuffer(b"".join(field.add), dtype=np.uintc).astype(lookup).reshape(q, q)
    grid = np.indices((q,) * t, dtype=lookup).reshape(t, span)
    runs = max(1, _ROW_CHUNK // span)
    for x in range(l):
        value = np.zeros(span, dtype=lookup)
        for c in reversed(grid):
            value = add.ravel()[mul[x][value] * q + c]
        value = mul[x][value]
        for c0 in range(0, q, runs):
            constants = np.arange(c0, min(c0 + runs, q), dtype=lookup)[:, None]
            symbols = add[constants, value]
            symbols += 1
            words[c0 * span : (c0 + len(constants)) * span, x] = symbols.ravel()
    return TransversalPacking(l=l, q=q, t=t, words=words)


def greedy_packing(l: int, t: int, q: int, seed: int) -> TransversalPacking:
    """Maximal-by-inclusion packing over a seed-shuffled word order.

    Keeps a word iff none of its labeled (t+1)-subsets was claimed before,
    which is exactly the agreement-<=t condition. No size guarantee. The
    q^l words, one matrix in `itertools.product` order that the byte cap
    must hold, are 0-based while `greedy_select` walks them, in the order
    `random.Random(seed).shuffle` gives, with every labeled (t+1)-subset
    kept, as the sparsifier keeps them at eta 0; so the kept table spans
    C(l, t+1) * q^(t+1) keys. The packing is the kept rows, sorted, shifted
    to 1-based symbols.
    """
    if t + 1 > l:
        raise ValueError(f"need t+1 <= l, got t={t}, l={l}")
    if q < 2:
        raise ValueError("q must be at least 2")
    check_matrix_bytes(q**l, l, t + 1)
    words = np.indices((q,) * l, dtype=np.min_scalar_type(q)).reshape(l, -1).T
    kept = np.ones((math.comb(l, t + 1),) + (q,) * (t + 1), dtype=bool)
    order = shuffle(np.arange(len(words), dtype=np.int32), seed)
    chosen = np.sort(greedy_select(words, kept, order))
    words = words[chosen]
    words += 1
    return TransversalPacking(l=l, q=q, t=t, words=words)


# ---------------------------------------------------------------------------
# Sparsifier and candidates
# ---------------------------------------------------------------------------


# Largest key space, per key, that `_rank` ranks by a presence table.
_DENSE_RANK_RATIO = 4


def _rank(values: np.ndarray, space: int, inverse: np.ndarray) -> np.ndarray:
    """np.unique(values, return_inverse=True) for values in 0..space-1: the
    distinct values are returned, in the dtype of `values`, and the inverse
    is written into `inverse`, whose dtype must hold their count. A key
    space of at most `_DENSE_RANK_RATIO` times len(values) is ranked by a
    presence table and its running count, a row chunk at a time, so no copy
    of `values` is sorted or widened to an index."""
    if space > _DENSE_RANK_RATIO * len(values):
        distinct, inverse[:] = np.unique(values, return_inverse=True)
        return distinct
    present = np.zeros(space, dtype=bool)
    for rows in _row_chunks(len(values)):
        present[values[rows]] = True
    rank = np.cumsum(present, dtype=inverse.dtype)
    rank -= 1  # wraps below the least value present, where no value looks
    for rows in _row_chunks(len(values)):
        rank.take(values[rows], out=inverse[rows], mode="clip")
    return np.flatnonzero(present).astype(values.dtype)


def _subset_keys(
    symbols: np.ndarray, combo: Sequence[int], radix: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Each word's labeled subset on the 0-based positions `combo` as one
    key whose base-`radix` digits are its symbols, the first position
    highest: Horner's rule in `out`, or in one new array of the signed type
    that holds radix**len(combo). Signed, because numpy promotes uint64
    with a signed symbol type to float64. When each entry of `combo` is an
    array of positions, one per combination, `out` has a column per
    combination."""
    if out is None:
        out = np.empty(len(symbols), dtype=np.min_scalar_type(-1 - radix ** len(combo)))
    out[:] = symbols[:, combo[0]]
    for p in combo[1:]:
        out *= radix
        out += symbols[:, p]
    return out


# `fpc.reference._encode_labeled`'s ">HI" record of one (position, symbol)
# pair as numpy fields.
_RECORD = (("p", ">u2"), ("s", ">u4"))


def _kept(
    combo: Sequence[int], keys: np.ndarray, radix: int, cfg: SparsifierConfig
) -> np.ndarray:
    """`fpc.reference.r_membership` of each labeled subset on the 0-based
    positions `combo` whose symbols are the base-`radix` digits of `keys`:
    the `_encode_labeled` records are built once for all keys, and one
    copy of `cfg.keyed()` runs per key. At eta 1 and eta 0 every digest
    falls on one side of the threshold, so none is computed."""
    threshold = cfg.threshold
    if threshold <= 0 or threshold >= 2**64:
        return np.full(len(keys), threshold > 0)
    fields = [(f"{kind}{j}", fmt) for j in range(len(combo)) for kind, fmt in _RECORD]
    records = np.empty(len(keys), dtype=fields)
    for j, p in enumerate(combo):
        records[f"p{j}"] = p + 1
        records[f"s{j}"] = keys // radix ** (len(combo) - 1 - j) % radix
    keyed = cfg.keyed()
    data, width = records.tobytes(), records.itemsize
    digests = []
    for i in range(0, len(data), width):
        h = keyed.copy()
        h.update(data[i : i + width])
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8") <= np.uint64(threshold - 1)


def sparsify(words, t: int, cfg: SparsifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sparsifier's kept table and each word's kept pattern. `words` is
    an (n, l) symbol matrix, used as it is when its dtype is an integer one,
    or anything np.asarray turns into one, which is converted to int64.

    kept[i, s_1, ..., s_t] says whether the sparsifier keeps the labeled
    t-subset with symbols s_1..s_t on combination i of `position_masks(l,
    t)`; radix, the table's last extent, is the largest symbol + 1. A
    subset's global key is its flat index in the table: i * radix**t plus
    its `_subset_keys` key. Each labeled subset that some word holds is
    hashed once, byte for byte as `r_membership` hashes it; the others stay
    False. Bit i of patterns[k] is set iff word k's subset on combination i
    is kept, so the pattern equals `survived_set`'s; patterns take the
    narrowest unsigned type that holds C(l, t) bits, or object when
    C(l, t) >= 64. Symbols must lie in 0..2^32-1, as `r_membership`'s
    encoding needs, and the table must fit the byte cap. The keys are built
    a row chunk at a time, twice per combination: once to mark the subsets
    present, and once to read their kept bits into the patterns."""
    symbols = np.asarray(words)
    if symbols.dtype.kind not in "iu":
        symbols = np.asarray(words, dtype=np.int64)
    if symbols.size == 0:
        return np.zeros((0,) + (1,) * t, dtype=bool), np.zeros(len(symbols), dtype=np.uint8)
    radix = int(symbols.max()) + 1
    if symbols.min() < 0 or radix > 2**32:
        raise ValueError("sparsifier symbols must lie in 0..2^32-1")
    n, l = symbols.shape
    combos = list(itertools.combinations(range(l), t))
    if len(combos) * radix**t > _MATRIX_BYTE_CAP:
        raise ValueError(
            f"the kept table of {len(combos)} x {radix}^{t} labeled subsets is above "
            f"the {_MATRIX_BYTE_CAP / 2**30:g} GiB cap"
        )
    kept = np.zeros((len(combos),) + (radix,) * t, dtype=bool)
    table = kept.reshape(len(combos), -1)
    for combo, row in zip(combos, table):
        for rows in _row_chunks(n):
            row[_subset_keys(symbols[rows], combo, radix)] = True
        present = np.flatnonzero(row)
        row[present] = _kept(combo, present, radix, cfg)
    dtype = np.min_scalar_type((1 << len(combos)) - 1) if len(combos) < 64 else object
    patterns = np.zeros(n, dtype=dtype)
    for rows in _row_chunks(n):
        block, out = symbols[rows], patterns[rows]
        for i, (combo, row) in enumerate(zip(combos, table)):
            bit = patterns.dtype.type(1 << i)
            np.bitwise_or(out, bit, out=out, where=row[_subset_keys(block, combo, radix)])
    return kept, patterns


def shared_patterns(patterns: np.ndarray, l: int, t: int) -> tuple[list[frozenset[int]], np.ndarray]:
    """The distinct kept patterns among `sparsify`'s patterns, each as one
    frozenset of position masks that every candidate with that pattern
    shares, and each word's index into that list, in the narrowest unsigned
    type that holds the most distinct patterns there can be."""
    masks = position_masks(l, t)
    space = 1 << len(masks)
    index = np.empty(len(patterns), dtype=np.min_scalar_type(min(len(patterns), space)))
    sets = [
        frozenset(m for i, m in enumerate(masks) if int(pattern) >> i & 1)
        for pattern in _rank(patterns, space, index).tolist()
    ]
    return sets, index


def flagged_rows(flags: np.ndarray, index: np.ndarray) -> np.ndarray:
    """np.flatnonzero(flags[index]) as int32, a row chunk at a time into one
    array of len(index) rows, shrunk in place to the rows found, so that
    neither an index copy of `index` nor an int64 row list is made."""
    found, count = np.empty(len(index), dtype=np.int32), 0
    for rows in _row_chunks(len(index)):
        part = np.flatnonzero(flags.take(index[rows]))
        np.add(part, rows.start, out=found[count : count + len(part)], casting="unsafe")
        count += len(part)
    found.resize(count, refcheck=False)  # no view of `found` is alive
    return found


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


# Shuffled words that `greedy_select` tests against the used ids in one
# numpy step; the survivors of a block are resolved in Python. The first
# block takes `_SELECT_BLOCK` rows, and the block doubles, up to
# `_SELECT_BLOCK_CAP`, after each block of which fewer than a quarter of the
# rows pass that test: late in the walk most rows clash, and a larger block
# spreads one numpy step over more of them, while few survivors keep the
# Python resolution short. The cap bounds the block's temporaries.
_SELECT_BLOCK = 256
_SELECT_BLOCK_CAP = 4096


def greedy_select(words: np.ndarray, kept: np.ndarray, order: np.ndarray) -> list[int]:
    """The rows of the symbol matrix `words` whose kept labeled subsets are
    pairwise disjoint, in selection order: the greedy pass over the rows
    `order` lists, in that order, which keeps each row that holds no kept
    subset a row kept before it holds. `kept` is a kept table as `sparsify`
    gives it, which names each subset by its global key. The selection is
    maximal among the rows of `order`. The pipeline walks a seed-shuffled
    order, which `shuffle` permutes in place.

    The order is walked in blocks that start at `_SELECT_BLOCK` rows and
    double, up to `_SELECT_BLOCK_CAP`, after a block of which fewer than a
    quarter of the rows pass. Each block's global keys are built from its
    words into one key buffer, and one numpy test drops every row that
    holds a key used before the block; the used table marks kept keys only,
    so a key that is not kept never clashes there. The rest are resolved in
    order against the keys taken inside the block, a key that is not kept
    read as one shared sentinel that no row takes, so the selection equals
    the sequential greedy pass whatever the block sizes. That test reads the
    block's used flags into a bool buffer whose rows are zero-padded to
    whole 8-byte words and tests each row as that many uint64 words, since
    numpy's reduction along a short axis costs more than a few whole-column
    compares."""
    t, radix = kept.ndim - 1, kept.shape[-1]
    # positions[j] lists position j of every combination, so that
    # `_subset_keys` builds all of a block's keys in one pass.
    positions = np.array(list(itertools.combinations(range(words.shape[1]), t))).T
    flat, width = kept.reshape(-1), len(kept)
    sentinel = flat.size
    # Signed, as in `_subset_keys`.
    keys = np.empty((_SELECT_BLOCK_CAP, width), dtype=np.min_scalar_type(-1 - sentinel))
    offsets = np.arange(0, sentinel, radix**t, dtype=keys.dtype)
    used = np.zeros(sentinel, dtype=bool)
    words_per_row = max(1, -(-width // 8))
    flags = np.zeros((_SELECT_BLOCK_CAP, 8 * words_per_row), dtype=bool)
    selected: list[int] = []
    start, size = 0, _SELECT_BLOCK
    while start < len(order):
        block = order[start : start + size]
        start += size
        held = _subset_keys(words[block], positions, radix, out=keys[: len(block)])
        held += offsets
        # Clip mode skips the bounds check, which these in-range keys pass;
        # the padding columns stay zero.
        used.take(held, out=flags[: len(block), :width], mode="clip")
        packed = flags[: len(block)].view(np.uint64)
        free = packed[:, 0] == 0
        for j in range(1, words_per_row):
            free &= packed[:, j] == 0
        passed, names = block[free].tolist(), held[free]
        names[~flat[names]] = sentinel
        if 4 * len(passed) < len(block) and size < _SELECT_BLOCK_CAP:
            size = min(2 * size, _SELECT_BLOCK_CAP)
        taken: set[int] = set()
        for k, row in zip(passed, names.tolist()):
            if taken.isdisjoint(row):
                taken.update(row)
                taken.discard(sentinel)
                selected.append(k)
        used[list(taken)] = True
    return selected


# Names that left this module, with the module that now holds each, loaded on
# first use: `perfbench/replica.py` still imports the reference routes and
# `validate_induced` from here, until it reads `construct`'s own stage records (ROADMAP item 4).
_MOVED = {
    **dict.fromkeys(("survived_set", "accept_candidate", "greedy_matching"), ".reference"),
    "validate_induced": ".validate",
}


def __getattr__(name: str):
    if name in _MOVED:
        return getattr(importlib.import_module(_MOVED[name], __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
