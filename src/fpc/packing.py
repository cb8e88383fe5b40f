"""Near-perfect transversal packings and the sparsify/select machinery.

A packing here is a set of words any two of which agree in at most t
coordinates; equivalently their labeled (t+1)-subsets are pairwise distinct.
`rs_packing` realizes the perfect case (q^(t+1) words) by evaluating all
polynomials of degree <= t over GF(q), whose add and mul are q x q lookup
tables for every prime power q; `greedy_packing` is the
maximal-by-inclusion fallback for any q. On top of a packing, a pseudorandom
sparsifier thins the labeled t-subsets, a candidate is accepted when its
missing pattern has no lam+1 pairwise disjoint members, and one seed-shuffled
greedy pass selects candidates with pairwise disjoint surviving subsets.
A packing holds its words as one (n, l) matrix, `words`, of the narrowest
unsigned type that holds q (uint8 up to q = 255), and every stage works on
it: `sparsify`, the one ranker of labeled t-subsets, hashes each distinct
one once and gives every word its kept pattern as one int and an id per kept
labeled subset, each array in the narrowest type its bound allows;
acceptance is decided once per distinct pattern; the greedy pass walks the
shuffled words in blocks, dropping in one numpy test every word that holds
an id already used. The order is the one
`random.Random(seed).shuffle` gives, replayed in numpy by
`shuffle.shuffled_range` with no Python step per word. Only the selected
words become tuples and `Candidate` objects. A candidate carries only its
transversal and the position pattern of its surviving subsets; in the
pipeline that is the one frozenset `shared_patterns` gives each distinct
pattern, so candidates with equal patterns share it. Validation counts the
words' projections onto each set of positions instead. `survived_set` and
`r_membership` are the per-word reference route to the same pattern.
`greedy_matching` takes its ids from `sparsify` at eta 0.
`degree_diagnostics` counts every labeled t-subset over 1..q exactly from
the words' per-combination keys, and finds the candidates whose pattern is
a relabeled copy of the target family by membership in the cached image
set, `pattern_images`, once per distinct pattern. Words that agree in at
most t positions give its largest codegree without counting pairs.

The sparsifier's hash is `blake2b` from CPython's built-in `_blake2`, the
object `hashlib.blake2b` is, imported directly so that no OpenSSL is loaded.
Supported interpreters must ship `_blake2`; on a build without it this
module does not import.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from collections import Counter
from operator import itemgetter
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

# hashlib's own blake2b; `import hashlib` would also load OpenSSL's _hashlib.
from _blake2 import blake2b

import numpy as np

from .core import Word
from .extremal import PositionFamily, complete_family, matching_number, position_masks
from .record import Record
from .shuffle import shuffled_range

LabeledSubset = tuple[tuple[int, int], ...]  # ((position, symbol), ...), 1-based

# GF refuses prime powers of order above this; primes pass at any order. No
# measurement chose 512. A prime power's mul table is reduced from a
# q x q x (2k - 1) array, 34 MB at q = 512.
_GF_TABLE_CAP = 512
# Largest l whose l! position relabelings `pattern_images` enumerates.
_IMAGE_L_CAP = 9
# Most words, q^l, that `greedy_packing` enumerates.
_GREEDY_WORD_CAP = 2_000_000
# Most bytes that the word and id matrices, the pipeline's largest arrays,
# may take together, as `check_matrix_bytes` estimates them: an upper bound
# at int64 symbols and int32 ids, above what the narrowed arrays take.
_MATRIX_BYTE_CAP = 1 << 30


# ---------------------------------------------------------------------------
# Finite field arithmetic
# ---------------------------------------------------------------------------


class NotPrimePowerError(ValueError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePowerError(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, k


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """The remainder of num / den over GF(p), lowest coefficient first, with
    no leading zeros (zero is [0])."""
    num = num[:]
    deg_d = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for shift in range(len(num) - deg_d - 1, -1, -1):
        coef = num[shift + deg_d] * inv_lead % p
        if coef:
            for j, dj in enumerate(den):
                num[shift + j] = (num[shift + j] - coef * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            if _poly_mod(f, g, p) == [0]:
                return False
    return True


class GF:
    """GF(q) as two q x q tables, `add` and `mul`, over the elements 0..q-1.

    Element i is the polynomial over GF(p) whose coefficients are the base-p
    digits of i, lowest digit first. Products are reduced modulo the first
    monic irreducible of degree k in `itertools.product` order. A prime q is
    the case k = 1, whose modulus is x, so its tables are arithmetic mod p.
    """

    def __init__(self, q: int):
        self.q = q
        self.p, self.k = p, k = _prime_power(q)
        if k > 1 and q > _GF_TABLE_CAP:
            raise ValueError(
                f"table-backed GF({q}) capped at order {_GF_TABLE_CAP}; use a prime q"
            )
        modulus = self._find_irreducible()
        place = p ** np.arange(k)
        digits = np.arange(q)[:, None] // place % p
        self.add = (digits[:, None] + digits[None, :]) % p @ place
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i : i + k] += digits[:, None, i, None] * digits[None, :, :]
        # x^d = x^(d-k) * (x^k - modulus) mod modulus, highest degree first.
        for d in range(2 * k - 2, k - 1, -1):
            prod[:, :, d - k : d] -= prod[:, :, d, None] % p * modulus[:k]
        self.mul = prod[:, :, :k] % p @ place

    def _find_irreducible(self) -> list[int]:
        for low in itertools.product(range(self.p), repeat=self.k):
            f = list(low) + [1]
            if _is_irreducible(f, self.p):
                return f
        raise AssertionError("no irreducible polynomial found")


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


def check_matrix_bytes(l: int, t: int, q: int) -> None:
    """Refuse, before any packing exists, a build whose word and id matrices
    would pass `_MATRIX_BYTE_CAP` at q^(t+1) words, the most any packing
    has by the Singleton bound. The estimate is an upper bound computed at
    int64 symbols and int32 ids, 8l + 4·C(l, t) bytes per word; the
    matrices the pipeline builds are narrower (one byte per symbol up to
    q = 255, and ids of the type their count needs)."""
    need = q ** (t + 1) * (8 * l + 4 * math.comb(l, t))
    if need > _MATRIX_BYTE_CAP:
        raise ValueError(
            f"the word and id matrices at (l, t, q) = ({l}, {t}, {q}) need an estimated "
            f"{need / 2**30:.2f} GiB, above the {_MATRIX_BYTE_CAP / 2**30:g} GiB cap"
        )


def rs_applies(l: int, q: int) -> bool:
    """Whether `rs_packing` builds words of length l over q symbols: q is a
    prime power of at least l, and a prime if above `_GF_TABLE_CAP`."""
    try:
        _p, k = _prime_power(q)
    except NotPrimePowerError:
        return False
    return q >= l and (k == 1 or q <= _GF_TABLE_CAP)


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
    # digits of i, most significant first; coeffs[0] is the constant term.
    # Horner's rule evaluates all vectors at once, one point at a time, in
    # one accumulator: mul[x] is the row of products with x, mul being
    # symmetric, and a + c is entry a*q + c of the raveled add table. Both
    # takes write in place; clip mode, a no-op on these in-range indices,
    # keeps numpy from buffering the output. Symbols take the type that
    # holds q, and the accumulator and tables the one that holds q^2.
    symbol, lookup = np.min_scalar_type(q), np.min_scalar_type(q * q)
    coeffs = np.indices((q,) * (t + 1), dtype=symbol).reshape(t + 1, -1)
    words = np.empty((coeffs.shape[1], l), dtype=symbol)
    mul, add = field.mul.astype(lookup), field.add.astype(lookup).ravel()
    acc, index = np.empty((2, coeffs.shape[1]), dtype=lookup)
    for x in range(l):
        acc[:] = coeffs[t]
        for c in reversed(coeffs[:t]):
            mul[x].take(acc, out=index, mode="clip")
            index *= q
            index += c
            add.take(index, out=acc, mode="clip")
        acc += 1
        words[:, x] = acc
    return TransversalPacking(l=l, q=q, t=t, words=words)


def greedy_packing(l: int, t: int, q: int, seed: int) -> TransversalPacking:
    """Maximal-by-inclusion packing over a seed-shuffled word order.

    Keeps a word iff none of its labeled (t+1)-subsets was claimed before,
    which is exactly the agreement-<=t condition. No size guarantee.
    """
    if t + 1 > l:
        raise ValueError(f"need t+1 <= l, got t={t}, l={l}")
    if q < 2:
        raise ValueError("q must be at least 2")
    if q**l > _GREEDY_WORD_CAP:
        raise ValueError(
            f"greedy packing enumerates q^l = {q**l} words, above cap {_GREEDY_WORD_CAP}"
        )
    rng = random.Random(seed)
    words = list(itertools.product(range(1, q + 1), repeat=l))
    rng.shuffle(words)
    claimed: set[LabeledSubset] = set()
    kept = []
    for w in words:
        shadows = _labeled_subsets(w, t + 1)
        if all(s not in claimed for s in shadows):
            kept.append(w)
            claimed.update(shadows)
    matrix = np.array(sorted(kept), dtype=np.min_scalar_type(q)).reshape(len(kept), l)
    return TransversalPacking(l=l, q=q, t=t, words=matrix)


def _labeled_subsets(w: Word, k: int) -> list[LabeledSubset]:
    """The labeled k-subsets of w, in combination order."""
    return list(itertools.combinations([(p + 1, s) for p, s in enumerate(w)], k))


def _shadow(w: Word, k: int) -> Iterable[tuple[LabeledSubset, int]]:
    """Each labeled k-subset of w with its position bitmask."""
    return zip(_labeled_subsets(w, k), position_masks(len(w), k))


def _agreement(u: Word, v: Word) -> int:
    return sum(a == b for a, b in zip(u, v))


def validate_packing(packing, t: Optional[int] = None) -> bool:
    """True iff every pair of distinct words agrees in at most t coordinates."""
    if isinstance(packing, TransversalPacking):
        words = packing.transversals
        t = packing.t if t is None else t
    else:
        words = tuple(map(tuple, packing))
        if t is None:
            raise ValueError("t is required for a bare word collection")
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            if _agreement(u, v) > t:
                return False
    return True


def shadows_disjoint(words: Iterable[Word], t: int) -> bool:
    """Equivalent packing criterion: labeled (t+1)-subsets never repeat, that
    is, on each set of t+1 positions the words' projections are distinct."""
    words = list(words)
    if not words:
        return True
    for combo in itertools.combinations(range(len(words[0])), t + 1):
        if len(set(map(itemgetter(*combo), words))) < len(words):
            return False
    return True


# ---------------------------------------------------------------------------
# Sparsifier and candidates
# ---------------------------------------------------------------------------


class SparsifierConfig(Record):
    """Keep each labeled t-subset independently with probability 1 - eta."""

    __slots__ = ("eta", "seed")

    def __init__(self, eta: float, seed: int):
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"eta={eta} outside [0, 1]")
        super().__init__(eta, seed)


class Candidate(NamedTuple):
    """A transversal U and its kept pattern: the t-bit position masks of the
    labeled t-subsets of U that the sparsifier keeps. The pipeline's
    candidates take their patterns from `shared_patterns`, so those with
    equal patterns share one frozenset. `survived` derives the subsets from
    U's t-shadow on each access; derive them once per use."""

    transversal: Word
    pattern: frozenset[int]

    @property
    def survived(self) -> frozenset[LabeledSubset]:
        t = next(iter(self.pattern), 0).bit_count()
        return frozenset(
            a for a, mask in _shadow(self.transversal, t) if mask in self.pattern
        )


def _encode_labeled(a: LabeledSubset) -> bytes:
    pairs = sorted(a)
    return b"".join(struct.pack(">HI", pos, sym) for pos, sym in pairs)


def r_membership(a: LabeledSubset, cfg: SparsifierConfig) -> bool:
    """Deterministic membership in the sparsified subset.

    A keyed hash of the canonical encoding stands in for the random set, so
    membership is O(1) memory and bit-reproducible for a given seed. The
    threshold is 2^64 at eta = 0 and 0 at eta = 1, so both ends are exact.
    """
    key = struct.pack(">Q", cfg.seed & 0xFFFFFFFFFFFFFFFF)
    digest = blake2b(_encode_labeled(a), key=key, digest_size=8).digest()
    u = int.from_bytes(digest, "big")
    return u < int((1.0 - cfg.eta) * 2.0**64)


def survived_set(U: Word, t: int, cfg: SparsifierConfig) -> Candidate:
    """U with the position bitmasks of its labeled t-subsets that the
    sparsifier keeps."""
    pattern = [mask for a, mask in _shadow(U, t) if r_membership(a, cfg)]
    return Candidate(tuple(U), frozenset(pattern))


# The labeled-subset id `sparsify` gives every slot whose subset is not kept.
NOT_KEPT = 0


# Largest key space, per key, that `_rank` ranks by a presence table.
_DENSE_RANK_RATIO = 4


def _rank(values: np.ndarray, space: int, inverse: np.ndarray) -> np.ndarray:
    """np.unique(values, return_inverse=True) for values in 0..space-1: the
    distinct values are returned, in the dtype of `values`, and the inverse
    is written into `inverse`, whose dtype must hold their count. A key
    space of at most `_DENSE_RANK_RATIO` times len(values) is ranked by a
    presence table and its running count, so no copy of `values` is
    sorted."""
    if space > _DENSE_RANK_RATIO * len(values):
        distinct, inverse[:] = np.unique(values, return_inverse=True)
        return distinct
    present = np.zeros(space, dtype=bool)
    present[values] = True
    rank = np.cumsum(present, dtype=inverse.dtype)
    rank -= 1  # wraps below the least value present, where no value looks
    rank.take(values, out=inverse, mode="clip")
    return np.flatnonzero(present).astype(values.dtype)


def _key_buffer(n: int, radix: int, k: int) -> np.ndarray:
    """An empty array for n `_subset_keys` keys on k positions: int32 when
    radix**k < 2^31, int64 otherwise."""
    return np.empty(n, dtype=np.int32 if radix**k < 2**31 else np.int64)


def _subset_keys(
    symbols: np.ndarray, combo: Sequence[int], radix: int, keys: np.ndarray
) -> np.ndarray:
    """Each word's labeled subset on the 0-based positions `combo` as one
    key whose base-`radix` digits are its symbols, the first position
    lowest, written into `keys` from `_key_buffer` and returned: Horner's
    rule from the last position down, in one array."""
    keys[:] = symbols[:, combo[-1]]
    for p in reversed(combo[:-1]):
        keys *= radix
        keys += symbols[:, p]
    return keys


# `_encode_labeled`'s ">HI" record of one (position, symbol) pair as numpy fields.
_RECORD = (("p", ">u2"), ("s", ">u4"))


def _kept(
    combo: Sequence[int], keys: np.ndarray, radix: int, cfg: SparsifierConfig
) -> np.ndarray:
    """`r_membership` of each labeled subset on the 0-based positions `combo`
    whose symbols are the base-`radix` digits of `keys`: the hash key, the
    threshold and the `_encode_labeled` records are built once for all keys,
    and one keyed blake2b runs per key. At eta 1 and eta 0 every digest
    falls on one side of the threshold, so none is computed."""
    threshold = int((1.0 - cfg.eta) * 2.0**64)
    if threshold <= 0 or threshold >= 2**64:
        return np.full(len(keys), threshold > 0)
    fields = [(f"{kind}{j}", fmt) for j in range(len(combo)) for kind, fmt in _RECORD]
    records = np.empty(len(keys), dtype=fields)
    for j, p in enumerate(combo):
        records[f"p{j}"] = p + 1
        records[f"s{j}"] = keys // radix**j % radix
    # Copying a keyed state skips re-hashing the key block for every record.
    key = struct.pack(">Q", cfg.seed & 0xFFFFFFFFFFFFFFFF)
    keyed = blake2b(key=key, digest_size=8)
    data, width = records.tobytes(), records.itemsize
    digests = []
    for i in range(0, len(data), width):
        h = keyed.copy()
        h.update(data[i : i + width])
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8") <= np.uint64(threshold - 1)


def sparsify(words, t: int, cfg: SparsifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each word's kept pattern as an int, and the ids of its kept labeled
    t-subsets. `words` is an (n, l) symbol matrix, used as it is when its
    dtype is an integer one, or anything np.asarray turns into one, which is
    converted to int64.

    Bit i of a pattern is set iff the sparsifier keeps the word's labeled
    t-subset on combination i of `position_masks(l, t)`; the patterns equal
    `survived_set`'s. ids[k, i] is that subset's id when it is kept and
    NOT_KEPT otherwise; equal subsets share an id. Each distinct labeled
    subset is hashed once, byte for byte as `r_membership` hashes it.
    Symbols must lie in 0..2^32-1, as `r_membership`'s encoding needs.
    Patterns take the narrowest unsigned type that holds C(l, t) bits, or
    object when C(l, t) >= 64; ids the one that holds C(l, t) times the
    most distinct labeled subsets on one combination, min(n, radix**t).
    One keys buffer and one inverse buffer serve every combination."""
    symbols = np.asarray(words)
    if symbols.dtype.kind not in "iu":
        symbols = np.asarray(words, dtype=np.int64)
    if symbols.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int32)
    radix = int(symbols.max()) + 1
    if symbols.min() < 0 or radix > 2**32:
        raise ValueError("sparsifier symbols must lie in 0..2^32-1")
    if radix**t >= 2**63:
        raise ValueError(f"symbol keys need radix**t below 2^63; got radix {radix}, t = {t}")
    n, l = symbols.shape
    slots = math.comb(l, t)
    distinct = min(n, radix**t)
    patterns = np.zeros(n, dtype=np.min_scalar_type((1 << slots) - 1) if slots < 64 else object)
    ids = np.empty((n, slots), dtype=np.min_scalar_type(slots * distinct))
    buffer, inverse = _key_buffer(n, radix, t), np.empty(n, np.min_scalar_type(distinct))
    # Ids run on from NOT_KEPT + 1 across the combinations, so distinct
    # labeled subsets get distinct ids.
    first = NOT_KEPT + 1
    for i, combo in enumerate(itertools.combinations(range(l), t)):
        keys = _rank(_subset_keys(symbols, combo, radix, buffer), radix**t, inverse)
        kept = _kept(combo, keys, radix, cfg)
        key_ids = np.arange(first, first + len(keys), dtype=ids.dtype)
        ids[:, i] = np.where(kept, key_ids, NOT_KEPT)[inverse]
        np.bitwise_or(patterns, patterns.dtype.type(1 << i), out=patterns, where=kept[inverse])
        first += len(keys)
    return patterns, ids


def shared_patterns(
    patterns: np.ndarray, l: int, t: int
) -> tuple[list[frozenset[int]], np.ndarray]:
    """The distinct patterns of `sparsify`, each as one frozenset of position
    masks that every candidate with that pattern shares, and each word's
    index into that list, in the narrowest unsigned type that holds the
    most distinct patterns there can be."""
    masks = position_masks(l, t)
    space = 1 << len(masks)
    ids = np.empty(len(patterns), dtype=np.min_scalar_type(min(len(patterns), space)))
    distinct = _rank(patterns, space, ids)
    sets = [
        frozenset(m for i, m in enumerate(masks) if int(pattern) >> i & 1)
        for pattern in distinct.tolist()
    ]
    return sets, ids


def accept_pattern(pattern: frozenset[int], family: PositionFamily, lam: int) -> bool:
    """Accept a kept pattern iff its missing pattern has no lam+1 pairwise
    disjoint members, the exact condition the cover-free argument consumes."""
    # The missing pattern cannot be feasible once it outgrows the largest
    # no-(lam+1)-matching family, whose complement is `family`. Rejecting
    # early is always safe; accepting is decided exactly below.
    if len(pattern) < len(family.edges):
        return False
    l, t = family.l, family.t
    missing = PositionFamily(l, t, complete_family(l, t).edges - pattern)
    return matching_number(missing) <= lam


def accept_candidate(
    cand: Candidate,
    mode: Literal["relaxed"],
    family: PositionFamily,
    lam: int,
) -> bool:
    """`accept_pattern` on the candidate's pattern. `mode` takes one value,
    "relaxed", and stays in the signature because callers that pass it,
    `perfbench/replica.py` among them, pin it; any other value raises
    ValueError."""
    if mode != "relaxed":
        raise ValueError(f"unknown mode {mode!r}")
    return accept_pattern(cand.pattern, family, lam)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def greedy_matching(
    candidates: Sequence[Candidate],
    seed: int,
    strategy: Literal["greedy"] = "greedy",
) -> list[Candidate]:
    """Select candidates with pairwise disjoint survived sets: `greedy_select`
    over the ids `sparsify` gives every labeled subset at eta 0, with each
    slot the candidate's pattern lacks set to NOT_KEPT.
    `strategy` takes one value, "greedy", and stays in the signature because
    callers that pass it, `perfbench/replica.py` among them, pin it; any
    other value raises ValueError."""
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")
    if not candidates:
        return []
    symbols = np.array([cand.transversal for cand in candidates], dtype=np.int64)
    distinct: dict[frozenset[int], int] = {}
    pattern_ids = [distinct.setdefault(cand.pattern, len(distinct)) for cand in candidates]
    t = next((mask.bit_count() for pattern in distinct for mask in pattern), 0)
    if t:
        masks = position_masks(symbols.shape[1], t)
        lacks = np.array([[m not in p for m in masks] for p in distinct], dtype=bool)
        ids = sparsify(symbols, t, SparsifierConfig(eta=0.0, seed=0))[1]
        ids[lacks[pattern_ids]] = NOT_KEPT
    else:
        ids = np.zeros((len(candidates), 0), dtype=np.int32)
    chosen = greedy_select(ids, np.arange(len(candidates)), seed)
    return [candidates[k] for k in chosen]


# Shuffled words that `greedy_select` tests against the used ids in one
# numpy step; the survivors of a block are resolved in Python. Blocks of 256
# to 4,096 timed within 5% of each other at (2,4,31), (2,4,47) and
# (2,4,101); at (3,6,16) 4,096 was twice as slow as 256.
_SELECT_BLOCK = 256


def greedy_select(ids: np.ndarray, rows: np.ndarray, seed: int) -> list[int]:
    """The rows of `ids` whose kept labeled subsets are pairwise disjoint,
    in selection order, taken from `rows` by walking a seed-shuffled order;
    `ids` is `sparsify`'s id matrix. The selection is maximal among `rows`
    and depends only on the inputs and the seed. The order is the one
    `random.Random(seed).shuffle` gives a list of len(rows) items, replayed
    by `shuffled_range`.

    The order is walked in blocks of `_SELECT_BLOCK` rows. One numpy test
    drops every row that holds an id used before the block; the rest are
    resolved in order against the ids taken inside the block, so the
    selection equals the sequential greedy pass."""
    order, rows = shuffled_range(len(rows), seed), np.asarray(rows)
    used = np.zeros(int(ids.max(initial=NOT_KEPT)) + 1, dtype=bool)
    selected: list[int] = []
    for start in range(0, len(order), _SELECT_BLOCK):
        block = rows[order[start : start + _SELECT_BLOCK]]
        held = ids[block]
        free = ~used[held].any(axis=1)
        taken: set[int] = set()
        for k, row in zip(block[free].tolist(), held[free].tolist()):
            if taken.isdisjoint(row):
                taken.update(row)
                taken.discard(NOT_KEPT)
                selected.append(k)
        used[list(taken)] = True
    return selected


def validate_induced(selected: Sequence[Candidate], t: int) -> bool:
    """Re-check the induced-packing conditions without trusting the matcher:
    pairwise agreement <= t, shared t-agreements in neither survived set, and
    edge-disjoint survived sets. Each is a count of the words' projections
    onto one set of positions, so no `sparsify` id is trusted. Words agree on
    more than t coordinates iff their projections onto some t+1 positions
    coincide. Granted that, two t-shadows meet only in the one t-subset where
    their words agree, and a candidate's survived set lies in its own
    t-shadow, so the middle condition says that a candidate whose pattern
    holds a t-set of positions is the only word with its projection there.
    That count of 1 also rules out a labeled t-subset that survives twice,
    since both holders would project onto it. A pattern mask that is not a
    t-set of positions fails. t must be at least 1."""
    if t < 1:
        raise ValueError(f"t={t} below 1")
    words = [c.transversal for c in selected]
    if not words:
        return True
    if not shadows_disjoint(words, t):
        return False
    l = len(words[0])
    masks = position_masks(l, t)
    if not set().union(*{c.pattern for c in selected}) <= set(masks):
        return False
    for combo, mask in zip(itertools.combinations(range(l), t), masks):
        get = itemgetter(*combo)
        counts = Counter(map(get, words))
        for c, w in zip(selected, words):
            if mask in c.pattern and counts[get(w)] > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Degree diagnostics
# ---------------------------------------------------------------------------


def _agree_at_most(words: np.ndarray, t: int, radix: int) -> bool:
    """True iff no two rows of `words` agree in more than t positions, that
    is, iff on every t+1 positions their keys in base `radix` are distinct.
    The keys are counted in a presence table, or by np.unique when the key
    space is too sparse for one, by `_rank`'s rule. False, without a look,
    when the keys would not fit an int64."""
    n, l = words.shape
    space = radix ** (t + 1)
    if space >= 2**63:
        return False
    buffer = _key_buffer(n, radix, t + 1)
    for combo in itertools.combinations(range(l), t + 1):
        keys = _subset_keys(words, combo, radix, buffer)
        if space > _DENSE_RANK_RATIO * n:
            distinct = len(np.unique(keys))
        else:
            present = np.zeros(space, dtype=bool)
            present[keys] = True
            distinct = np.count_nonzero(present)
        if distinct < n:
            return False
    return True


class DegreeDiagnostics(NamedTuple):
    dP_max: int
    dP_min: int
    frac_high_degree: float
    dH_mean: float
    expected_D: float
    lambda_F: int
    max_codegree: int


def check_image_cap(l: int) -> None:
    """Refuse, before any work, an l above `_IMAGE_L_CAP`."""
    if l > _IMAGE_L_CAP:
        raise ValueError(
            f"image enumeration is factorial in l; capped at l = {_IMAGE_L_CAP}"
        )


@functools.cache
def pattern_images(family: PositionFamily) -> frozenset[frozenset[int]]:
    """The distinct vertex-relabeled images of the family's edge set, from
    all l! relabelings; cached, since the family is immutable. A pattern is
    a relabeled copy of the family iff it is a member."""
    check_image_cap(family.l)
    return frozenset(
        frozenset(
            sum(1 << perm[p] for p in range(family.l) if e >> p & 1)
            for e in family.edges
        )
        for perm in itertools.permutations(range(family.l))
    )


def embeddings_per_edge(family: PositionFamily) -> int:
    """Images of the family through one fixed edge; constant over edges
    because relabelings act transitively on position t-subsets."""
    n_img = len(pattern_images(family))
    total = n_img * len(family.edges)
    slots = math.comb(family.l, family.t)
    lam_f, rem = divmod(total, slots)
    assert rem == 0
    return lam_f


def degree_diagnostics(
    packing: TransversalPacking,
    cfg: SparsifierConfig,
    family: PositionFamily,
) -> DegreeDiagnostics:
    """Empirical degree facts for the candidate hypergraph over a packing.

    Counts, exactly, over every labeled t-subset with symbols in 1..q: the
    transversal-degree extremes, the fraction meeting the near-regularity
    threshold, and the mean candidate degree of sparsifier survivors against
    its predicted value. Also reports the largest pairwise candidate
    codegree.
    """
    l, q, t = packing.l, packing.q, packing.t
    if (family.l, family.t) != (l, t):
        raise ValueError("family must be t-uniform on the packing's positions")
    lam_f = embeddings_per_edge(family)

    patterns, ids = sparsify(packing.words, t, cfg)
    sets, pattern_ids = shared_patterns(patterns, l, t)
    images = pattern_images(family)
    copies = np.array([p in images for p in sets], dtype=bool)[pattern_ids]
    del patterns, pattern_ids

    # Per labeled subset on the q^t grid of each combination: its degree in
    # the packing, its degree among the copies, and whether the sparsifier
    # keeps it. Only kept subsets enter dH_mean, and a copy that holds a kept
    # subset keeps it. Degrees are counts of the words' keys.
    combos = list(itertools.combinations(range(l), t))
    radix = max(q, int(packing.words.max())) + 1
    grid_keys = (np.indices((q,) * t).reshape(t, -1).T + 1) @ radix ** np.arange(t)
    degrees, dH, in_r = [], [], []
    buffer = _key_buffer(len(packing), radix, t)
    for combo in combos:
        keys = _subset_keys(packing.words, combo, radix, buffer)
        degrees.append(np.bincount(keys, minlength=radix**t)[grid_keys])
        dH.append(np.bincount(keys[copies], minlength=radix**t)[grid_keys])
        in_r.append(_kept(combo, grid_keys, radix, cfg))
    del keys, buffer
    degrees, dH, in_r = (np.concatenate(counts) for counts in (degrees, dH, in_r))

    delta = max(0.0, 1.0 - len(packing) / q ** (t + 1))
    threshold = (1.0 - math.sqrt(delta)) * q
    frac_high = int(np.count_nonzero(degrees >= threshold)) / len(degrees)
    n_in_r = int(np.count_nonzero(in_r))
    dh_mean = int(dH[in_r].sum()) / n_in_r if n_in_r else 0.0

    n_edges = len(family.edges)
    p = (
        lam_f
        * (1.0 - cfg.eta) ** (n_edges - 1)
        * cfg.eta ** (math.comb(l, t) - n_edges)
    )

    # The most candidates keeping one pair of labeled subsets; a pair's two
    # subsets lie on two distinct position combinations, so together they
    # span at least t+1 positions. When no two words agree in more than t
    # positions, as in every packing, no two candidates keep one pair, and
    # the most is 1 iff some candidate keeps two subsets. Otherwise each
    # pair is one int64 key; sorted in place, equal keys form runs, and a
    # run longer than max_co shows as a key equal to the key max_co places
    # before it.
    if _agree_at_most(packing.words, t, radix):
        max_co = int(any(len(pattern) >= 2 for pattern in sets))
    else:
        max_co = 0
        for i, j in itertools.combinations(range(len(combos)), 2):
            both = ids[:, i] != NOT_KEPT
            both &= ids[:, j] != NOT_KEPT
            if both.any():
                pairs = ids[:, i][both].astype(np.int64)
                pairs <<= 32
                pairs |= ids[:, j][both]
                pairs.sort()
                max_co = max(max_co, 1)
                while max_co < len(pairs) and (pairs[max_co:] == pairs[:-max_co]).any():
                    max_co += 1

    return DegreeDiagnostics(
        dP_max=int(degrees.max()),
        dP_min=int(degrees.min()),
        frac_high_degree=frac_high,
        dH_mean=dh_mean,
        expected_D=p * q,
        lambda_F=lam_f,
        max_codegree=max_co,
    )
