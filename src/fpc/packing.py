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
`sparsify` hashes each distinct labeled t-subset once and gives every word
its kept pattern as one int; acceptance is decided once per distinct pattern;
the greedy pass keys each kept labeled subset as an int computed from the
word and a per-pattern table of position masks. A candidate carries only its
transversal and the position pattern of its surviving subsets, and candidates
with equal patterns share one frozenset; validation derives the labeled
subsets from the two where it needs them. `survived_set` is the per-word
reference route to the same pattern. `degree_diagnostics` counts the
candidates whose pattern is a relabeled copy of the target family by
membership in the cached image set, `pattern_images`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .core import Word
from .extremal import PositionFamily, complete_family, matching_number, position_masks

LabeledSubset = tuple[tuple[int, int], ...]  # ((position, symbol), ...), 1-based

# GF refuses prime powers of order above this; primes pass at any order. No
# measurement chose 512. A prime power's mul table is reduced from a
# q x q x (2k - 1) array, 34 MB at q = 512.
_GF_TABLE_CAP = 512
# Largest l whose l! position relabelings `pattern_images` enumerates.
_IMAGE_L_CAP = 9


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


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = num[:]
    deg_d = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(1, len(num) - deg_d)
    for shift in range(len(num) - deg_d - 1, -1, -1):
        coef = num[shift + deg_d] * inv_lead % p
        quot[shift] = coef
        if coef:
            for j, dj in enumerate(den):
                num[shift + j] = (num[shift + j] - coef * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            _, rem = _poly_divmod(f, g, p)
            if rem == [0]:
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


@dataclass(frozen=True)
class TransversalPacking:
    """Words with pairwise coordinate agreement at most t."""

    l: int
    q: int
    t: int
    transversals: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.transversals)


def rs_packing(l: int, t: int, q: int) -> TransversalPacking:
    """All q^(t+1) evaluation vectors of degree-<=t polynomials over GF(q).

    Distinct polynomials of degree <= t agree on at most t of the l >= t+1
    evaluation points, so the packing is perfect. Requires prime-power q >= l.
    """
    if t + 1 > l:
        raise ValueError(f"need t+1 <= l, got t={t}, l={l}")
    try:
        field = GF(q)
    except NotPrimePowerError:
        raise ValueError(
            f"q={q} is not a prime power; greedy_packing works for any q"
        ) from None
    if q < l:
        raise ValueError(
            f"q={q} < l={l}: not enough evaluation points; greedy_packing works for any q"
        )
    # In `itertools.product` order, coefficient vector i lists the base-q
    # digits of i, most significant first; coeffs[0] is the constant term.
    # Horner's rule evaluates all vectors at once, one column per point.
    index = np.arange(q ** (t + 1))
    coeffs = [index // q ** (t - j) % q for j in range(t + 1)]
    columns = []
    for x in range(l):
        acc = coeffs[t]
        for c in reversed(coeffs[:t]):
            acc = field.add[field.mul[acc, x], c]
        columns.append((acc + 1).tolist())
    return TransversalPacking(l=l, q=q, t=t, transversals=tuple(zip(*columns)))


def greedy_packing(
    l: int, t: int, q: int, seed: int, word_cap: int = 2_000_000
) -> TransversalPacking:
    """Maximal-by-inclusion packing over a seed-shuffled word order.

    Keeps a word iff none of its labeled (t+1)-subsets was claimed before,
    which is exactly the agreement-<=t condition. No size guarantee.
    """
    if t + 1 > l:
        raise ValueError(f"need t+1 <= l, got t={t}, l={l}")
    if q < 2:
        raise ValueError("q must be at least 2")
    if q**l > word_cap:
        raise ValueError(
            f"greedy packing enumerates q^l = {q**l} words, above cap {word_cap}"
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
    return TransversalPacking(l=l, q=q, t=t, transversals=tuple(sorted(kept)))


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
    """Equivalent packing criterion: labeled (t+1)-subsets never repeat."""
    keys = [a for w in words for a in _labeled_subsets(w, t + 1)]
    return len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# Sparsifier and candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparsifierConfig:
    """Keep each labeled t-subset independently with probability 1 - eta."""

    eta: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True)
class Candidate:
    """A transversal U and its kept pattern: the t-bit position masks of the
    labeled t-subsets of U that the sparsifier keeps. Candidates with equal
    patterns may share one frozenset, as those from `shared_patterns` do.
    `survived` derives the subsets from U's t-shadow on each access; derive
    them once per use."""

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
    digest = hashlib.blake2b(_encode_labeled(a), key=key, digest_size=8).digest()
    u = int.from_bytes(digest, "big")
    return u < int((1.0 - cfg.eta) * 2.0**64)


def survived_set(U: Word, t: int, cfg: SparsifierConfig) -> Candidate:
    """U with the position bitmasks of its labeled t-subsets that the
    sparsifier keeps."""
    pattern = [mask for a, mask in _shadow(U, t) if r_membership(a, cfg)]
    return Candidate(tuple(U), frozenset(pattern))


def sparsify(words: Sequence[Word], t: int, cfg: SparsifierConfig) -> np.ndarray:
    """Each word's kept pattern as an int: bit i is set iff the sparsifier
    keeps the word's labeled t-subset on combination i of
    `position_masks(l, t)`. The patterns equal `survived_set`'s, but each
    distinct labeled subset is hashed once: per position combination the
    symbols become one mixed-radix key, and `r_membership` runs once per
    distinct key. The dtype is int64, or object when C(l, t) >= 64."""
    if len(words) == 0:
        return np.zeros(0, dtype=np.int64)
    symbols = np.array(words, dtype=np.int64)
    n, l = symbols.shape
    radix = int(symbols.max()) + 1
    if radix**t >= 2**63:
        raise ValueError(f"symbol keys need radix**t below 2^63; got radix {radix}, t = {t}")
    place = radix ** np.arange(t)
    combos = itertools.combinations(range(l), t)
    dtype = np.int64 if math.comb(l, t) < 64 else object
    patterns = np.zeros(n, dtype=dtype)
    for i, combo in enumerate(combos):
        keys, inverse = np.unique(symbols[:, combo] @ place, return_inverse=True)
        kept = np.array(
            [
                r_membership(
                    tuple((p + 1, key // radix**j % radix) for j, p in enumerate(combo)),
                    cfg,
                )
                for key in keys.tolist()
            ],
            dtype=bool,
        )
        patterns |= kept[inverse].astype(dtype) << i
    return patterns


def shared_patterns(
    patterns: np.ndarray, l: int, t: int
) -> tuple[list[frozenset[int]], np.ndarray]:
    """The distinct patterns of `sparsify`, each as one frozenset of position
    masks that every candidate with that pattern shares, and each word's
    index into that list."""
    distinct, ids = np.unique(patterns, return_inverse=True)
    masks = position_masks(l, t)
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
    over their transversals and patterns. `strategy` takes one value,
    "greedy", and stays in the signature because callers that pass it,
    `perfbench/replica.py` among them, pin it; any other value raises
    ValueError."""
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")
    ids: dict[frozenset[int], int] = {}
    pattern_ids = [ids.setdefault(cand.pattern, len(ids)) for cand in candidates]
    words = [cand.transversal for cand in candidates]
    radix = max((max(w) for w in words), default=0) + 1
    chosen = greedy_select(words, pattern_ids, list(ids), radix, seed)
    return [candidates[k] for k in chosen]


def greedy_select(
    words: Sequence[Word],
    pattern_ids: Sequence[int],
    patterns: Sequence[frozenset[int]],
    radix: int,
    seed: int,
) -> list[int]:
    """Indices, in selection order, of the words whose kept labeled subsets
    are pairwise disjoint, taken by walking a seed-shuffled order; word k
    keeps the subsets on the masks of `patterns[pattern_ids[k]]`. The
    selection is maximal and depends only on the inputs and the seed; the
    shuffle depends only on len(words). A labeled subset is keyed by the int
    mask * radix^t + its symbols in base `radix`, which must exceed every
    symbol, and a word stops at its first key already in use."""
    tables = [
        [(mask, [p for p in range(mask.bit_length()) if mask >> p & 1]) for mask in pattern]
        for pattern in patterns
    ]
    order = list(range(len(words)))
    random.Random(seed).shuffle(order)
    used: set[int] = set()
    selected = []
    for k in order:
        w = words[k]
        keys = []
        for key, positions in tables[pattern_ids[k]]:
            for p in positions:
                key = key * radix + w[p]
            if key in used:
                break
            keys.append(key)
        else:
            used.update(keys)
            selected.append(k)
    return selected


def validate_induced(selected: Sequence[Candidate], t: int) -> bool:
    """Re-check the induced-packing conditions without trusting the matcher:
    pairwise agreement <= t, shared t-agreements in neither survived set, and
    edge-disjoint survived sets. Each is a count over labeled subsets. Words
    agree on more than t coordinates iff they share a labeled (t+1)-subset.
    Granted that, two t-shadows meet only in the one t-subset where their
    words agree, and a candidate's survived set lies in its own t-shadow, so
    the middle condition says no survived subset lies in a second t-shadow.
    The last says no labeled t-subset survives twice."""
    words = [c.transversal for c in selected]
    degree = Counter(a for w in words for a in _labeled_subsets(w, t))
    survived = [a for c in selected for a in c.survived]
    return (
        shadows_disjoint(words, t)
        and len(survived) == len(set(survived))
        and all(degree[a] == 1 for a in survived)
    )


# ---------------------------------------------------------------------------
# Degree diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeDiagnostics:
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
    element_cap: int = 200_000,
) -> DegreeDiagnostics:
    """Empirical degree facts for the candidate hypergraph over a packing.

    Reports the transversal-degree extremes over (a sample of) all labeled
    t-subsets, the fraction meeting the near-regularity threshold, the mean
    candidate degree of sparsifier survivors against its predicted value, and
    the largest pairwise candidate codegree.
    """
    l, q, t = packing.l, packing.q, packing.t
    if (family.l, family.t) != (l, t):
        raise ValueError("family must be t-uniform on the packing's positions")
    lam_f = embeddings_per_edge(family)

    dP = Counter(a for U in packing.transversals for a in _labeled_subsets(U, t))

    space = math.comb(l, t) * q**t
    if space <= element_cap:
        elements = [
            tuple((p + 1, sym) for p, sym in zip(combo, syms))
            for combo in itertools.combinations(range(l), t)
            for syms in itertools.product(range(1, q + 1), repeat=t)
        ]
    else:
        rng = random.Random(cfg.seed ^ 0x5EED5EED)
        combos = list(itertools.combinations(range(l), t))
        elements = [
            tuple(
                (p + 1, sym)
                for p, sym in zip(rng.choice(combos), [rng.randint(1, q) for _ in range(t)])
            )
            for _ in range(element_cap)
        ]

    degrees = [dP.get(a, 0) for a in elements]
    delta = max(0.0, 1.0 - len(packing.transversals) / q ** (t + 1))
    threshold = (1.0 - math.sqrt(delta)) * q
    frac_high = sum(1 for d in degrees if d >= threshold) / len(degrees)

    patterns, pattern_ids = shared_patterns(sparsify(packing.transversals, t, cfg), l, t)
    candidates = [
        Candidate(U, patterns[k])
        for U, k in zip(packing.transversals, pattern_ids.tolist())
    ]
    images = pattern_images(family)
    copies = [c for c in candidates if c.pattern in images]
    dH: Counter = Counter()
    for cand in copies:
        dH.update(cand.survived)
    in_r = [a for a in elements if r_membership(a, cfg)]
    dh_mean = (
        sum(dH.get(a, 0) for a in in_r) / len(in_r) if in_r else 0.0
    )

    n_edges = len(family.edges)
    p = (
        lam_f
        * (1.0 - cfg.eta) ** (n_edges - 1)
        * cfg.eta ** (math.comb(l, t) - n_edges)
    )

    codegree: Counter = Counter()
    for cand in candidates:
        for pair in itertools.combinations(sorted(cand.survived), 2):
            codegree[pair] += 1
    max_co = max(codegree.values()) if codegree else 0

    return DegreeDiagnostics(
        dP_max=max(degrees),
        dP_min=min(degrees),
        frac_high_degree=frac_high,
        dH_mean=dh_mean,
        expected_D=p * q,
        lambda_F=lam_f,
        max_codegree=max_co,
    )
