"""Near-perfect transversal packings and the sparsify/select machinery.

A packing here is a set of words any two of which agree in at most t
coordinates; equivalently their labeled (t+1)-subsets are pairwise distinct.
`rs_packing` realizes the perfect case (q^(t+1) words) by evaluating all
polynomials of degree <= t over GF(q), whose add and mul are q x q lookup
tables for every prime power q; `greedy_packing` is the
maximal-by-inclusion fallback for any q. On top of a packing, a pseudorandom
sparsifier thins the labeled t-subsets, candidates are scored against the
target pattern family, and a seeded matching extracts candidates with
pairwise disjoint surviving subsets. A candidate carries only its transversal
and the position pattern of its surviving subsets; matching and validation
derive the labeled subsets from the two where they need them.
"""

from __future__ import annotations

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
# Share of the pool sampled per nibble round. No measurement chose 0.05; a
# small bite keeps collisions inside a batch rare, the point of a nibble.
_NIBBLE_BATCH_FRACTION = 0.05
# Largest l whose l! position relabelings `pattern_image_count` enumerates.
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
    labeled t-subsets of U that the sparsifier keeps. `survived` derives those
    subsets from U's t-shadow on each access; derive them once per use."""

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


def _complement_pattern(pattern: frozenset[int], l: int, t: int) -> PositionFamily:
    return PositionFamily(l, t, complete_family(l, t).edges - pattern)


def accept_candidate(
    cand: Candidate,
    mode: Literal["strict", "relaxed"],
    family: PositionFamily,
    lam: int,
) -> bool:
    """strict: the surviving pattern is a permuted copy of the target family.
    relaxed: the missing pattern has no lam+1 pairwise disjoint members, the
    exact condition the cover-free argument consumes."""
    l, t = family.l, family.t
    if mode == "strict":
        return _isomorphic_families(cand.pattern, family.edges, l)
    if mode == "relaxed":
        # The missing pattern cannot be feasible once it outgrows the largest
        # no-(lam+1)-matching family, whose complement is `family`. Rejecting
        # early is always safe; accepting is decided exactly below.
        if len(cand.pattern) < len(family.edges):
            return False
        complement = _complement_pattern(cand.pattern, l, t)
        return matching_number(complement) <= lam
    raise ValueError(f"unknown mode {mode!r}")


def _isomorphic_families(edges_a: frozenset[int], edges_b: frozenset[int], l: int) -> bool:
    """Is edges_a a vertex-relabeled copy of edges_b? Backtracking with
    degree pruning; fine up to l around 12."""
    if len(edges_a) != len(edges_b):
        return False
    deg_a = [sum(1 for e in edges_a if e >> v & 1) for v in range(l)]
    deg_b = [sum(1 for e in edges_b if e >> v & 1) for v in range(l)]
    if sorted(deg_a) != sorted(deg_b):
        return False
    # Map high-degree vertices first; their images are most constrained.
    order = sorted(range(l), key=lambda v: -deg_a[v])
    incident = [[e for e in edges_a if e >> v & 1] for v in range(l)]
    remaining = {e: e.bit_count() for e in edges_a}
    image = [0] * l
    used = [False] * l

    def place(d: int) -> bool:
        if d == l:
            return True
        v = order[d]
        for w in range(l):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            image[v] = w
            used[w] = True
            touched = []
            ok = True
            for e in incident[v]:
                remaining[e] -= 1
                touched.append(e)
                if remaining[e] == 0:
                    mapped = 0
                    ee = e
                    while ee:
                        bit = ee & -ee
                        mapped |= 1 << image[bit.bit_length() - 1]
                        ee ^= bit
                    if mapped not in edges_b:
                        ok = False
                        break
            if ok and place(d + 1):
                return True
            for e in touched:
                remaining[e] += 1
            used[w] = False
        return False

    return place(0)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def greedy_matching(
    candidates: Sequence[Candidate],
    seed: int,
    strategy: Literal["greedy", "nibble"] = "greedy",
) -> list[Candidate]:
    """Select candidates with pairwise disjoint survived sets.

    greedy walks a seed-shuffled order. nibble samples small batches per
    round, keeps members that collide with nothing committed and nothing
    else in the batch, and recycles intra-batch collisions. Both are maximal
    and depend only on (candidates, seed).
    """
    rng = random.Random(seed)
    if strategy == "greedy":
        order = list(candidates)
        rng.shuffle(order)
        return _sweep(order, [], set())
    if strategy != "nibble":
        raise ValueError(f"unknown strategy {strategy!r}")
    pool = list(candidates)
    rng.shuffle(pool)
    selected: list[Candidate] = []
    used: set[LabeledSubset] = set()
    stalls = 0
    while pool and stalls < 32:
        k = min(len(pool), max(1, math.ceil(_NIBBLE_BATCH_FRACTION * len(pool))))
        picked = sorted(rng.sample(range(len(pool)), k))
        picked_set = set(picked)
        batch = [pool[i] for i in picked]
        rest = [pool[i] for i in range(len(pool)) if i not in picked_set]
        kept = [cand.survived for cand in batch]
        counts = Counter(a for survived in kept for a in survived)
        progressed = False
        for cand, survived in zip(batch, kept):
            if not used.isdisjoint(survived):
                progressed = True  # permanently dead, pool shrank
                continue
            if all(counts[a] == 1 for a in survived):
                selected.append(cand)
                used.update(survived)
                progressed = True
            else:
                rest.append(cand)
        pool = rest
        stalls = 0 if progressed else stalls + 1
    # Finish greedily so the selection is maximal even if rounds stalled.
    return _sweep(pool, selected, used)


def _sweep(
    order: Sequence[Candidate], selected: list[Candidate], used: set[LabeledSubset]
) -> list[Candidate]:
    for cand in order:
        survived = cand.survived
        if used.isdisjoint(survived):
            selected.append(cand)
            used.update(survived)
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


def pattern_image_count(family: PositionFamily) -> int:
    """Number of distinct vertex-relabeled images of the family."""
    check_image_cap(family.l)
    images = set()
    for perm in itertools.permutations(range(family.l)):
        images.add(
            frozenset(
                sum(1 << perm[p] for p in range(family.l) if e >> p & 1)
                for e in family.edges
            )
        )
    return len(images)


def embeddings_per_edge(family: PositionFamily) -> int:
    """Images of the family through one fixed edge; constant over edges
    because relabelings act transitively on position t-subsets."""
    n_img = pattern_image_count(family)
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

    candidates = [survived_set(U, t, cfg) for U in packing.transversals]
    copies = [c for c in candidates if _isomorphic_families(c.pattern, family.edges, l)]
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
