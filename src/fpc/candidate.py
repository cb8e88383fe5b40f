"""What both routes of the pipeline share, free of numpy: the sparsifier's
config and its keyed hash, labeled subsets, `Candidate` and the one
acceptance rule, `accept_pattern`.

The sparsifier's hash is `blake2b` from CPython's built-in `_blake2`, the
object `hashlib.blake2b` is, imported directly so that no OpenSSL is loaded.
Supported interpreters must ship `_blake2`; on a build without it this
module does not import.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import namedtuple
from typing import Iterable

# hashlib's own blake2b; `import hashlib` would also load OpenSSL's _hashlib.
from _blake2 import blake2b

from .core import Word
from .extremal import _largest_matching, position_masks
from .record import Record

LabeledSubset = tuple[tuple[int, int], ...]  # ((position, symbol), ...), 1-based


def _shadow(w: Word, k: int) -> Iterable[tuple[LabeledSubset, int]]:
    """Each labeled k-subset of w with its position bitmask."""
    labeled = [(p + 1, s) for p, s in enumerate(w)]
    return zip(itertools.combinations(labeled, k), position_masks(len(w), k))


class SparsifierConfig(Record):
    """Keep each labeled t-subset independently with probability 1 - eta.

    A subset is kept iff the keyed blake2b digest of its records, read as a
    big-endian integer, is below `threshold`. Its records are one ">HI"
    pair of 1-based position and symbol per member, in position order."""

    __slots__ = ("eta", "seed")

    def __init__(self, eta: float, seed: int):
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"eta={eta} outside [0, 1]")
        super().__init__(eta, seed)

    @property
    def threshold(self) -> int:
        """2^64 at eta 0 and 0 at eta 1, so both ends are exact."""
        return int((1.0 - self.eta) * 2.0**64)

    def keyed(self):
        """The hash keyed by the seed, 8-byte digests; copying it per record
        skips re-hashing the key block."""
        key = struct.pack(">Q", self.seed & 0xFFFFFFFFFFFFFFFF)
        return blake2b(key=key, digest_size=8)


class Candidate(namedtuple("Candidate", "transversal pattern")):
    """A transversal U (a Word) and its kept pattern: the frozenset of t-bit
    position masks of the labeled t-subsets of U that the sparsifier keeps.
    The pipeline's candidates with equal patterns share one frozenset.
    `survived` derives the subsets from U's t-shadow on each access; derive
    them once per use."""

    __slots__ = ()

    @property
    def survived(self) -> frozenset[LabeledSubset]:
        t = next(iter(self.pattern), 0).bit_count()
        return frozenset(
            a for a, mask in _shadow(self.transversal, t) if mask in self.pattern
        )


def accept_pattern(pattern: frozenset[int], l: int, t: int, lam: int, m: int) -> bool:
    """Accept a kept pattern iff its missing pattern has no lam+1 pairwise
    disjoint members, the exact condition the cover-free argument consumes.
    m is the size of the largest t-family on [l] with no lam+1 pairwise
    disjoint members, `BoundsReport.m`: a missing pattern larger than m
    cannot be feasible, so it is rejected before any search. Otherwise
    `_largest_matching` over the missing masks, stopped at lam+1, decides."""
    if len(pattern) < math.comb(l, t) - m:
        return False
    missing = [mask for mask in position_masks(l, t) if mask not in pattern]
    return len(_largest_matching(missing, l, t, stop=lam + 1)) <= lam
