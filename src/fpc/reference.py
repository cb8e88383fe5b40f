"""Per-word reference routes of the pipeline, one word or candidate at a
time.

`survived_set` finds a word's kept pattern by hashing each labeled t-subset
with `r_membership`, which the `sparsify` of `fpc.packing` and of
`fpc.plain` match byte for byte over whole columns; `accept_candidate` is
`accept_pattern` on one candidate, with m read off the complement family
it is given; and `greedy_matching` walks the candidates one at a time in
the order `random.Random(seed).shuffle` gives, which `greedy_select`
replays in numpy blocks and `fpc.plain.walk` walks as a set. The tests and
the traced benchmark replica check the pipeline against these; no command
loads this module.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Literal, Sequence

from .candidate import Candidate, LabeledSubset, SparsifierConfig, _shadow, accept_pattern
from .core import Word
from .extremal import PositionFamily


def _encode_labeled(a: LabeledSubset) -> bytes:
    pairs = sorted(a)
    return b"".join(struct.pack(">HI", pos, sym) for pos, sym in pairs)


def r_membership(a: LabeledSubset, cfg: SparsifierConfig) -> bool:
    """Deterministic membership in the sparsified subset.

    A keyed hash of the canonical encoding stands in for the random set, so
    membership is O(1) memory and bit-reproducible for a given seed. The
    threshold is 2^64 at eta = 0 and 0 at eta = 1, so both ends are exact.
    """
    h = cfg.keyed()
    h.update(_encode_labeled(a))
    return int.from_bytes(h.digest(), "big") < cfg.threshold


def survived_set(U: Word, t: int, cfg: SparsifierConfig) -> Candidate:
    """U with the position bitmasks of its labeled t-subsets that the
    sparsifier keeps."""
    pattern = [mask for a, mask in _shadow(U, t) if r_membership(a, cfg)]
    return Candidate(tuple(U), frozenset(pattern))


def accept_candidate(
    cand: Candidate,
    mode: Literal["relaxed"],
    family: PositionFamily,
    lam: int,
) -> bool:
    """`accept_pattern` on the candidate's pattern, where `family` is the
    complement of the reserved extremal family, so that m is C(l, t) minus
    its size. `mode` takes one value, "relaxed", and stays in the signature
    because callers that pass it, `perfbench/replica.py` among them, pin it;
    any other value raises ValueError."""
    if mode != "relaxed":
        raise ValueError(f"unknown mode {mode!r}")
    l, t = family.l, family.t
    return accept_pattern(cand.pattern, l, t, lam, math.comb(l, t) - len(family))


def greedy_matching(
    candidates: Sequence[Candidate],
    seed: int,
    strategy: Literal["greedy"] = "greedy",
) -> list[Candidate]:
    """Select candidates with pairwise disjoint survived sets: walk them in
    the order `random.Random(seed).shuffle` gives their indices and keep each
    whose survived set meets no labeled subset kept so far.
    `strategy` takes one value, "greedy", and stays in the signature because
    callers that pass it, `perfbench/replica.py` among them, pin it; any
    other value raises ValueError."""
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")
    order = list(range(len(candidates)))
    random.Random(seed).shuffle(order)
    used: set[LabeledSubset] = set()
    selected = []
    for k in order:
        survived = candidates[k].survived
        if used.isdisjoint(survived):
            used |= survived
            selected.append(candidates[k])
    return selected
