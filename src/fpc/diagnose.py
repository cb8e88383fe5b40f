"""Degree diagnostics of a packing, behind `fpc diagnose`, and the diagnosis
of a failed verification.

`degree_diagnostics` counts every labeled t-subset over 1..q exactly from
the words' per-combination keys, which `fpc.packing` builds for the
sparsifier, a row chunk at a time, and finds the candidates whose pattern
is a relabeled copy of the target family by membership in the cached image
set, `pattern_images`, once per distinct pattern. It trusts its packing's words to agree in at most
t positions, as `validate_packing` checks, so the largest codegree follows
from the distinct kept patterns alone. `_diagnose_violation` traces a
frameproof witness back through the covering argument, once the build's
induced-packing check has passed. Of the commands, only `fpc diagnose` loads
this module, and `fpc construct` only when its verification fails.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .candidate import SparsifierConfig
from .core import Witness
from .extremal import PositionFamily, matching_number
from .packing import (
    TransversalPacking,
    _kept,
    _row_chunks,
    _subset_keys,
    shared_patterns,
    sparsify,
)

# Largest l whose l! position relabelings `pattern_images` enumerates.
_IMAGE_L_CAP = 9


class DegreeDiagnostics(
    namedtuple(
        "DegreeDiagnostics",
        "dP_max dP_min frac_high_degree dH_mean expected_D lambda_F max_codegree",
    )
):
    """The degree facts `degree_diagnostics` reports, the fields of
    `fpc diagnose`'s output."""

    __slots__ = ()


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
    codegree, which rests on `packing` being what `TransversalPacking`
    promises: words that pairwise agree in at most t positions, as
    `rs_packing` and `greedy_packing` build them. This is not checked here;
    run `validate_packing` on a hand-built word set first.
    """
    l, q, t = packing.l, packing.q, packing.t
    if (family.l, family.t) != (l, t):
        raise ValueError("family must be t-uniform on the packing's positions")
    lam_f = embeddings_per_edge(family)

    kept, patterns = sparsify(packing.words, t, cfg)
    sets, pattern_ids = shared_patterns(patterns, l, t)
    del patterns
    images = pattern_images(family)
    is_copy = np.array([p in images for p in sets], dtype=bool)

    # Per labeled subset on the q^t grid of each combination: its degree in
    # the packing, its degree among the copies, and whether the sparsifier
    # keeps it. Only kept subsets enter dH_mean, and a copy that holds a kept
    # subset keeps it. Degrees are counts of the words' keys, a row chunk at
    # a time. A subset some word holds has its kept bit in `sparsify`'s kept
    # table, whose radix is the largest symbol held + 1; only the subsets no
    # word holds are hashed here.
    radix = max(q, int(packing.words.max())) + 1
    grid = np.indices((q,) * t).reshape(t, -1).T + 1
    grid_keys = _subset_keys(grid, range(t), radix)
    degrees, dH, in_r = [], [], []
    for combo, kept_row in zip(itertools.combinations(range(l), t), kept.reshape(len(kept), -1)):
        counts = np.zeros((2, radix**t), dtype=np.int64)
        for rows in _row_chunks(len(packing)):
            keys = _subset_keys(packing.words[rows], combo, radix)
            counts[0] += np.bincount(keys, minlength=radix**t)
            counts[1] += np.bincount(keys[is_copy[pattern_ids[rows]]], minlength=radix**t)
        degrees.append(counts[0, grid_keys])
        dH.append(counts[1, grid_keys])
        held = degrees[-1] > 0
        bits = np.empty(len(grid_keys), dtype=bool)
        bits[held] = kept_row[_subset_keys(grid[held], range(t), kept.shape[-1])]
        bits[~held] = _kept(combo, grid_keys[~held], radix, cfg)
        in_r.append(bits)
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

    # The most candidates keeping one pair of labeled subsets. A pair's two
    # subsets span at least t+1 positions, on which no two packing words
    # agree, so no two candidates keep one pair: the most is 1 iff some
    # candidate keeps two subsets.
    max_co = int(any(len(pattern) >= 2 for pattern in sets))

    return DegreeDiagnostics(
        dP_max=int(degrees.max()),
        dP_min=int(degrees.min()),
        frac_high_degree=frac_high,
        dH_mean=dh_mean,
        expected_D=p * q,
        lambda_F=lam_f,
        max_codegree=max_co,
    )


def _diagnose_violation(witness: Witness, t: int, lam: int) -> str:
    """Trace a frameproof witness back through the covering argument, for a
    build whose induced-packing check passed: a covered codeword must meet
    lam+1 coalition members in pairwise disjoint t-sets, all missing from its
    survived pattern. That check already bounds every agreement by t and
    keeps every exact-t agreement out of the pattern, so only the number of
    disjoint ones is left to tell."""
    l = len(witness.word)
    exact_t = []
    for other in witness.coalition:
        agree = [p for p in range(l) if witness.word[p] == other[p]]
        if len(agree) == t:
            exact_t.append(sum(1 << p for p in agree))
    nu = matching_number(PositionFamily(l, t, frozenset(exact_t)))
    if nu <= lam:
        return (
            f"only {nu} <= lam disjoint t-agreements; the covering argument "
            "should have been impossible - suspect the checkers"
        )
    return (
        f"{nu} > lam disjoint t-agreements all missing from the victim's "
        "pattern: candidate acceptance admitted an infeasible pattern"
    )
