"""The re-checks a verified build runs on the pipeline's output, trusting
no `sparsify` output: `validate_packing`, the one agreement test, and
`validate_induced`, the induced-packing conditions of the selected
candidates. Each is a count of the words' projections onto sets of
positions, in plain Python, and the module imports only the pipeline's
numpy-free `fpc.candidate`, so verifying a build of the plain route loads
no numpy. Of the commands, only a verified `fpc construct` or `fpc sweep`
loads this module.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from .candidate import Candidate
from .extremal import position_masks


def validate_packing(words: Iterable[Sequence[int]], t: int) -> bool:
    """True iff no two words agree in more than t coordinates, that is, iff
    on every t+1 positions the words' projections are distinct. Words of
    unequal length, and a t below 0, raise ValueError."""
    words = list(map(tuple, words))
    if t < 0:
        raise ValueError(f"t={t} below 0")
    lengths = set(map(len, words))
    if len(lengths) > 1:
        raise ValueError(f"words of unequal lengths {sorted(lengths)}")
    for combo in itertools.combinations(range(max(lengths, default=0)), t + 1):
        if len(set(map(itemgetter(*combo), words))) < len(words):
            return False
    return True


def validate_induced(selected: Sequence[Candidate], t: int) -> bool:
    """Re-check the induced-packing conditions without trusting the matcher:
    pairwise agreement <= t, shared t-agreements in neither survived set, and
    edge-disjoint survived sets. Each is a count of the words' projections
    onto one set of positions, so no `sparsify` id is trusted, and all of
    it runs in plain Python. The first is `validate_packing` on the words.
    Granted that, two t-shadows meet only in the one t-subset where their
    words agree, and a candidate's survived set lies in its own t-shadow,
    so the middle condition says that a candidate whose pattern holds a
    t-set of positions is the only word with its projection there.
    That count of 1 also rules out a labeled t-subset that survives twice,
    since both holders would project onto it. A pattern mask that is not a
    t-set of positions fails. t must be at least 1."""
    if t < 1:
        raise ValueError(f"t={t} below 1")
    words = [c.transversal for c in selected]
    if not words:
        return True
    if not validate_packing(words, t):
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
