"""`random.Random(seed).shuffle`, replayed in numpy on an int32 array.

`shuffle(values, seed)` permutes `values` in place as the shuffle permutes
a list of the same items, without a Python step per item, so that code
files built from its order keep the bytes a list shuffle gives.
It mirrors CPython's `Random.shuffle`, `_randbelow` and the word order of
`getrandbits`, which are the same in every version that `requires-python`
admits; the tests compare it with `random.shuffle` itself. The draws are
the fixpoint of a prefix count over windows of the generator's 32-bit
outputs, and the swaps are applied a chunk of steps at a time through links
between the steps that drew one value.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

# Generator words that `_run_draws` resolves in one fixpoint, and draws that
# `_apply_draws` applies in one step; together they bound the replay's
# arrays besides its result to a few hundred KB.
_DRAW_WINDOW = 8192
_SWAP_CHUNK = 8192


def _run_draws(words: np.ndarray, bound: int, run: int) -> tuple[np.ndarray, int]:
    """The values `_randbelow` returns from the 32-bit generator outputs
    `words` for the bounds bound, bound-1, ..., bound-run+1, which share
    bound's bit length k, and how many words they take.

    `_randbelow(b)` takes one output w at a time and returns w >> (32 - k)
    at the first value below b. While k stays fixed the bound falls by one
    per accepted word, so word p is rejected iff its value r_p is at least
    bound - p + R_p, where R_p counts the rejections before p; that is, iff
    R_p <= r_p + p - bound. R is the fixpoint of its own prefix count.
    Iterating from zero, each pass fixes at least one more word, since R_p
    depends only on earlier words, and the first pass that repeats its
    input has found it."""
    value = (words >> (32 - bound.bit_length())).astype(np.int32)
    limit = np.arange(-bound, len(words) - bound, dtype=np.int32)
    limit += value
    before = np.zeros(len(words), dtype=np.int32)
    while True:
        rejected = before <= limit
        count = np.zeros(len(words), dtype=np.int32)
        np.cumsum(rejected[:-1], dtype=np.int32, out=count[1:])
        if count.tobytes() == before.tobytes():
            break
        before = count
    taken = np.flatnonzero(~rejected)[:run]
    return value[taken], taken[-1] + 1 if len(taken) == run else len(words)


def _shuffle_draws(rng: random.Random, n: int) -> Iterator[np.ndarray]:
    """The values `rng.shuffle` draws for a sequence of n < 2^31 items, in
    draw order, as int32 arrays: `_randbelow(b)` for b = n, n-1, ..., 2.
    The generator outputs are those of `rng.getrandbits(32 * m)`, lowest
    word first. rng ends up to a window of words past the last draw."""
    words = np.zeros(0, dtype=np.uint32)
    bound = n
    while bound >= 2:
        run = bound - max(2, 1 << (bound.bit_length() - 1)) + 1
        # A word is accepted with probability above 1/2.
        size = min(_DRAW_WINDOW, 2 * run + 16)
        if len(words) < size:
            more = size - len(words)
            fresh = rng.getrandbits(32 * more).to_bytes(4 * more, "little")
            words = np.concatenate((words, np.frombuffer(fresh, dtype="<u4")))
        draws, used = _run_draws(words[:size], bound, run)
        words = words[used:]
        bound -= len(draws)
        yield draws


def _apply_draws(order: np.ndarray, lo: int, draws: np.ndarray) -> None:
    """Apply the swaps of shuffle steps lo..lo+len(draws)-1 to `order`,
    highest step first, as `shuffle` does; draws[u] is step lo+u's draw, at
    most lo+u. On entry order[p] is the value at position p for every p up
    to the block's top step; on return that holds for p < lo, and the
    block's own positions hold their final values.

    Step i swaps positions i and j = draws[i-lo], and position i is final
    after it. So it ends holding what sat at j just before step i: what the
    lowest step above i that drew j brought there, or else order[j] as the
    block found it. What a step s brings to its draw is what sat at s just
    before step s: what the lowest step above s that drew s brought there,
    or else order[s]. Those links point only upward, so pointer doubling
    follows them to their ends. A position below lo ends the block holding
    what the lowest step that drew it brought.

    The steps that drew one value are ranked from the highest down, one
    rank per pass, by `np.maximum.at` into order[value]. The drawn entries
    of `order` serve as that table once their values are saved, since the
    block overwrites every one of them. No sort runs: on numpy 2.4 for
    x86-64, the first sort in a process makes about 256 KB of numpy's code
    resident and the first `np.maximum.at` about 64 KB, and `fpc construct`
    sorts nothing else."""
    size = len(draws)
    step = np.arange(size, dtype=np.int32)
    found = order[draws]
    start = order[lo : lo + size].copy()
    # up[u]: the lowest step above u that drew u's draw, or -1.
    up = np.full(size, -1, dtype=np.int32)
    order[draws] = -1
    left, value = step, draws
    while len(left):
        above = order[value]  # the step ranked by the previous pass
        order[value] = -1
        np.maximum.at(order, value, left)
        top = order[value] == left
        up[left[top]] = above[top]
        left, value = left[~top], value[~top]
    # order[v] is now the lowest step that drew v. link[u]: the lowest step
    # above u that drew lo+u, or u itself when none did.
    link = step.copy()
    inside = draws[draws >= lo]
    link[inside - lo] = order[inside]
    itself = np.flatnonzero(draws == step + lo)
    link[itself] = np.where(up[itself] >= 0, up[itself], itself)
    while True:
        further = link[link]
        if further.tobytes() == link.tobytes():
            break
        link = further
    brought = start[link]
    final = np.where(up >= 0, brought[up], found)
    outside = draws[draws < lo]
    order[outside] = brought[order[outside]]
    order[lo : lo + size] = final


def shuffle(order: np.ndarray, seed: int) -> np.ndarray:
    """Permute the 1-D int32 array `order` in place as
    `random.Random(seed).shuffle` permutes a list of its items, and return
    it: `_shuffle_draws` replays the draws and `_apply_draws` their swaps,
    `_SWAP_CHUNK` steps at a time, in `order` itself."""
    n = len(order)
    hi, pending = n, np.zeros(0, dtype=np.int32)  # steps hi..n-1 are applied
    for draws in _shuffle_draws(random.Random(seed), n):
        pending = np.concatenate((pending, draws))
        # A full chunk, or the draws of every step left.
        while len(pending) and len(pending) >= min(_SWAP_CHUNK, hi - 1):
            size = min(len(pending), _SWAP_CHUNK)
            hi -= size
            _apply_draws(order, hi, pending[size - 1 :: -1])
            pending = pending[size:]
    return order
