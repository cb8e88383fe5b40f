"""Code primitives: words, codes, and the checkers' verdicts and errors.

Words are tuples of 1-based symbols from {1..q}. A code is a set of distinct
words of a common length. The two exact checkers each have their own module,
`is_frameproof` in `fpc.frameproof` and `is_cover_free` in
`fpc.cover_free`: they decide the same property through deliberately
different routes, so they can cross-validate each other, and each command
loads only the checkers it runs. Both return a `Verdict` and refuse
oversized instances with `BudgetExceededError` instead of sampling. The
module is pure Python, so checking never loads numpy. The own-subsequence
audit lives in `fpc.audit`, and the descendant tests of the exhaustive
references in `fpc.oracle`.
"""

from __future__ import annotations

import importlib
from collections import Counter, namedtuple
from itertools import chain
from typing import Iterable, Sequence

from .record import Record

Word = tuple[int, ...]

DEFAULT_BUDGET = 10**10


class BudgetExceededError(Exception):
    """The exact enumeration would exceed the comparison budget."""


class ConstructionError(Exception):
    """A pipeline invariant failed; carries the diagnosis."""


def validate_word(word: Sequence[int], l: int, q: int) -> Word:
    w = tuple(word)
    if len(w) != l:
        raise ValueError(f"word {w} has length {len(w)}, expected {l}")
    for s in w:
        if not (isinstance(s, int) and not isinstance(s, bool) and 1 <= s <= q):
            raise ValueError(f"word {w} has symbol {s!r} outside 1..{q}")
    return w


def _all_valid(rows: list, l: int, q: int) -> bool:
    """Whether every row is a tuple or list of l symbols of exact type int in
    1..q, tested over the flattened symbols with no Python step per word.
    Where it is not, `Code` checks the rows one by one with `validate_word`,
    which raises on the first fault in row order or accepts what it allows
    beyond this case (other sequences, int subclasses)."""
    if not set(map(type, rows)) <= {tuple, list} or not set(map(len, rows)) <= {l}:
        return False
    symbols = list(chain.from_iterable(rows))
    if not set(map(type, symbols)) <= {int}:
        return False
    distinct = set(symbols)
    return not distinct or 1 <= min(distinct) and max(distinct) <= q


class Code(Record):
    """A set of distinct length-l words over symbols {1..q}, kept sorted.
    Immutable; compares, hashes and prints by (q, l, words)."""

    __slots__ = ("q", "l", "words")

    def __init__(self, q: int, l: int, words: Iterable[Sequence[int]]):
        if q < 1 or l < 1:
            raise ValueError("q and l must be positive")
        rows = list(words)
        if _all_valid(rows, l, q):
            validated = list(map(tuple, rows))
        else:
            validated = [validate_word(w, l, q) for w in rows]
        if len(set(validated)) != len(validated):
            dupes = [w for w, k in Counter(validated).items() if k > 1]
            raise ValueError(f"duplicate words rejected: {dupes[:3]}")
        super().__init__(q, l, tuple(sorted(validated)))

    def __len__(self) -> int:
        return len(self.words)


class Witness(namedtuple("Witness", "word coalition")):
    """A concrete violation: `word` is a descendant of `coalition`, a tuple
    of words."""

    __slots__ = ()


class Verdict(namedtuple("Verdict", "ok witness", defaults=(None,))):
    """A checker's answer: `ok`, and the canonical `Witness` when not ok."""

    __slots__ = ()


# Names that left this module, with the module that now holds each, loaded on
# first use: `perfbench/replica.py` still imports the checkers from here, until
# it reads `construct`'s own stage records (ROADMAP item 4).
_MOVED = {"is_frameproof": ".frameproof", "is_cover_free": ".cover_free"}


def __getattr__(name: str):
    if name in _MOVED:
        return getattr(importlib.import_module(_MOVED[name], __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
