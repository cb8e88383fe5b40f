"""Extremal matching numbers and the derived size bounds.

The central quantity is the largest t-uniform family on [l] vertices with no
lam+1 pairwise disjoint edges. `emc_value` evaluates the conjectured closed
form and tags the parameter regimes where it is a proven theorem; `m_exact`
settles small instances outright by branch-and-bound. Everything downstream
(`blackburn_upper`, `improved_upper`, `rate_limit`) is exact rational
arithmetic floored at the end, never floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

EXHAUSTIVE_CAP = 20  # largest binom(l, t) m_exact will take on by default


class ExhaustiveCapError(Exception):
    """Instance too large for m_exact; use emc_value for the formula."""


def lambda_of(c: int, l: int) -> tuple[int, int]:
    """The unique (t, lam) with t = ceil(l/c), l = c(t-1) + lam + 1, 0 <= lam < c."""
    if c < 2 or l < 2:
        raise ValueError("need c >= 2 and l >= 2")
    t = -(-l // c)
    lam = l - c * (t - 1) - 1
    assert 0 <= lam <= c - 1
    return t, lam


@dataclass(frozen=True)
class PositionFamily:
    """A t-uniform hypergraph on positions [l]; edges as bitmasks (bit i = position i+1)."""

    l: int
    t: int
    edges: frozenset[int]

    def __post_init__(self):
        limit = 1 << self.l
        for e in self.edges:
            if not (0 < e < limit) or e.bit_count() != self.t:
                raise ValueError(
                    f"edge {bin(e)} is not a {self.t}-subset of [{self.l}]"
                )

    def __len__(self) -> int:
        return len(self.edges)

    def edge_positions(self) -> list[frozenset[int]]:
        """Edges as 1-based position sets, sorted for stable display."""
        return [
            frozenset(p + 1 for p in range(self.l) if e >> p & 1)
            for e in sorted(self.edges)
        ]


@functools.cache
def position_masks(l: int, t: int) -> tuple[int, ...]:
    """The bitmasks of all t-subsets of [l], in combination order; cached."""
    return tuple(_mask(s) for s in itertools.combinations(range(l), t))


@functools.cache
def complete_family(l: int, t: int) -> PositionFamily:
    """All t-subsets of [l]; cached, since the family is immutable."""
    return PositionFamily(l, t, frozenset(position_masks(l, t)))


def _mask(positions) -> int:
    m = 0
    for p in positions:
        m |= 1 << p
    return m


def matching_number(family: PositionFamily) -> int:
    """Maximum number of pairwise disjoint edges, by branch and bound."""
    edges = sorted(family.edges)
    best = 0

    def extend(start: int, used: int, count: int):
        nonlocal best
        if count > best:
            best = count
        # Even if every remaining vertex were packed, can we beat best?
        free = family.l - used.bit_count()
        if count + free // family.t <= best:
            return
        for j in range(start, len(edges)):
            if edges[j] & used == 0:
                extend(j + 1, used | edges[j], count + 1)

    extend(0, 0, 0)
    return best


@dataclass(frozen=True)
class EmcValue:
    """A matching-number extremum with its epistemic status.

    `regime` is one of lambda0, EKR, t<=3, wide, exhaustive when proven,
    None when the value rests on the unproven general conjecture.
    """

    value: int
    proven: bool
    regime: Optional[str] = None

    @property
    def status(self) -> str:
        return f"proven({self.regime})" if self.proven else "conjectured"


def _check_emc_params(l: int, t: int, lam: int):
    if t < 1 or lam < 0:
        raise ValueError("need t >= 1 and lam >= 0")
    if l < t * (lam + 1):
        raise ValueError(f"need l >= t*(lam+1) = {t * (lam + 1)}, got l={l}")


def conjecture_terms(l: int, t: int, lam: int) -> tuple[int, int]:
    """The two competing extremal counts: t-sets meeting [lam], and t-sets
    inside the first t(lam+1)-1 vertices."""
    cover = math.comb(l, t) - math.comb(l - lam, t)
    clique = math.comb(t * (lam + 1) - 1, t)
    return cover, clique


def emc_value(l: int, t: int, lam: int) -> EmcValue:
    """Conjectured maximum family size, tagged by the first proven regime."""
    _check_emc_params(l, t, lam)
    value = max(conjecture_terms(l, t, lam))
    if lam == 0:
        return EmcValue(value, True, "lambda0")
    if lam == 1:
        return EmcValue(value, True, "EKR")
    if t <= 3:
        return EmcValue(value, True, "t<=3")
    if l >= (2 * lam + 1) * t - lam:
        return EmcValue(value, True, "wide")
    return EmcValue(value, False)


def emc_families(l: int, t: int, lam: int) -> tuple[PositionFamily, PositionFamily]:
    """Build both extremal candidates and certify each has no lam+1 disjoint edges."""
    _check_emc_params(l, t, lam)
    cover_edges = frozenset(
        _mask(s)
        for s in itertools.combinations(range(l), t)
        if any(p < lam for p in s)
    )
    clique_edges = frozenset(
        _mask(s) for s in itertools.combinations(range(t * (lam + 1) - 1), t)
    )
    cover = PositionFamily(l, t, cover_edges)
    clique = PositionFamily(l, t, clique_edges)
    cover_term, clique_term = conjecture_terms(l, t, lam)
    assert len(cover) == cover_term and len(clique) == clique_term
    for fam in (cover, clique):
        nu = matching_number(fam)
        if nu > lam:
            raise AssertionError(f"extremal family has {nu} disjoint edges > lam={lam}")
    return cover, clique


def m_exact(l: int, t: int, lam: int, cap: int = EXHAUSTIVE_CAP) -> EmcValue:
    """Exact maximum by exhaustive branch and bound.

    Searches the complement: the fewest edges whose removal from the complete
    family destroys every (lam+1)-matching. Branching follows one violating
    matching at a time, with earlier members pinned kept so subtrees stay
    disjoint. Refuses instances with binom(l, t) above `cap`.
    """
    _check_emc_params(l, t, lam)
    n_edges = math.comb(l, t)
    if n_edges > cap:
        raise ExhaustiveCapError(
            f"binom({l},{t}) = {n_edges} exceeds the exhaustive cap {cap}; "
            "raise the cap or use emc_value for the formula"
        )
    if cap > EXHAUSTIVE_CAP:
        warnings.warn(
            f"m_exact running above the default cap ({cap} > {EXHAUSTIVE_CAP}); "
            "expect exponential growth",
            RuntimeWarning,
        )
    all_edges = [_mask(s) for s in itertools.combinations(range(l), t)]

    def find_matching(kept: frozenset[int]) -> Optional[tuple[int, ...]]:
        edges = sorted(kept)

        def grow(start: int, used: int, picked: tuple[int, ...]):
            if len(picked) == lam + 1:
                return picked
            for j in range(start, len(edges)):
                if edges[j] & used == 0:
                    got = grow(j + 1, used | edges[j], picked + (edges[j],))
                    if got is not None:
                        return got
            return None

        return grow(0, 0, ())

    # Any certified-feasible family seeds the bound; the larger closed-form
    # candidate is feasible by construction, so start from its complement.
    cover, clique = emc_families(l, t, lam)
    seed = cover if len(cover) >= len(clique) else clique
    best = n_edges - len(seed)

    def search(kept: frozenset[int], deleted: int, pinned: frozenset[int]):
        nonlocal best
        if deleted >= best:
            return
        violating = find_matching(kept)
        if violating is None:
            best = deleted
            return
        for k, e in enumerate(violating):
            if e in pinned:
                continue
            search(kept - {e}, deleted + 1, pinned | set(violating[:k]))

    search(frozenset(all_edges), 0, frozenset())
    return EmcValue(n_edges - best, True, "exhaustive")


def resolve_m(l: int, t: int, lam: int) -> EmcValue:
    """Best available m: formula when proven, exhaustive when feasible,
    otherwise the conjectured formula value (flagged, never refused)."""
    formula = emc_value(l, t, lam)
    if formula.proven:
        return formula
    if math.comb(l, t) <= EXHAUSTIVE_CAP:
        return m_exact(l, t, lam)
    return formula


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _bound_pieces(c: int, l: int) -> tuple[int, int, int, EmcValue]:
    t, lam = lambda_of(c, l)
    m = resolve_m(l, t, lam)
    denom = math.comb(l, t) - m.value
    if denom <= 0:
        raise AssertionError("extremal value reached binom(l, t); bound degenerates")
    return t, lam, denom, m


def blackburn_upper(c: int, l: int, q: int) -> int:
    """Size bound binom(l,t) q^t / (binom(l,t) - m) + binom(l,t-1) q^(t-1),
    evaluated as an exact rational and floored once at the end."""
    if q < 2:
        raise ValueError("q must be at least 2")
    t, _lam, denom, _m = _bound_pieces(c, l)
    exact = Fraction(math.comb(l, t) * q**t, denom) + math.comb(l, t - 1) * q ** (t - 1)
    return math.floor(exact)


def improved_threshold(c: int, l: int) -> Fraction:
    """Smallest q (as an exact rational) at which the lower-order term drops."""
    t, _lam, denom, _m = _bound_pieces(c, l)
    return Fraction(denom, l - t + 1)


def improved_upper(c: int, l: int, q: int) -> Optional[int]:
    """floor(binom(l,t) q^t / (binom(l,t) - m)) when q clears the threshold,
    None below it."""
    if q < 2:
        raise ValueError("q must be at least 2")
    t, _lam, denom, _m = _bound_pieces(c, l)
    if q < improved_threshold(c, l):
        return None
    return math.floor(Fraction(math.comb(l, t) * q**t, denom))


def rate_limit(c: int, l: int) -> Fraction:
    """The q -> infinity limit of (largest code size) / q^t, as a reduced fraction."""
    _t, _lam, denom, _m = _bound_pieces(c, l)
    return Fraction(math.comb(l, _t), denom)


@dataclass(frozen=True)
class BoundsReport:
    """Every bound-side quantity for one (c, l, q), with m's status attached."""

    c: int
    l: int
    q: int
    t: int
    lam: int
    m: EmcValue
    blackburn: int
    improved: Optional[int]
    improved_threshold: Fraction
    rate_limit: Fraction

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "l": self.l,
            "q": self.q,
            "t": self.t,
            "lambda": self.lam,
            "m": self.m.value,
            "m_status": self.m.status,
            "blackburn": self.blackburn,
            "improved": self.improved,
            "improved_threshold": str(self.improved_threshold),
            "rate_limit": str(self.rate_limit),
        }


def bounds_report(c: int, l: int, q: int) -> BoundsReport:
    t, lam = lambda_of(c, l)
    m = resolve_m(l, t, lam)
    return BoundsReport(
        c=c,
        l=l,
        q=q,
        t=t,
        lam=lam,
        m=m,
        blackburn=blackburn_upper(c, l, q),
        improved=improved_upper(c, l, q),
        improved_threshold=improved_threshold(c, l),
        rate_limit=rate_limit(c, l),
    )
