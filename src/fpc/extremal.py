"""Extremal matching numbers and the derived size bounds.

The central quantity is the largest t-uniform family on [l] vertices with no
lam+1 pairwise disjoint edges. `emc_value` evaluates the conjectured closed
form and tags the parameter regimes where it is a proven theorem. The
certified `extremal_family` is the family whose complement the construction
reserves; the pipeline needs only its size, m, which `bounds_report` carries.
`fpc.oracle.m_exact`, the exhaustive branch and bound that settles small
instances outright, seeds its bound from it. Everything downstream
(`blackburn_upper`, `improved_upper`, `rate_limit`) is exact rational
arithmetic floored at the end, never floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .record import Record


def lambda_of(c: int, l: int) -> tuple[int, int]:
    """The unique (t, lam) with t = ceil(l/c), l = c(t-1) + lam + 1, 0 <= lam < c."""
    if c < 2 or l < 2:
        raise ValueError("need c >= 2 and l >= 2")
    t = -(-l // c)
    lam = l - c * (t - 1) - 1
    assert 0 <= lam <= c - 1
    return t, lam


class PositionFamily(Record):
    """A t-uniform hypergraph on positions [l]; edges as bitmasks (bit i = position i+1).
    Immutable; compares, hashes and prints by (l, t, edges)."""

    __slots__ = ("l", "t", "edges")

    def __init__(self, l: int, t: int, edges: frozenset[int]):
        limit = 1 << l
        for e in edges:
            if not (0 < e < limit) or e.bit_count() != t:
                raise ValueError(f"edge {bin(e)} is not a {t}-subset of [{l}]")
        super().__init__(l, t, edges)

    def __len__(self) -> int:
        return len(self.edges)


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
    """Maximum number of pairwise disjoint edges, by `_largest_matching`."""
    l, t = family.l, family.t
    return len(_largest_matching(sorted(family.edges), l, t, stop=l // t))


def _largest_matching(edges: list[int], l: int, t: int, stop: int) -> tuple[int, ...]:
    """A largest set of pairwise disjoint edges (bitmasks on [l], each of size
    t), by branch and bound, cut short by the first matching of size `stop`
    the search meets. No matching is larger than l // t."""
    best: tuple[int, ...] = ()

    def extend(start: int, used: int, picked: tuple[int, ...], size: int) -> bool:
        nonlocal best
        if size > len(best):
            best = picked
            if size == stop:
                return True
        # Even if every remaining vertex were packed, can we beat best?
        elif size + (l - used.bit_count()) // t <= len(best):
            return False
        for j in range(start, len(edges)):
            e = edges[j]
            if not e & used and extend(j + 1, used | e, picked + (e,), size + 1):
                return True
        return False

    extend(0, 0, (), 0)
    # `extend` holds itself through its closure; unbinding it breaks the
    # cycle, so the search's objects are freed here, not by the collector.
    del extend
    return best


class EmcValue(namedtuple("EmcValue", "value proven regime", defaults=(None,))):
    """A matching-number extremum with its epistemic status.

    `regime` is one of lambda0, EKR, t<=3, wide, exhaustive when proven,
    None when the value rests on the unproven general conjecture.
    """

    __slots__ = ()

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
    """The closed-form m that every bound uses, tagged by the first proven
    regime. Outside them the value rests on the general conjecture: it is
    flagged as conjectured, never refused."""
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


def extremal_family(l: int, t: int, lam: int) -> PositionFamily:
    """The larger certified candidate of `emc_families`; ties go to the
    cover family. The construction reserves its complement, and
    `fpc.oracle.m_exact` seeds its bound from it."""
    cover, clique = emc_families(l, t, lam)
    return cover if len(cover) >= len(clique) else clique


# The m the bounds use, under the name `perfbench/replica.py` imports. It needs
# no exhaustive fallback: `emc_value` leaves a case unproven only when lam >= 2
# and t >= 4, so binom(l, t) >= binom(12, 4) = 495 > `fpc.oracle.EXHAUSTIVE_CAP`.
resolve_m = emc_value


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _bound_pieces(c: int, l: int) -> tuple[int, int, EmcValue, int, Fraction, Fraction]:
    """t, lambda, m, binom(l,t) - m, the improved threshold and the rate limit:
    everything the bounds need that does not depend on q."""
    t, lam = lambda_of(c, l)
    m = emc_value(l, t, lam)
    denom = math.comb(l, t) - m.value
    if denom <= 0:
        raise AssertionError("extremal value reached binom(l, t); bound degenerates")
    return t, lam, m, denom, Fraction(denom, l - t + 1), Fraction(math.comb(l, t), denom)


def blackburn_upper(c: int, l: int, q: int) -> int:
    """Size bound binom(l,t) q^t / (binom(l,t) - m) + binom(l,t-1) q^(t-1),
    evaluated as an exact rational and floored once at the end."""
    return bounds_report(c, l, q).blackburn


def improved_threshold(c: int, l: int) -> Fraction:
    """Smallest q (as an exact rational) at which the lower-order term drops."""
    return _bound_pieces(c, l)[4]


def improved_upper(c: int, l: int, q: int) -> Optional[int]:
    """floor(binom(l,t) q^t / (binom(l,t) - m)) when q clears the threshold,
    None below it."""
    return bounds_report(c, l, q).improved


def rate_limit(c: int, l: int) -> Fraction:
    """The q -> infinity limit of (largest code size) / q^t, as a reduced fraction."""
    return _bound_pieces(c, l)[5]


class BoundsReport(
    namedtuple(
        "BoundsReport",
        "c l q t lam m blackburn improved improved_threshold rate_limit",
    )
):
    """Every bound-side quantity for one (c, l, q), with m's status attached:
    m is an `EmcValue`, `improved` is None below the threshold, and the
    threshold and the rate limit are Fractions."""

    __slots__ = ()

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
    if q < 2:
        raise ValueError("q must be at least 2")
    t, lam, m, denom, threshold, limit = _bound_pieces(c, l)
    leading = Fraction(math.comb(l, t) * q**t, denom)
    return BoundsReport(
        c=c,
        l=l,
        q=q,
        t=t,
        lam=lam,
        m=m,
        blackburn=math.floor(leading + math.comb(l, t - 1) * q ** (t - 1)),
        improved=None if q < threshold else math.floor(leading),
        improved_threshold=threshold,
        rate_limit=limit,
    )
