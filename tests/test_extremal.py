import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpc.extremal import (
    EmcValue,
    PositionFamily,
    blackburn_upper,
    bounds_report,
    complete_family,
    conjecture_terms,
    emc_families,
    emc_value,
    improved_threshold,
    improved_upper,
    lambda_of,
    matching_number,
    rate_limit,
    resolve_m,
)
from fpc.oracle import EXHAUSTIVE_CAP, ExhaustiveCapError, m_exact


def brute_matching_number(family: PositionFamily) -> int:
    """Oracle: try every subset of edges for pairwise disjointness."""
    edges = list(family.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        for sub in itertools.combinations(edges, r):
            union = 0
            total = 0
            for e in sub:
                union |= e
                total += e.bit_count()
            if union.bit_count() == total:
                return r
    return best


def brute_m(l: int, t: int, lam: int) -> int:
    """Oracle for tiny instances: scan all subfamilies of the complete family."""
    masks = [sum(1 << p for p in combo) for combo in itertools.combinations(range(l), t)]
    best = 0
    for r in range(len(masks), 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(masks, r):
            fam = PositionFamily(l, t, frozenset(sub))
            if matching_number(fam) <= lam:
                best = r
                break
    return best


@st.composite
def families(draw, max_l=6, max_edges=8):
    l = draw(st.integers(2, max_l))
    t = draw(st.integers(1, l))
    masks = [sum(1 << p for p in combo) for combo in itertools.combinations(range(l), t)]
    edges = draw(st.lists(st.sampled_from(masks), max_size=max_edges, unique=True))
    return PositionFamily(l, t, frozenset(edges))


class TestLambdaOf:
    @pytest.mark.parametrize(
        "c,l,expected",
        [(2, 4, (2, 1)), (2, 5, (3, 0)), (3, 5, (2, 1)), (2, 6, (3, 1)), (4, 6, (2, 1))],
    )
    def test_examples(self, c, l, expected):
        assert lambda_of(c, l) == expected

    @given(st.integers(2, 12), st.integers(2, 60))
    def test_defining_identity(self, c, l):
        t, lam = lambda_of(c, l)
        assert t == math.ceil(l / c)
        assert l == c * (t - 1) + lam + 1
        assert 0 <= lam <= c - 1


class TestMatchingNumber:
    def test_empty(self):
        assert matching_number(PositionFamily(4, 2, frozenset())) == 0

    def test_disjoint_pair(self):
        fam = PositionFamily(4, 2, frozenset({0b0011, 0b1100}))
        assert matching_number(fam) == 2

    def test_complete_k4(self):
        assert matching_number(complete_family(4, 2)) == 2

    @given(families())
    @settings(max_examples=200)
    def test_against_brute_force(self, fam):
        assert matching_number(fam) == brute_matching_number(fam)


class TestMExact:
    @pytest.mark.parametrize(
        "l,t,lam,expected",
        [(4, 2, 1, 3), (5, 2, 1, 4), (6, 2, 2, 10), (6, 3, 1, 10), (5, 2, 0, 0), (6, 3, 0, 0)],
    )
    def test_spot_values(self, l, t, lam, expected):
        got = m_exact(l, t, lam)
        assert got.value == expected
        assert got.status == "proven(exhaustive)"

    def test_cap_refusal(self):
        with pytest.raises(ExhaustiveCapError, match="cap"):
            m_exact(9, 3, 2)

    def test_above_cap_warns(self):
        with pytest.warns(RuntimeWarning):
            m_exact(7, 2, 1, cap=21)

    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            m_exact(3, 2, 1)  # l < t(lam+1)
        for t, lam in ((0, 1), (2, -1)):
            for run in (m_exact, emc_value, emc_families):
                with pytest.raises(ValueError, match="need t >= 1 and lam >= 0"):
                    run(6, t, lam)

    @pytest.mark.parametrize("l,t,lam", [(4, 2, 1), (5, 2, 1), (6, 2, 1), (4, 1, 2), (5, 1, 3)])
    def test_against_subset_scan(self, l, t, lam):
        assert m_exact(l, t, lam).value == brute_m(l, t, lam)


class TestEmcValue:
    def test_ekr(self):
        got = emc_value(6, 3, 1)
        assert (got.value, got.status) == (10, "proven(EKR)")

    def test_first_matching_regime_order(self):
        # lam=1 is claimed by EKR before the wide regime gets a look.
        assert emc_value(4, 2, 1).regime == "EKR"

    def test_t_le_3(self):
        got = emc_value(6, 2, 2)
        assert (got.value, got.regime) == (10, "t<=3")

    def test_lambda0(self):
        got = emc_value(7, 3, 0)
        assert (got.value, got.regime) == (0, "lambda0")

    def test_wide(self):
        # t=4, lam=2: wide needs l >= 9*4 - 2 = 34.
        got = emc_value(34, 4, 2)
        assert got.regime == "wide"
        assert got.value == math.comb(34, 4) - math.comb(32, 4)

    def test_conjectured_outside_regimes(self):
        got = emc_value(12, 4, 2)
        assert not got.proven
        assert got.status == "conjectured"

    def test_singleton_uniformity(self):
        assert emc_value(5, 1, 3).value == 3

    def test_unproven_cases_lie_above_the_exhaustive_cap(self):
        # Why resolve_m needs no exhaustive fallback: every case the closed
        # form leaves unproven is too large for m_exact anyway.
        unproven = 0
        for l in range(2, 41):
            for t in range(1, l + 1):
                for lam in range(0, l // t):
                    formula = emc_value(l, t, lam)
                    assert resolve_m(l, t, lam) == formula
                    if not formula.proven:
                        unproven += 1
                        assert math.comb(l, t) > EXHAUSTIVE_CAP, (l, t, lam)
        assert unproven > 0

    def test_agreement_with_exhaustive_in_proven_grid(self):
        for l in range(2, 7):
            for t in range(1, 4):
                for lam in range(0, 3):
                    if l < t * (lam + 1):
                        continue
                    formula = emc_value(l, t, lam)
                    assert formula.proven
                    assert formula.value == m_exact(l, t, lam).value


class TestEmcFamilies:
    def test_small_case(self):
        cover, clique = emc_families(4, 2, 1)
        # The star at position 1: {1,2}, {1,3}, {1,4} as bitmasks.
        assert cover.edges == {0b0011, 0b0101, 0b1001}
        assert len(clique) == math.comb(3, 2)

    def test_sizes_match_terms(self):
        cover, clique = emc_families(6, 2, 2)
        assert (len(cover), len(clique)) == (9, 10)
        # The clique lies on positions 1..5.
        assert all(e < 1 << 5 for e in clique.edges)

    @pytest.mark.parametrize("l,t,lam", [(4, 2, 1), (6, 2, 2), (6, 3, 1), (5, 2, 0), (9, 3, 2)])
    def test_feasible_and_extremal(self, l, t, lam):
        cover, clique = emc_families(l, t, lam)
        assert matching_number(cover) <= lam
        assert matching_number(clique) <= lam
        assert emc_value(l, t, lam).value == max(len(cover), len(clique))


class TestBounds:
    def test_blackburn_values(self):
        assert blackburn_upper(2, 4, 16) == 576
        assert blackburn_upper(3, 5, 10) == 216

    def test_blackburn_lambda0_collapse(self):
        for q in (4, 7, 11):
            assert blackburn_upper(2, 5, q) == q**3 + math.comb(5, 2) * q**2

    def test_improved_values(self):
        assert improved_upper(2, 4, 16) == 512
        assert improved_threshold(2, 4) == 1

    def test_improved_is_cube_for_l5(self):
        assert improved_threshold(2, 5) == Fraction(10, 3)
        for q in (4, 5, 7, 11, 16):
            assert improved_upper(2, 5, q) == q**3

    def test_improved_below_threshold_absent(self):
        # (3,7): t=3, lam=0, threshold = binom(7,3)/5 = 7.
        assert improved_threshold(3, 7) == 7
        assert improved_upper(3, 7, 6) is None
        assert improved_upper(3, 7, 7) == 7**3

    def test_improved_dominated_by_blackburn(self):
        for c, l, q in [(2, 4, 16), (2, 5, 11), (3, 5, 10), (2, 4, 13)]:
            imp = improved_upper(c, l, q)
            if imp is not None:
                assert imp <= blackburn_upper(c, l, q)

    @pytest.mark.parametrize(
        "c,l,expected",
        [
            (2, 4, Fraction(2)),
            (2, 6, Fraction(2)),
            (3, 5, Fraction(5, 3)),
            (4, 6, Fraction(3, 2)),
            (2, 5, Fraction(1)),
        ],
    )
    def test_rate_limits(self, c, l, expected):
        assert rate_limit(c, l) == expected

    @pytest.mark.parametrize("c,l", [(2, 4), (2, 5), (3, 5), (4, 6), (2, 6)])
    def test_leading_coefficient_is_rate_limit(self, c, l):
        t, lam = lambda_of(c, l)
        m = resolve_m(l, t, lam)
        assert rate_limit(c, l) == Fraction(math.comb(l, t), math.comb(l, t) - m.value)
        # Numerically: blackburn/q^t converges onto the limit from above.
        for q in (10**3, 10**6):
            ratio = Fraction(blackburn_upper(c, l, q), q**t)
            assert rate_limit(c, l) <= ratio + Fraction(1, q**t)
            assert ratio - rate_limit(c, l) <= Fraction(math.comb(l, t - 1), q)

    def test_report_fields(self):
        rep = bounds_report(2, 4, 16)
        assert (rep.t, rep.lam) == (2, 1)
        assert rep.m == EmcValue(3, True, "EKR")
        assert rep.blackburn == 576 and rep.improved == 512
        assert rep.rate_limit == 2
        assert math.comb(rep.l, rep.t) - rep.m.value > 0

    def test_conjecture_terms(self):
        assert conjecture_terms(6, 2, 2) == (9, 10)
        assert conjecture_terms(4, 2, 1) == (3, 3)
