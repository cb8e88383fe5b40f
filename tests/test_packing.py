import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fpc.extremal import complete_family
from fpc.construct import build_extremal_complement
from fpc.packing import (
    GF,
    Candidate,
    NotPrimePowerError,
    SparsifierConfig,
    accept_candidate,
    degree_diagnostics,
    embeddings_per_edge,
    greedy_matching,
    greedy_packing,
    pattern_image_count,
    r_membership,
    rs_packing,
    shadows_disjoint,
    survived_set,
    validate_induced,
    validate_packing,
    _isomorphic_families,
)


class TestGF:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128])
    def test_field_axioms(self, q):
        f = GF(q)
        elems = range(q)
        for a in elems:
            assert f.add[a, 0] == a and f.mul[a, 1] == a and f.mul[a, 0] == 0
        if q <= 9:
            for a in elems:
                for b in elems:
                    assert f.add[a, b] == f.add[b, a]
                    assert f.mul[a, b] == f.mul[b, a]
                    for c in elems:
                        assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]
                        assert f.mul[a, f.mul[b, c]] == f.mul[f.mul[a, b], c]
        for a in range(1, q):
            assert any(f.mul[a, b] == 1 for b in elems)
        for a in elems:
            assert any(f.add[a, b] == 0 for b in elems)

    @pytest.mark.parametrize("q", [6, 10, 12, 15])
    def test_non_prime_powers_rejected(self, q):
        with pytest.raises(NotPrimePowerError):
            GF(q)


class TestRsPacking:
    def test_count_and_validity(self):
        p = rs_packing(4, 2, 5)
        assert len(p) == 125
        assert validate_packing(p)
        assert shadows_disjoint(p.transversals, 2)
        assert len(set(p.transversals)) == 125

    def test_low_uniformity(self):
        p = rs_packing(4, 1, 5)
        assert len(p) == 25
        assert validate_packing(p)
        # MDS tightness: some pair realizes the full allowed agreement.
        best = max(
            sum(a == b for a, b in zip(u, v))
            for u, v in itertools.combinations(p.transversals, 2)
        )
        assert best == 1

    def test_degenerate_t_plus_1_equals_l(self):
        p = rs_packing(3, 2, 3)
        assert sorted(p.transversals) == sorted(itertools.product([1, 2, 3], repeat=3))

    @pytest.mark.parametrize("q", [p for p in range(2, 32) if all(p % d for d in range(2, p))])
    def test_matches_mod_p_horner_for_primes(self, q):
        # Plain-Python reference: Horner's rule mod p over coefficient vectors
        # in itertools.product order, constant term first.
        def reference(l, t):
            words = []
            for coeffs in itertools.product(range(q), repeat=t + 1):
                word = []
                for x in range(l):
                    acc = 0
                    for c in reversed(coeffs):
                        acc = (acc * x + c) % q
                    word.append(acc + 1)
                words.append(tuple(word))
            return tuple(words)

        for l, t in [(3, 0), (2, 1), (5, 1), (4, 2), (5, 3)]:
            if q >= l and q ** (t + 1) <= 30_000:
                assert rs_packing(l, t, q).transversals == reference(l, t)

    def test_prime_power_field(self):
        p = rs_packing(4, 1, 9)
        assert len(p) == 81
        assert validate_packing(p)

    def test_non_prime_power_suggests_greedy(self):
        with pytest.raises(ValueError, match="greedy_packing"):
            rs_packing(4, 2, 6)

    def test_q_below_l_rejected(self):
        with pytest.raises(ValueError, match="greedy_packing"):
            rs_packing(7, 2, 5)

    def test_t_too_large(self):
        with pytest.raises(ValueError):
            rs_packing(4, 4, 5)


class TestGreedyPacking:
    def test_vacuous_agreement(self):
        p = greedy_packing(4, 3, 2, seed=1)
        assert len(p) == 16
        assert validate_packing(p)

    def test_validity_and_floor(self):
        p = greedy_packing(4, 2, 5, seed=7)
        assert validate_packing(p)
        assert len(p) >= 0.5 * 5**3

    def test_seed_determinism(self):
        a = greedy_packing(4, 2, 5, seed=3)
        b = greedy_packing(4, 2, 5, seed=3)
        c = greedy_packing(4, 2, 5, seed=4)
        assert a.transversals == b.transversals
        assert a.transversals != c.transversals

    def test_word_cap(self):
        with pytest.raises(ValueError, match="cap"):
            greedy_packing(8, 2, 9, seed=0, word_cap=1000)


class TestValidatePacking:
    def test_bare_collections(self):
        assert not validate_packing([(1, 1), (1, 2)], t=0)
        assert validate_packing([(1, 1), (2, 2)], t=0)

    @given(
        st.lists(st.tuples(*[st.integers(1, 3)] * 4), max_size=8, unique=True),
        st.integers(0, 3),
    )
    @settings(max_examples=200)
    def test_agreement_iff_shadows(self, words, t):
        assert validate_packing(words, t=t) == shadows_disjoint(words, t)


class TestSparsifier:
    def test_eta_extremes(self):
        a = ((1, 3), (2, 5))
        assert r_membership(a, SparsifierConfig(eta=0.0, seed=1))
        assert not r_membership(a, SparsifierConfig(eta=1.0, seed=1))

    def test_determinism_and_seed_sensitivity(self):
        cfg1 = SparsifierConfig(eta=0.5, seed=11)
        cfg2 = SparsifierConfig(eta=0.5, seed=12)
        elems = [((1, s), (2, u)) for s in range(1, 40) for u in range(1, 40)]
        bits1 = [r_membership(a, cfg1) for a in elems]
        assert bits1 == [r_membership(a, cfg1) for a in elems]
        bits2 = [r_membership(a, cfg2) for a in elems]
        assert bits1 != bits2

    def test_seed_decorrelation_chi2(self):
        cfg1 = SparsifierConfig(eta=0.5, seed=101)
        cfg2 = SparsifierConfig(eta=0.5, seed=202)
        elems = [
            ((1, s), (2, u), (3, v))
            for s in range(1, 18)
            for u in range(1, 18)
            for v in range(1, 18)
        ]
        n = len(elems)
        counts = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
        for a in elems:
            counts[(r_membership(a, cfg1), r_membership(a, cfg2))] += 1
        row = {i: counts[(i, 0)] + counts[(i, 1)] for i in (0, 1)}
        col = {j: counts[(0, j)] + counts[(1, j)] for j in (0, 1)}
        chi2 = sum(
            (counts[(i, j)] - row[i] * col[j] / n) ** 2 / (row[i] * col[j] / n)
            for i in (0, 1)
            for j in (0, 1)
        )
        assert chi2 < 6.63  # 1% point of chi-square with one degree of freedom

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            SparsifierConfig(eta=1.5, seed=0)


class TestSurvivedSet:
    def test_eta0_keeps_everything(self):
        cand = survived_set((1, 2, 3, 4), 2, SparsifierConfig(eta=0.0, seed=5))
        assert len(cand.survived) == math.comb(4, 2)
        assert len(cand.pattern) == math.comb(4, 2)

    def test_eta1_keeps_nothing(self):
        cand = survived_set((1, 2, 3, 4), 2, SparsifierConfig(eta=1.0, seed=5))
        assert not cand.survived and not cand.pattern

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_pattern_bijection(self, seed, eta):
        # A labeled t-subset of U survives iff the sparsifier keeps it.
        U = (2, 4, 1, 3, 5)
        cfg = SparsifierConfig(eta=eta, seed=seed)
        cand = survived_set(U, 3, cfg)
        labeled = itertools.combinations([(p + 1, s) for p, s in enumerate(U)], 3)
        kept = {a for a in labeled if r_membership(a, cfg)}
        assert cand.transversal == U
        assert cand.survived == kept
        masks = {sum(1 << (pos - 1) for pos, _sym in a) for a in kept}
        assert masks == set(cand.pattern)


class TestAcceptCandidate:
    def setup_method(self):
        _, self.F24 = build_extremal_complement(2, 4)
        _, self.F35 = build_extremal_complement(3, 5)

    def test_full_pattern_lambda0(self):
        full = survived_set((1, 1, 1, 1, 1), 3, SparsifierConfig(eta=0.0, seed=1))
        complete = complete_family(5, 3)
        assert accept_candidate(full, "strict", complete, 0)
        assert accept_candidate(full, "relaxed", complete, 0)

    def test_identity_copy_is_strict(self):
        cand = Candidate((1, 1, 1, 1), frozenset(self.F24.edges))
        assert accept_candidate(cand, "strict", self.F24, 1)

    def test_permuted_copy_is_strict(self):
        # Image of the complement pattern under the cycle 1->2->3->4->1.
        perm = {0: 1, 1: 2, 2: 3, 3: 0}
        image = frozenset(
            sum(1 << perm[p] for p in range(4) if e >> p & 1) for e in self.F24.edges
        )
        cand = Candidate((1, 1, 1, 1), image)
        assert accept_candidate(cand, "strict", self.F24, 1)

    @given(st.data())
    @settings(max_examples=150)
    def test_strict_implies_relaxed(self, data):
        fam, lam, l = data.draw(
            st.sampled_from([(self.F24, 1, 4), (self.F35, 1, 5)])
        )
        all_masks = [
            sum(1 << p for p in combo)
            for combo in itertools.combinations(range(l), fam.t)
        ]
        pattern = frozenset(
            data.draw(st.sets(st.sampled_from(all_masks), max_size=len(all_masks)))
        )
        cand = Candidate(tuple([1] * l), pattern)
        if accept_candidate(cand, "strict", fam, lam):
            assert accept_candidate(cand, "relaxed", fam, lam)

    def test_relaxed_rejects_overfull_complement(self):
        sparse = Candidate((1, 1, 1, 1), frozenset({0b0011}))
        assert not accept_candidate(sparse, "relaxed", self.F24, 1)


class TestIsomorphism:
    def test_permuted_families_match(self):
        a = frozenset({0b0011, 0b0110, 0b1100})
        b = frozenset({0b0101, 0b0110, 0b1010})  # relabeled path
        assert _isomorphic_families(a, b, 4)

    def test_degree_mismatch(self):
        star = frozenset({0b0011, 0b0101, 0b1001})
        path = frozenset({0b0011, 0b0110, 0b1100})
        assert not _isomorphic_families(star, path, 4)

    def test_image_counts(self):
        assert pattern_image_count(complete_family(4, 2)) == 1
        _, tri = build_extremal_complement(2, 4)
        assert pattern_image_count(tri) == 4
        assert embeddings_per_edge(tri) == 2
        assert embeddings_per_edge(complete_family(4, 2)) == 1


def _candidates_for(packing, eta, seed):
    cfg = SparsifierConfig(eta=eta, seed=seed)
    return [survived_set(U, packing.t, cfg) for U in packing.transversals]


class TestMatching:
    def test_empty(self):
        assert greedy_matching([], seed=1) == []

    def test_shared_subset_selects_one(self):
        # Both keep positions 1,2, where both read (1, 1).
        a = Candidate((1, 1, 2), frozenset({0b011}))
        b = Candidate((1, 1, 3), frozenset({0b011}))
        assert a.survived == b.survived == {((1, 1), (2, 1))}
        out = greedy_matching([a, b], seed=0)
        assert len(out) == 1

    @pytest.mark.parametrize("strategy", ["greedy", "nibble"])
    def test_maximal_and_disjoint(self, strategy):
        packing = rs_packing(4, 2, 5)
        cands = _candidates_for(packing, 0.3, 9)
        selected = greedy_matching(cands, seed=2, strategy=strategy)
        used = set()
        for cand in selected:
            assert used.isdisjoint(cand.survived)
            used.update(cand.survived)
        chosen = {c.transversal for c in selected}
        for cand in cands:
            if cand.transversal not in chosen:
                assert not used.isdisjoint(cand.survived) or not cand.survived

    @pytest.mark.parametrize("strategy", ["greedy", "nibble"])
    def test_seed_determinism(self, strategy):
        packing = rs_packing(4, 2, 5)
        cands = _candidates_for(packing, 0.2, 4)
        one = greedy_matching(cands, seed=5, strategy=strategy)
        two = greedy_matching(cands, seed=5, strategy=strategy)
        assert [c.transversal for c in one] == [c.transversal for c in two]


def _pairwise_violations(selected, t):
    """Reference for `validate_induced`: every pair of candidates, naming each
    induced-packing condition the pair breaks."""
    for i, a in enumerate(selected):
        for b in selected[i + 1 :]:
            agree = [p for p, (x, y) in enumerate(zip(a.transversal, b.transversal)) if x == y]
            if len(agree) > t:
                yield "agreement"
            if len(agree) == t and t > 0:
                common = tuple((p + 1, a.transversal[p]) for p in agree)
                if common in a.survived or common in b.survived:
                    yield "surviving agreement"
            if not a.survived.isdisjoint(b.survived):
                yield "shared survivor"


_INDUCED_Q = {"rs": 5, "greedy": 4}


@functools.lru_cache(maxsize=None)
def _induced_pool(packing_kind, t):
    l, q = t + 2, _INDUCED_Q[packing_kind]
    if packing_kind == "rs":
        packing = rs_packing(l, t, q)
    else:
        packing = greedy_packing(l, t, q, seed=t)
    return tuple(_candidates_for(packing, 0.3, 11))


def _rigged_pair(a, rig, q):
    """`a` plus a made-up candidate that breaks one induced condition with it."""
    u = a.transversal
    other = tuple(x % q + 1 for x in u)  # differs from u at every position
    kept = min(a.pattern)
    t = kept.bit_count()
    if rig == "agreement":
        # Agrees with u on t + 1 positions.
        b = Candidate(u[: t + 1] + other[t + 1 :], frozenset())
    else:
        # Agrees with u exactly on a t-subset that u kept; keeps nothing, or
        # keeps that same subset.
        w = tuple(u[p] if kept >> p & 1 else other[p] for p in range(len(u)))
        b = Candidate(w, frozenset({kept} if rig == "shared survivor" else ()))
    return [a, b]


class TestValidateInduced:
    @given(
        t=st.integers(1, 3),
        packing_kind=st.sampled_from(["rs", "greedy"]),
        rig=st.sampled_from([None, "agreement", "surviving agreement", "shared survivor"]),
        size=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t=1, packing_kind="rs", rig="agreement", size=0, seed=0)
    @example(t=2, packing_kind="greedy", rig="surviving agreement", size=0, seed=0)
    @example(t=3, packing_kind="rs", rig="shared survivor", size=0, seed=0)
    @settings(max_examples=250, deadline=None)
    def test_matches_pairwise_reference(self, t, packing_kind, rig, size, seed):
        pool = _induced_pool(packing_kind, t)
        rng = random.Random(seed)
        selected = rng.sample(pool, min(size, len(pool)))
        if rig is not None:
            a = rng.choice([cand for cand in pool if cand.pattern])
            selected += _rigged_pair(a, rig, _INDUCED_Q[packing_kind])
            rng.shuffle(selected)
        violations = set(_pairwise_violations(selected, t))
        assert validate_induced(selected, t) == (not violations)
        if rig is not None:
            assert rig in violations

    def test_matching_output_is_induced(self):
        packing = rs_packing(4, 2, 5)
        cands = _candidates_for(packing, 0.1, 8)
        selected = greedy_matching(cands, seed=3)
        assert validate_induced(selected, 2)

    def test_singleton(self):
        cand = survived_set((1, 2, 3, 4), 2, SparsifierConfig(eta=0.0, seed=0))
        assert validate_induced([cand], 2)

    def test_detects_shared_survived_agreement(self):
        # Two transversals agreeing on positions 1,2 whose shared labeled
        # pair survived in both: direct violation of the induced condition.
        u = (1, 1, 1, 1)
        v = (1, 1, 2, 2)
        a = Candidate(u, frozenset({0b0011}))
        b = Candidate(v, frozenset({0b0011}))
        assert not validate_induced([a, b], 2)

    def test_detects_excess_agreement(self):
        a = Candidate((1, 1, 1, 1), frozenset())
        b = Candidate((1, 1, 1, 2), frozenset())
        assert not validate_induced([a, b], 2)


class TestDiagnostics:
    def test_rs_is_claim_tight(self):
        packing = rs_packing(4, 2, 5)
        _, F = build_extremal_complement(2, 4)
        diag = degree_diagnostics(packing, SparsifierConfig(eta=0.05, seed=3), F)
        assert diag.dP_max == 5 and diag.dP_min == 5
        assert diag.frac_high_degree == 1.0
        assert diag.max_codegree <= 1
        assert diag.lambda_F == 2

    def test_complete_family_eta0_exact(self):
        packing = rs_packing(4, 2, 5)
        diag = degree_diagnostics(
            packing, SparsifierConfig(eta=0.0, seed=1), complete_family(4, 2)
        )
        assert diag.lambda_F == 1
        assert diag.expected_D == 5.0
        assert diag.dH_mean == 5.0

    def test_greedy_packing_codegree(self):
        packing = greedy_packing(4, 2, 5, seed=6)
        _, F = build_extremal_complement(2, 4)
        diag = degree_diagnostics(packing, SparsifierConfig(eta=0.1, seed=6), F)
        assert diag.max_codegree <= 1
        assert diag.dP_max <= 5

    def test_sampled_element_path(self):
        packing = rs_packing(4, 2, 5)
        _, F = build_extremal_complement(2, 4)
        diag = degree_diagnostics(
            packing, SparsifierConfig(eta=0.05, seed=3), F, element_cap=50
        )
        assert diag.dP_max == 5 and diag.dP_min == 5
