import collections
import functools
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpc.extremal import PositionFamily, complete_family, position_masks
from fpc.construct import build_extremal_complement
import fpc.packing
from fpc.packing import (
    GF,
    NOT_KEPT,
    Candidate,
    NotPrimePowerError,
    SparsifierConfig,
    TransversalPacking,
    accept_candidate,
    degree_diagnostics,
    embeddings_per_edge,
    greedy_matching,
    greedy_packing,
    greedy_select,
    pattern_images,
    r_membership,
    rs_packing,
    shadows_disjoint,
    shared_patterns,
    sparsify,
    survived_set,
    validate_induced,
    validate_packing,
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

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_matches_table_horner_for_prime_powers(self, q):
        # Plain-Python reference: Horner's rule by 2-D lookups in the field's
        # tables, where a + c is no sum mod q.
        f = GF(q)
        for l, t in [(3, 0), (4, 1), (4, 2), (5, 3)]:
            if q >= l and q ** (t + 1) <= 30_000:
                expected = []
                for coeffs in itertools.product(range(q), repeat=t + 1):
                    word = []
                    for x in range(l):
                        acc = 0
                        for c in reversed(coeffs):
                            acc = f.add[f.mul[x, acc], c]
                        word.append(int(acc) + 1)
                    expected.append(tuple(word))
                assert rs_packing(l, t, q).transversals == tuple(expected)

    @pytest.mark.parametrize(
        "l,t,q", [(4, 2, 13), (6, 2, 16), (3, 0, 5), (5, 3, 7), (3, 0, 251), (3, 0, 257)]
    )
    def test_words_are_the_transversals(self, l, t, q):
        # Symbols take the narrowest type that holds q: uint8 up to 255.
        p = rs_packing(l, t, q)
        assert p.words.dtype == np.min_scalar_type(q) == (np.uint8 if q <= 255 else np.uint16)
        assert p.words.shape == (q ** (t + 1), l)
        assert [tuple(row) for row in p.words.tolist()] == list(p.transversals)

    def test_prime_power_field(self):
        p = rs_packing(4, 1, 9)
        assert len(p) == 81
        assert validate_packing(p)

    def test_non_prime_power_suggests_greedy(self):
        with pytest.raises(ValueError, match="greedy_packing"):
            rs_packing(4, 2, 6)

    def test_prime_power_above_table_cap_suggests_greedy(self):
        with pytest.raises(ValueError, match="a prime above 512; greedy_packing"):
            rs_packing(2, 1, 1024)

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

    def test_words_are_the_sorted_transversals(self):
        p = greedy_packing(4, 2, 5, seed=3)
        assert p.words.dtype == np.uint8
        assert [tuple(row) for row in p.words.tolist()] == list(p.transversals)
        assert list(p.transversals) == sorted(p.transversals)

    def test_word_cap(self):
        with pytest.raises(ValueError, match="cap"):
            greedy_packing(8, 2, 9, seed=0)


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

    def test_blake2b_is_hashlibs(self):
        # The sparsifier hashes with the very function hashlib exports, so
        # importing it from _blake2 moves no bits.
        import hashlib

        assert fpc.packing.blake2b is hashlib.blake2b


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


def _pattern_int(cand):
    """`survived_set`'s pattern in `sparsify`'s encoding."""
    masks = position_masks(len(cand.transversal), next(iter(cand.pattern), 0).bit_count())
    return sum(1 << i for i, m in enumerate(masks) if m in cand.pattern)


def _assert_ids_name_kept_subsets(words, t, patterns, ids):
    """ids[k, i] is NOT_KEPT iff bit i of word k's pattern is clear, and the
    other ids name the kept labeled subsets one to one."""
    names: dict[tuple, int] = {}
    for w, pattern, row in zip(words, patterns.tolist(), ids.tolist()):
        for i, combo in enumerate(itertools.combinations(range(len(w)), t)):
            if pattern >> i & 1:
                assert row[i] != NOT_KEPT
                assert names.setdefault(tuple((p, w[p]) for p in combo), row[i]) == row[i]
            else:
                assert row[i] == NOT_KEPT
    assert len(set(names.values())) == len(names)


class TestSparsify:
    @pytest.mark.parametrize(
        "packing",
        [
            functools.partial(rs_packing, 4, 2, 13),
            functools.partial(rs_packing, 6, 2, 16),
            functools.partial(greedy_packing, 4, 2, 5, seed=7),
        ],
        ids=["rs-4-2-13", "rs-6-2-16", "greedy-4-2-5"],
    )
    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.5, 1.0])
    def test_equals_survived_set(self, packing, eta):
        pack = packing()
        cfg = SparsifierConfig(eta=eta, seed=7)
        patterns, ids = sparsify(pack.words, pack.t, cfg)
        expected = [_pattern_int(survived_set(U, pack.t, cfg)) for U in pack.transversals]
        assert patterns.tolist() == expected
        if eta == 0.0:
            assert set(expected) == {2 ** math.comb(pack.l, pack.t) - 1}
        # Ids take the narrowest type that holds C(l, t) times the most
        # distinct labeled subsets on one combination; patterns the one
        # that holds C(l, t) bits.
        slots, radix = math.comb(pack.l, pack.t), int(pack.words.max()) + 1
        assert ids.dtype == np.min_scalar_type(slots * min(len(pack), radix**pack.t))
        assert ids.shape == (len(pack), slots)
        assert patterns.dtype == np.min_scalar_type(2**slots - 1)
        _assert_ids_name_kept_subsets(pack.transversals, pack.t, patterns, ids)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 7, 2**70 + 3, -1, -(2**40) - 9])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("t,top", [(1, 2**32 - 1), (2, 2**31 - 2), (3, 40)])
    def test_batch_hash_equals_r_membership(self, seed, eta, t, top):
        # Seeds outside 0..2^64-1 reach the key only through its 64-bit mask,
        # and symbols near 2^32 fill the 4-byte field of each record.
        rng = random.Random(seed % 1009)
        symbols = [1, 2, top - 1, top]
        words = [
            tuple(rng.choice(symbols + [rng.randint(1, top)]) for _ in range(4))
            for _ in range(60)
        ]
        cfg = SparsifierConfig(eta=eta, seed=seed)
        patterns, ids = sparsify(words, t, cfg)
        assert patterns.tolist() == [_pattern_int(survived_set(w, t, cfg)) for w in words]
        _assert_ids_name_kept_subsets(words, t, patterns, ids)

    def test_wide_patterns_are_python_ints(self):
        # C(8, 4) = 70 combinations do not fit an int64 pattern.
        rng = random.Random(3)
        words = [tuple(rng.randint(1, 9) for _ in range(8)) for _ in range(20)]
        cfg = SparsifierConfig(eta=0.3, seed=5)
        patterns, ids = sparsify(words, 4, cfg)
        assert patterns.dtype == object
        assert patterns.tolist() == [_pattern_int(survived_set(w, 4, cfg)) for w in words]
        _assert_ids_name_kept_subsets(words, 4, patterns, ids)

    @pytest.mark.parametrize(
        "run,ranks",
        [
            (lambda pack: sparsify(pack.words, 2, SparsifierConfig(eta=0.05, seed=7)), 6),
            (lambda pack: greedy_matching(_candidates_for(pack, 0.05, 7), seed=3), 6),
            (
                lambda pack: degree_diagnostics(
                    pack, SparsifierConfig(eta=0.05, seed=7), build_extremal_complement(2, 4)[1]
                ),
                7,  # the six combinations, then the distinct patterns
            ),
        ],
        ids=["sparsify", "greedy_matching", "degree_diagnostics"],
    )
    def test_one_inverse_alive_at_a_time(self, monkeypatch, run, ranks):
        # The combinations share one word-sized inverse buffer, and any other
        # inverse is freed before the next ranking, or two of them are held.
        rank = fpc.packing._rank
        inverses = []

        def tracked(values, space, inverse):
            alive = [ref() for ref in inverses]
            assert all(a is None or a is inverse for a in alive), "an earlier inverse is alive"
            inverses.append(weakref.ref(inverse))
            return rank(values, space, inverse)

        pack = rs_packing(4, 2, 7)
        monkeypatch.setattr(fpc.packing, "_rank", tracked)
        run(pack)
        assert len(inverses) == ranks

    def test_empty(self):
        patterns, ids = sparsify([], 2, SparsifierConfig(eta=0.1, seed=0))
        assert patterns.tolist() == [] and ids.size == 0

    def test_refuses_keys_beyond_int64(self):
        # (2^16 + 1)^4 > 2^63: the int64 keys would wrap silently.
        with pytest.raises(ValueError, match="below 2\\^63"):
            sparsify([(2**16,) * 5], 4, SparsifierConfig(eta=0.1, seed=0))

    @pytest.mark.parametrize("symbol", [2**32, 2**40, -1])
    def test_refuses_symbols_outside_32_bits(self, symbol):
        # `r_membership` packs each symbol into 4 bytes; a wider array entry
        # must not wrap into another symbol's record.
        with pytest.raises(ValueError, match="0..2\\^32-1"):
            sparsify([(1, symbol, 3)], 1, SparsifierConfig(eta=0.1, seed=0))

    @staticmethod
    def _subset_ranks(monkeypatch, symbols, t, ratio):
        # ratio 0 sends every key space to np.unique; a huge one to the table.
        monkeypatch.setattr(fpc.packing, "_DENSE_RANK_RATIO", ratio)
        radix, n = int(symbols.max()) + 1, len(symbols)
        ranks, first = [], fpc.packing.NOT_KEPT + 1
        buffer = fpc.packing._key_buffer(n, radix, t)
        for combo in itertools.combinations(range(symbols.shape[1]), t):
            inverse = np.empty(n, np.min_scalar_type(min(n, radix**t)))
            keys = fpc.packing._rank(
                fpc.packing._subset_keys(symbols, combo, radix, buffer), radix**t, inverse
            )
            ranks.append((keys, inverse, first))
            first += len(keys)
        return radix, ranks

    @pytest.mark.parametrize("n", [1, 2, 50, 700])
    @pytest.mark.parametrize("t,top", [(1, 3), (2, 12), (3, 5)])
    def test_dense_ranks_equal_sorted_ranks(self, monkeypatch, n, t, top):
        rng = np.random.default_rng(n * 31 + t)
        symbols = rng.integers(0, top + 1, size=(n, 5))
        radix, dense = self._subset_ranks(monkeypatch, symbols, t, 10**9)
        _, unique = self._subset_ranks(monkeypatch, symbols, t, 0)
        for combo, (keys, inverse, first), (ukeys, uinverse, ufirst) in zip(
            itertools.combinations(range(5), t), dense, unique
        ):
            # Keys below 2^31 are int32, and either route ranks into the
            # inverse that the caller sized for the most distinct keys.
            assert keys.dtype == ukeys.dtype == np.int32
            assert inverse.dtype == uinverse.dtype == np.min_scalar_type(min(n, radix**t))
            assert np.array_equal(keys, ukeys) and np.array_equal(inverse, uinverse)
            assert first == ufirst
            assert np.array_equal(keys[inverse], symbols[:, combo] @ radix ** np.arange(t))

    @pytest.mark.parametrize("t,top", [(1, 2**32 - 1), (2, 2**31 - 2)])
    def test_wide_symbols_rank_as_their_offsets(self, monkeypatch, t, top):
        # Symbols near the 32-bit limit have a key space far beyond the word
        # count, so np.unique ranks them; the same words shifted down to 0..9
        # rank through the table, and the ranks are the same.
        rng = np.random.default_rng(top)
        small = rng.integers(0, 10, size=(300, 4))
        wide_radix, wide = self._subset_ranks(monkeypatch, small + (top - 9), t, 4)
        radix, dense = self._subset_ranks(monkeypatch, small, t, 10**9)
        for (wkeys, winverse, wfirst), (keys, inverse, first) in zip(wide, dense):
            assert np.array_equal(winverse, inverse) and wfirst == first
            for j in range(t):
                assert np.array_equal(
                    wkeys // wide_radix**j % wide_radix - (top - 9), keys // radix**j % radix
                )

    @pytest.mark.parametrize("l,t,q", [(4, 2, 13), (6, 2, 16)])
    def test_symbol_dtype_leaves_the_output_alone(self, l, t, q):
        # The packing's uint8 matrix, the same words widened, and its tuples
        # give equal patterns, ids and selections.
        pack = rs_packing(l, t, q)
        assert pack.words.dtype == np.uint8
        cfg = SparsifierConfig(eta=0.05, seed=7)
        forms = [
            pack.words,
            pack.words.astype(np.uint16),
            pack.words.astype(np.int64),
            list(pack.transversals),
        ]
        runs = [sparsify(words, t, cfg) for words in forms]
        rows = np.arange(0, len(pack), 3)
        (patterns, ids), selected = runs[0], greedy_select(runs[0][1], rows, seed=5)
        assert len(selected) > 1
        for other_patterns, other_ids in runs[1:]:
            assert np.array_equal(other_patterns, patterns)
            assert np.array_equal(other_ids, ids)
            assert greedy_select(other_ids, rows, seed=5) == selected

    def test_shared_patterns(self):
        pack = rs_packing(4, 2, 7)
        cfg = SparsifierConfig(eta=0.3, seed=2)
        sets, ids = shared_patterns(sparsify(pack.words, 2, cfg)[0], 4, 2)
        assert ids.dtype == np.uint8  # at most 2^C(4, 2) = 64 patterns
        assert len(set(sets)) == len(sets)
        for U, k in zip(pack.transversals, ids.tolist()):
            assert sets[k] == survived_set(U, 2, cfg).pattern


class TestAcceptCandidate:
    def setup_method(self):
        _, self.F24 = build_extremal_complement(2, 4)

    def test_full_pattern_lambda0(self):
        full = survived_set((1, 1, 1, 1, 1), 3, SparsifierConfig(eta=0.0, seed=1))
        complete = complete_family(5, 3)
        assert accept_candidate(full, "relaxed", complete, 0)

    def test_identity_copy_is_strict(self):
        # A strict copy: the kept pattern is a relabeled copy of the target
        # family, so it is an image and its missing pattern is feasible.
        cand = Candidate((1, 1, 1, 1), frozenset(self.F24.edges))
        assert cand.pattern in pattern_images(self.F24)
        assert accept_candidate(cand, "relaxed", self.F24, 1)

    def test_permuted_copy_is_strict(self):
        # Image of the complement pattern under the cycle 1->2->3->4->1.
        perm = {0: 1, 1: 2, 2: 3, 3: 0}
        image = frozenset(
            sum(1 << perm[p] for p in range(4) if e >> p & 1) for e in self.F24.edges
        )
        cand = Candidate((1, 1, 1, 1), image)
        assert image != self.F24.edges and image in pattern_images(self.F24)
        assert accept_candidate(cand, "relaxed", self.F24, 1)

    def test_relaxed_rejects_overfull_complement(self):
        sparse = Candidate((1, 1, 1, 1), frozenset({0b0011}))
        assert not accept_candidate(sparse, "relaxed", self.F24, 1)

    def test_only_relaxed_mode(self):
        cand = Candidate((1, 1, 1, 1), frozenset(self.F24.edges))
        with pytest.raises(ValueError, match="unknown mode"):
            accept_candidate(cand, "strict", self.F24, 1)


class TestIsomorphism:
    def test_permuted_families_match(self):
        a = frozenset({0b0011, 0b0110, 0b1100})
        b = frozenset({0b0101, 0b0110, 0b1010})  # relabeled path
        assert b in pattern_images(PositionFamily(4, 2, a))

    def test_degree_mismatch(self):
        star = frozenset({0b0011, 0b0101, 0b1001})
        path = frozenset({0b0011, 0b0110, 0b1100})
        assert star not in pattern_images(PositionFamily(4, 2, path))

    def test_image_counts(self):
        assert len(pattern_images(complete_family(4, 2))) == 1
        _, tri = build_extremal_complement(2, 4)
        assert len(pattern_images(tri)) == 4
        assert embeddings_per_edge(tri) == 2
        assert embeddings_per_edge(complete_family(4, 2)) == 1


def _candidates_for(packing, eta, seed):
    cfg = SparsifierConfig(eta=eta, seed=seed)
    return [survived_set(U, packing.t, cfg) for U in packing.transversals]


def _reference_greedy(candidates, seed):
    """The tuple-based greedy pass `greedy_matching` replaced: shuffle the
    candidates, keep each whose labeled subsets are all unused."""
    order = list(candidates)
    random.Random(seed).shuffle(order)
    selected, used = [], set()
    for cand in order:
        survived = cand.survived
        if used.isdisjoint(survived):
            selected.append(cand)
            used.update(survived)
    return selected


@functools.lru_cache(maxsize=None)
def _matching_pool(l, t, q, eta):
    return tuple(_candidates_for(rs_packing(l, t, q), eta, 13))


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

    @pytest.mark.parametrize("strategy", ["greedy"])
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

    @pytest.mark.parametrize("strategy", ["greedy"])
    def test_seed_determinism(self, strategy):
        packing = rs_packing(4, 2, 5)
        cands = _candidates_for(packing, 0.2, 4)
        one = greedy_matching(cands, seed=5, strategy=strategy)
        two = greedy_matching(cands, seed=5, strategy=strategy)
        assert [c.transversal for c in one] == [c.transversal for c in two]

    @given(
        point=st.sampled_from([(4, 2, 7, 0.05), (4, 2, 5, 0.3), (5, 3, 5, 0.2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_greedy(self, point, seed):
        cands = list(_matching_pool(*point))
        got = greedy_matching(cands, seed)
        assert got == _reference_greedy(cands, seed)

    @pytest.mark.parametrize("block", [1, 7, 64, fpc.packing._SELECT_BLOCK])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 1])
    def test_blocks_equal_reference_greedy(self, monkeypatch, block, seed):
        # At eta 0.5 about half the slots hold NOT_KEPT, and 2,197 shuffled
        # words cross the block boundaries many times; a block keeps words
        # that clash with each other, so the in-block resolution matters.
        monkeypatch.setattr(fpc.packing, "_SELECT_BLOCK", block)
        cands = list(_matching_pool(4, 2, 13, 0.5))
        assert len(cands) > 8 * fpc.packing._SELECT_BLOCK
        assert greedy_matching(cands, seed) == _reference_greedy(cands, seed)

    @pytest.mark.parametrize("block", [3, fpc.packing._SELECT_BLOCK])
    def test_select_over_sparsify_ids_equals_reference(self, monkeypatch, block):
        # The route `construct` takes: ids straight from `sparsify`, rows
        # through a subset of the packing.
        monkeypatch.setattr(fpc.packing, "_SELECT_BLOCK", block)
        pack = rs_packing(4, 2, 13)
        cfg = SparsifierConfig(eta=0.5, seed=13)
        _patterns, ids = sparsify(pack.words, 2, cfg)
        rows = np.arange(0, len(pack), 3)
        chosen = greedy_select(ids, rows, 9)
        cands = [survived_set(pack.transversals[k], 2, cfg) for k in rows.tolist()]
        expected = [c.transversal for c in _reference_greedy(cands, 9)]
        assert [pack.transversals[k] for k in chosen] == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 257, 5000])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 1, -3])
    def test_select_order_is_the_list_shuffle(self, n, seed):
        # With no kept subsets every row is selected, in the shuffled order,
        # which must be the order `random.shuffle` gives a list of the rows.
        rows = np.arange(n)[::-1]
        expected = rows.tolist()
        random.Random(seed).shuffle(expected)
        assert greedy_select(np.zeros((n, 1), np.int32), rows, seed) == expected

    def test_empty_patterns_all_selected(self):
        cands = [Candidate((k, 1, 2), frozenset()) for k in range(1, 40)]
        assert greedy_matching(cands, 4) == _reference_greedy(cands, 4)
        assert len(greedy_matching(cands, 4)) == 39

    def test_only_greedy_strategy(self):
        cands = _candidates_for(rs_packing(4, 2, 5), 0.2, 4)
        with pytest.raises(ValueError, match="unknown strategy"):
            greedy_matching(cands, 0, "nibble")


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

    def test_kept_mask_must_be_a_t_set(self):
        # A 3-set of positions is no labeled 2-subset of the word.
        assert not validate_induced([Candidate((1, 2, 3, 4), frozenset({0b0111}))], 2)

    def test_t_below_one_refused(self):
        with pytest.raises(ValueError, match="below 1"):
            validate_induced([], 0)


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

    def test_non_packing_codegree_two(self):
        # The first two words agree on positions 1..3, more than t = 2, so at
        # eta 0 both keep all three pairs of labeled subsets there.
        words = np.array([(1, 1, 1, 1), (1, 1, 1, 2), (2, 3, 4, 5)])
        packing = TransversalPacking(l=4, q=5, t=2, words=words)
        assert not fpc.packing._agree_at_most(words, 2, 6)
        diag = degree_diagnostics(packing, SparsifierConfig(eta=0.0, seed=1), complete_family(4, 2))
        assert diag.max_codegree == 2

    @pytest.mark.parametrize(
        "packing",
        [rs_packing(4, 2, 5), rs_packing(4, 2, 7), rs_packing(5, 3, 5), greedy_packing(4, 2, 5, seed=6)],
        ids=["rs-4-2-5", "rs-4-2-7", "rs-5-3-5", "greedy-4-2-5"],
    )
    @pytest.mark.parametrize("eta", [0.05, 0.5, 0.97, 1.0])
    def test_packing_codegree_equals_pair_counts(self, packing, eta):
        # Packings take the agreement-bound answer; it must equal the count
        # of candidates keeping each pair of labeled subsets.
        assert fpc.packing._agree_at_most(packing.words, packing.t, packing.q + 1)
        cfg = SparsifierConfig(eta=eta, seed=4)
        family = build_extremal_complement(2, packing.l)[1]
        diag = degree_diagnostics(packing, cfg, family)
        codegree = collections.Counter(
            pair
            for w in packing.transversals
            for pair in itertools.combinations(sorted(survived_set(w, packing.t, cfg).survived), 2)
        )
        assert diag.max_codegree == max(codegree.values(), default=0)

    @pytest.mark.parametrize("eta", [0.3, 0.45])
    def test_counts_equal_tuple_counters(self, eta):
        # Words over q = 3 repeat pairs of labeled subsets, so this is no
        # packing and codegrees exceed 1. The reference counts labeled-subset
        # tuples as `degree_diagnostics` did before it counted ids.
        rng = random.Random(8)
        words = sorted({tuple(rng.randint(1, 3) for _ in range(4)) for _ in range(50)})
        packing = TransversalPacking(l=4, q=3, t=2, words=np.array(words))
        cfg = SparsifierConfig(eta=eta, seed=4)
        _, family = build_extremal_complement(2, 4)
        diag = degree_diagnostics(packing, cfg, family)

        grid = list(itertools.product(range(1, 4), repeat=2))
        elements = [
            tuple((p + 1, s) for p, s in zip(combo, syms))
            for combo in itertools.combinations(range(4), 2)
            for syms in grid
        ]
        cands = [survived_set(w, 2, cfg) for w in words]
        dP = collections.Counter(a for w in words for a in _labeled(w, 2))
        copies = [c for c in cands if c.pattern in pattern_images(family)]
        dH = collections.Counter(a for c in copies for a in c.survived)
        in_r = [a for a in elements if r_membership(a, cfg)]
        codegree = collections.Counter(
            pair for c in cands for pair in itertools.combinations(sorted(c.survived), 2)
        )
        degrees = [dP[a] for a in elements]
        threshold = (1 - math.sqrt(max(0.0, 1 - len(words) / 3**3))) * 3
        assert copies and in_r
        assert (diag.dP_max, diag.dP_min) == (max(degrees), min(degrees))
        assert diag.frac_high_degree == sum(d >= threshold for d in degrees) / len(degrees)
        assert diag.dH_mean == sum(dH[a] for a in in_r) / len(in_r)
        assert diag.max_codegree == max(codegree.values()) > 1


def _labeled(w, k):
    return itertools.combinations([(p + 1, s) for p, s in enumerate(w)], k)
