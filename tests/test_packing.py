import collections
import functools
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpc.extremal import (
    PositionFamily,
    bounds_report,
    complete_family,
    matching_number,
    position_masks,
)
from fpc.construct import build_extremal_complement
from fpc.diagnose import degree_diagnostics, embeddings_per_edge, pattern_images
import fpc.candidate
import fpc.packing
from fpc.candidate import Candidate, SparsifierConfig, accept_pattern
from fpc.field import GF, NotPrimePowerError
from fpc.packing import (
    TransversalPacking,
    flagged_rows,
    greedy_packing,
    greedy_select,
    rs_packing,
    shared_patterns,
    sparsify,
)
from fpc.reference import accept_candidate, greedy_matching, r_membership, survived_set
from fpc.shuffle import shuffle
from fpc.validate import validate_induced, validate_packing


def test_moved_names_still_import_from_packing():
    # The reference routes and validate_induced left fpc.packing; it loads
    # each on first use of the old name, which perfbench/replica.py imports.
    import fpc.reference
    import fpc.validate

    for name in ("survived_set", "accept_candidate", "greedy_matching"):
        assert getattr(fpc.packing, name) is getattr(fpc.reference, name)
    assert fpc.packing.validate_induced is fpc.validate.validate_induced
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fpc.packing.no_such_name


class TestGF:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128])
    def test_field_axioms(self, q):
        f = GF(q)
        elems = range(q)
        mul = [f.mul_row(a) for a in elems]
        for a in elems:
            assert f.add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        if q <= 9:
            for a in elems:
                for b in elems:
                    assert f.add[a][b] == f.add[b][a]
                    assert mul[a][b] == mul[b][a]
                    for c in elems:
                        assert mul[a][f.add[b][c]] == f.add[mul[a][b]][mul[a][c]]
                        assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
        for a in range(1, q):
            assert any(mul[a][b] == 1 for b in elems)
        for a in elems:
            assert any(f.add[a][b] == 0 for b in elems)

    @pytest.mark.parametrize("q", [6, 10, 12, 15])
    def test_non_prime_powers_rejected(self, q):
        with pytest.raises(NotPrimePowerError):
            GF(q)

    def test_prime_power_above_table_cap_refused(self):
        # 529 = 23^2; a prime of any order has its field.
        with pytest.raises(ValueError, match="table-backed GF\\(529\\) capped at order 512"):
            GF(529)


class TestRsPacking:
    def test_count_and_validity(self):
        p = rs_packing(4, 2, 5)
        assert len(p) == 125
        assert validate_packing(p.transversals, p.t)
        assert len(set(p.transversals)) == 125

    def test_low_uniformity(self):
        p = rs_packing(4, 1, 5)
        assert len(p) == 25
        assert validate_packing(p.transversals, p.t)
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
        mul = [f.mul_row(x) for x in range(q)]
        for l, t in [(3, 0), (4, 1), (4, 2), (5, 3)]:
            if q >= l and q ** (t + 1) <= 30_000:
                expected = []
                for coeffs in itertools.product(range(q), repeat=t + 1):
                    word = []
                    for x in range(l):
                        acc = 0
                        for c in reversed(coeffs):
                            acc = f.add[mul[x][acc]][c]
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
        assert validate_packing(p.transversals, p.t)

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
        assert validate_packing(p.transversals, p.t)

    def test_validity_and_floor(self):
        p = greedy_packing(4, 2, 5, seed=7)
        assert validate_packing(p.transversals, p.t)
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
        with pytest.raises(ValueError, match="need t\\+1 <= l, got t=4, l=4"):
            greedy_packing(4, 4, 5, seed=0)
        with pytest.raises(ValueError, match="q must be at least 2"):
            greedy_packing(4, 2, 1, seed=0)

    def test_builds_above_two_million_words(self):
        # 38^4 = 2,085,136 words, with the estimate for their labeled
        # 3-subsets, are within the byte cap. The packing has tens of thousands of words;
        # validate_packing counts their projections, one set per 3 of the 4
        # positions, where a loop over word pairs would take minutes.
        assert 38**4 > 2_000_000
        p = greedy_packing(4, 2, 38, seed=1)
        assert p.words.dtype == np.uint8 and p.words.flags.c_contiguous
        started = time.perf_counter()
        assert validate_packing(p.transversals, p.t)
        assert time.perf_counter() - started < 5.0
        assert len(p) >= 0.5 * 38**3


def _claimed_set_packing(l, t, q, seed):
    """The greedy packing as one Python loop: shuffle all q^l words with
    random.Random(seed), keep a word iff none of its labeled
    (t+1)-subsets is claimed, and claim the subsets of every kept word."""
    words = list(itertools.product(range(1, q + 1), repeat=l))
    random.Random(seed).shuffle(words)
    claimed, kept = set(), []
    for w in words:
        shadow = list(itertools.combinations(enumerate(w), t + 1))
        if claimed.isdisjoint(shadow):
            kept.append(w)
            claimed.update(shadow)
    return sorted(kept)


class TestGreedyPackingReference:
    # (l, t, q): t+1 = l, q = 2, composite q, q < l and t = 0; seeds 0, 1, 7.
    POINTS = [
        (3, 2, 3), (4, 3, 2), (2, 1, 5),
        (5, 2, 2), (6, 3, 2), (4, 1, 2),
        (4, 2, 6), (3, 1, 10), (4, 1, 4),
        (5, 2, 3), (6, 2, 4), (7, 3, 2),
        (3, 0, 4),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("l,t,q", POINTS)
    def test_words_equal_the_claimed_set_loop(self, l, t, q, seed):
        expected = np.array(_claimed_set_packing(l, t, q, seed), dtype=np.min_scalar_type(q))
        words = greedy_packing(l, t, q, seed).words
        assert words.dtype == expected.dtype
        assert words.shape == expected.shape
        assert np.array_equal(words, expected)


def _pairwise_agree_at_most(words, t):
    """The packing definition, pair by pair: no two words agree in more
    than t coordinates."""
    return all(
        sum(a == b for a, b in zip(u, v)) <= t for u, v in itertools.combinations(words, 2)
    )


class TestValidatePacking:
    def test_bare_collections(self):
        assert not validate_packing([(1, 1), (1, 2)], t=0)
        assert validate_packing([(1, 1), (2, 2)], t=0)

    @given(
        st.lists(st.tuples(*[st.integers(1, 3)] * 4), max_size=8),
        st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_agreement_iff_shadows(self, words, t):
        # Repeated words and t >= l are in range too.
        assert validate_packing(words, t=t) == _pairwise_agree_at_most(words, t)

    @pytest.mark.parametrize("t", [-1, -3])
    def test_negative_t_refused(self, t):
        # As validate_induced refuses t below 1, with no empty projection.
        with pytest.raises(ValueError, match=f"t={t} below 0"):
            validate_packing([(1, 2), (2, 1)], t=t)

    @pytest.mark.parametrize("words", [[(1, 2, 3), (1, 2)], [(1, 2), (3, 4, 5), (1, 2)]])
    def test_ragged_words_refused(self, words):
        # Comparing common prefixes would call the first collection a packing.
        with pytest.raises(ValueError, match="unequal lengths"):
            validate_packing(words, t=2)


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

        assert fpc.candidate.blake2b is hashlib.blake2b


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


def _assert_names_kept_subsets(words, t, cfg, kept, patterns):
    """patterns[k] is word k's `survived_set` pattern, and the True entries
    of `kept` are exactly the labeled subsets of the words that
    `r_membership` keeps, one entry per subset: kept[i, s_1, ..., s_t] for
    the subset with symbols s_1..s_t on combination i."""
    assert len(patterns) == len(words)
    assert patterns.tolist() == [_pattern_int(survived_set(w, t, cfg)) for w in words]
    combos = list(itertools.combinations(range(len(words[0])), t))
    expected = {
        (i,) + tuple(w[p] for p in combo)
        for w in words
        for i, combo in enumerate(combos)
        if r_membership(tuple((p + 1, w[p]) for p in combo), cfg)
    }
    assert kept.shape == (len(combos),) + (max(map(max, words)) + 1,) * t
    assert set(map(tuple, np.argwhere(kept).tolist())) == expected


def _matrix(words):
    """Equal-length words as an int64 matrix."""
    return np.array(words, dtype=np.int64)


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
        kept, patterns = sparsify(pack.words, pack.t, cfg)
        slots = math.comb(pack.l, pack.t)
        if eta == 0.0:
            assert (patterns == (1 << slots) - 1).all()
        # Patterns take the narrowest type that holds C(l, t) bits.
        assert patterns.dtype == np.min_scalar_type((1 << slots) - 1)
        _assert_names_kept_subsets(pack.transversals, pack.t, cfg, kept, patterns)
        sets, index = shared_patterns(patterns, pack.l, pack.t)
        expected = [survived_set(U, pack.t, cfg).pattern for U in pack.transversals]
        assert [sets[k] for k in index.tolist()] == expected

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 7, 2**70 + 3, -1, -(2**40) - 9])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("t,top", [(1, 2**32 - 1), (2, 2**31 - 2), (3, 40)])
    def test_batch_hash_equals_r_membership(self, seed, eta, t, top):
        # Seeds outside 0..2^64-1 reach the key only through its 64-bit mask,
        # and symbols near 2^32 fill the 4-byte field of each record. Their
        # kept table would pass the byte cap, so `_kept` hashes their keys
        # directly; at top 40 `sparsify` runs whole.
        rng = random.Random(seed % 1009)
        symbols = [1, 2, top - 1, top]
        words = [
            tuple(rng.choice(symbols + [rng.randint(1, top)]) for _ in range(4))
            for _ in range(60)
        ]
        cfg = SparsifierConfig(eta=eta, seed=seed)
        radix = max(map(max, words)) + 1
        for combo in itertools.combinations(range(4), t):
            keys = fpc.packing._subset_keys(_matrix(words), combo, radix)
            expected = [r_membership(tuple((p + 1, w[p]) for p in combo), cfg) for w in words]
            assert fpc.packing._kept(combo, keys, radix, cfg).tolist() == expected
        if top == 40:
            _assert_names_kept_subsets(words, t, cfg, *sparsify(words, t, cfg))

    def test_wide_patterns_are_python_ints(self):
        # C(8, 4) = 70 slots do not fit an int64 pattern, so the patterns are
        # Python ints, which `shared_patterns` ranks.
        rng = random.Random(3)
        words = [tuple(rng.randint(1, 9) for _ in range(8)) for _ in range(20)]
        cfg = SparsifierConfig(eta=0.3, seed=5)
        kept, patterns = sparsify(words, 4, cfg)
        assert kept.shape == (70,) + (10,) * 4
        assert patterns.dtype == object
        _assert_names_kept_subsets(words, 4, cfg, kept, patterns)
        sets, index = shared_patterns(patterns, 8, 4)
        assert [sets[k] for k in index.tolist()] == [survived_set(w, 4, cfg).pattern for w in words]

    @pytest.mark.parametrize(
        "run,held",
        [
            (lambda pack: sparsify(pack.words, 2, SparsifierConfig(eta=0.0, seed=7)), (1, 9)),
            (
                lambda pack: degree_diagnostics(
                    pack, SparsifierConfig(eta=0.0, seed=7), build_extremal_complement(2, 4)[1]
                ),
                (2, 32),
            ),
        ],
        ids=["sparsify", "degree_diagnostics"],
    )
    def test_no_word_sized_temporary(self, monkeypatch, run, held):
        # With 1,024-row chunks the traced peak is what the pass must hold,
        # per word (the patterns, and for the diagnostics their index too)
        # and per labeled subset of the key grid, plus the chunks'
        # temporaries. One word-sized array of keys, 2 bytes a word here,
        # would break the bound. At eta 0 nothing is hashed.
        monkeypatch.setattr(fpc.packing, "_ROW_CHUNK", 1024)
        pack = rs_packing(4, 2, 47)
        run(pack)  # the lazy imports and cached families
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(pack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        per_word, per_subset = held
        allowed = per_word * len(pack) + per_subset * 6 * 48**2 + 32 * 1024
        assert peak <= allowed < peak + 2 * len(pack)

    def test_global_keys_span_every_combination(self):
        # 200 symbols on each of C(4, 2) = 6 combinations: one combination's
        # keys fit int32 as 201^2 does, and so do the global keys, 6 * 201^2
        # of them. At eta 0 nothing is hashed and every present subset is
        # kept.
        rng = np.random.default_rng(4)
        words = rng.integers(1, 201, size=(60000, 4), dtype=np.uint8)
        kept, patterns = sparsify(words, 2, SparsifierConfig(eta=0.0, seed=0))
        assert kept.shape == (6, 201, 201) and (patterns == 63).all()
        for row, combo in zip(kept, itertools.combinations(range(4), 2)):
            present = np.zeros((201, 201), dtype=bool)
            present[words[:, combo[0]], words[:, combo[1]]] = True
            assert np.array_equal(row, present)
        rows = rng.permutation(len(words))[:50000].astype(np.int32)
        expected = _sequential_select(words, kept, rows.tolist())
        assert greedy_select(words, kept, rows) == expected

    def test_empty(self):
        kept, patterns = sparsify([], 2, SparsifierConfig(eta=0.1, seed=0))
        assert kept.size == 0 and patterns.size == 0
        sets, index = shared_patterns(patterns, 4, 2)
        assert sets == [] and index.size == 0

    def test_refuses_keys_beyond_int64(self):
        # (2^16 + 1)^4 > 2^63: int64 keys would wrap silently. Their kept
        # table, C(5, 4) * (2^16 + 1)^4 bytes, is refused before that.
        with pytest.raises(ValueError, match="above the 1 GiB cap"):
            sparsify([(2**16,) * 5], 4, SparsifierConfig(eta=0.1, seed=0))

    @pytest.mark.parametrize("symbol", [2**32, 2**40, -1])
    def test_refuses_symbols_outside_32_bits(self, symbol):
        # `r_membership` packs each symbol into 4 bytes; a wider array entry
        # must not wrap into another symbol's record.
        with pytest.raises(ValueError, match="0..2\\^32-1"):
            sparsify([(1, symbol, 3)], 1, SparsifierConfig(eta=0.1, seed=0))

    @pytest.mark.parametrize("n", [1, 2, 50, 700])
    @pytest.mark.parametrize("t,top", [(1, 3), (2, 12), (3, 5)])
    def test_dense_ranks_equal_sorted_ranks(self, monkeypatch, n, t, top):
        # `_rank` of the patterns of random words, through the presence
        # table (a huge ratio) and through np.unique (ratio 0), with row
        # chunks of 7 so that the table's passes cross chunk edges.
        rng = np.random.default_rng(n * 31 + t)
        symbols = rng.integers(0, top + 1, size=(n, 5))
        _, patterns = sparsify(symbols, t, SparsifierConfig(eta=0.4, seed=n))
        space = 1 << math.comb(5, t)
        monkeypatch.setattr(fpc.packing, "_ROW_CHUNK", 7)
        ranks = []
        for ratio in (10**9, 0):
            monkeypatch.setattr(fpc.packing, "_DENSE_RANK_RATIO", ratio)
            inverse = np.empty(n, np.min_scalar_type(min(n, space)))
            ranks.append((fpc.packing._rank(patterns, space, inverse), inverse))
        (distinct, inverse), (udistinct, uinverse) = ranks
        assert distinct.dtype == udistinct.dtype == patterns.dtype
        assert np.array_equal(distinct, udistinct) and np.array_equal(inverse, uinverse)
        assert np.array_equal(distinct[inverse], patterns)

    @pytest.mark.parametrize("t,top", [(1, 2**32 - 1), (2, 2**31 - 2), (3, 40)])
    def test_keys_decode_to_their_symbols(self, t, top):
        # Each key's base-radix digits are the subset's symbols, the first
        # position highest, up to symbols near the 32-bit limit; the key
        # takes the signed type that holds radix**t.
        rng = np.random.default_rng(top)
        symbols = rng.integers(0, 10, size=(300, 4)) + (top - 9)
        radix = top + 1
        for combo in itertools.combinations(range(4), t):
            keys = fpc.packing._subset_keys(symbols, combo, radix)
            assert keys.dtype == np.min_scalar_type(-1 - radix**t)
            for j, p in enumerate(combo):
                assert np.array_equal(keys // radix ** (t - 1 - j) % radix, symbols[:, p])

    @pytest.mark.parametrize("l,t,q", [(4, 2, 13), (6, 2, 16)])
    def test_symbol_dtype_leaves_the_output_alone(self, l, t, q):
        # The packing's uint8 matrix, the same words widened, and its tuples
        # give equal kept tables, patterns and selections.
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
        rows = shuffle(np.arange(0, len(pack), 3, dtype=np.int32), 5)
        kept, patterns = runs[0]
        selected = greedy_select(pack.words, kept, rows)
        assert len(selected) > 1
        for words, (other_kept, other_patterns) in zip(forms[1:], runs[1:]):
            assert np.array_equal(other_kept, kept) and np.array_equal(other_patterns, patterns)
            assert greedy_select(np.asarray(words), other_kept, rows) == selected

    def test_shared_patterns(self):
        pack = rs_packing(4, 2, 7)
        cfg = SparsifierConfig(eta=0.3, seed=2)
        sets, index = shared_patterns(sparsify(pack.words, 2, cfg)[1], 4, 2)
        assert index.dtype == np.uint8  # at most 2^C(4, 2) = 64 patterns
        assert len(set(sets)) == len(sets)
        for U, k in zip(pack.transversals, index.tolist()):
            assert sets[k] == survived_set(U, 2, cfg).pattern

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
    def test_flagged_rows_equal_flatnonzero(self, monkeypatch, n):
        # Chunks of 1,024 rows, and the rows found at both chunk edges.
        monkeypatch.setattr(fpc.packing, "_ROW_CHUNK", 1024)
        rng = np.random.default_rng(n)
        flags = rng.random(9) < 0.5
        index = rng.integers(0, 9, size=n, dtype=np.uint8)
        rows = flagged_rows(flags, index)
        assert rows.dtype == np.int32
        assert rows.tolist() == np.flatnonzero(flags[index]).tolist()


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

    @pytest.mark.parametrize("c,l", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (3, 7)])
    def test_accept_pattern_is_the_matching_rule(self, c, l):
        # The early reject by the bounds' m only skips patterns whose
        # missing pattern has lam+1 disjoint members. Every pattern where
        # there are at most 2^10, else 400 of seeded random sizes.
        bounds = bounds_report(c, l, 2)
        t, lam, m = bounds.t, bounds.lam, bounds.m.value
        masks = position_masks(l, t)
        if len(masks) <= 10:
            patterns = [
                frozenset(itertools.compress(masks, bits))
                for bits in itertools.product((0, 1), repeat=len(masks))
            ]
        else:
            rng = random.Random(10 * c + l)
            patterns = [
                frozenset(rng.sample(masks, rng.randint(0, len(masks)))) for _ in range(400)
            ]
        decisions = set()
        for pattern in patterns:
            missing = PositionFamily(l, t, frozenset(masks) - pattern)
            accept = accept_pattern(pattern, l, t, lam, m)
            assert accept == (matching_number(missing) <= lam), sorted(pattern)
            decisions.add(accept)
        assert decisions == {False, True}

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


@functools.lru_cache(maxsize=None)
def _matching_pool(l, t, q, eta):
    return tuple(_candidates_for(rs_packing(l, t, q), eta, 13))


@functools.lru_cache(maxsize=None)
def _pool_kept(l, t, q, eta):
    """The words of `_matching_pool(l, t, q, eta)` and `sparsify`'s kept
    table for them."""
    words = rs_packing(l, t, q).words
    kept, _patterns = sparsify(words, t, SparsifierConfig(eta=eta, seed=13))
    words.flags.writeable = kept.flags.writeable = False
    return words, kept


class _Order(np.ndarray):
    """An order that appends the size of each slice taken of it to `sizes`."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.sizes.append(key.stop - key.start)
        return super().__getitem__(key).view(np.ndarray)


def _watch_blocks(monkeypatch, start, cap, order):
    """Set `greedy_select`'s first block and block cap; returns `order` as
    an array that appends each block's size to its `sizes` list as
    `greedy_select` slices the block from it."""
    monkeypatch.setattr(fpc.packing, "_SELECT_BLOCK", start)
    monkeypatch.setattr(fpc.packing, "_SELECT_BLOCK_CAP", cap)
    watched = np.asarray(order).view(_Order)
    watched.sizes = []
    return watched


def _assert_doubles_to_cap(sizes, start, cap):
    """The blocks start at `start`, each keeps or doubles its predecessor's
    size, and the walk ends at `cap`."""
    assert sizes[0] == start and sizes[-1] == cap
    assert all(b in (a, min(2 * a, cap)) for a, b in zip(sizes, sizes[1:]))


def _shuffled(rows, seed):
    """`rows` in the order `random.Random(seed).shuffle` gives a list of them."""
    order = list(rows)
    random.Random(seed).shuffle(order)
    return order


def _sequential_select(words, kept, order):
    """The pass `greedy_select` runs in blocks: walk the rows of `words` in
    `order`, keep each row none of whose kept (combination, symbols) pairs
    an earlier kept row holds."""
    t = kept.ndim - 1
    combos = list(itertools.combinations(range(words.shape[1]), t))
    used, selected = set(), []
    for k in order:
        held = set()
        for i, combo in enumerate(combos):
            name = (i,) + tuple(words[k, list(combo)].tolist())
            if kept[name]:
                held.add(name)
        if used.isdisjoint(held):
            used |= held
            selected.append(k)
    return selected


# (l, t) with C(l, t) slots per row, and the symbols per position that give
# about 40 labeled subsets per combination.
_WIDTHS = {1: (1, 1, 40), 6: (4, 2, 6), 8: (8, 1, 40), 9: (9, 1, 40), 15: (6, 2, 6), 16: (16, 1, 40), 20: (6, 3, 3)}


class TestMatching:
    @pytest.mark.parametrize("width", sorted(_WIDTHS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_padded_used_test_equals_sequential_greedy(self, monkeypatch, width, seed):
        # The used test pads each row to whole 8-byte words. Widths 6, 15
        # and 20 are C(l,t) or greedy_packing's C(l,t+1) at grid points; 1,
        # 8, 9 and 16 sit at the edges of one and two words. Each
        # combination has about 40 labeled subsets, a tenth of them not
        # kept, and 12,000 rows clash ever more, so the blocks double from
        # the first size to the cap.
        l, t, symbols = _WIDTHS[width]
        rng = np.random.default_rng(width)
        words = rng.integers(1, symbols + 1, size=(15000, l), dtype=np.uint8)
        kept = rng.random((width,) + (symbols + 1,) * t) >= 0.1
        order = _shuffled(rng.permutation(len(words))[:12000].tolist(), seed)
        start, cap = fpc.packing._SELECT_BLOCK, fpc.packing._SELECT_BLOCK_CAP
        watched = _watch_blocks(monkeypatch, start, cap, np.array(order, dtype=np.int32))
        assert greedy_select(words, kept, watched) == _sequential_select(words, kept, order)
        _assert_doubles_to_cap(watched.sizes, start, cap)

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
        # `greedy_select` over `sparsify`'s kept table and the shuffled rows
        # against the one-candidate-at-a-time pass over the same words'
        # survived sets.
        cands = _matching_pool(*point)
        order = shuffle(np.arange(len(cands), dtype=np.int32), seed)
        chosen = greedy_select(*_pool_kept(*point), order)
        assert [cands[k] for k in chosen] == greedy_matching(cands, seed)

    @pytest.mark.parametrize(
        "block",
        [
            1,
            7,
            64,
            fpc.packing._SELECT_BLOCK,
            pytest.param((1, 64), id="1-doubling-to-64"),
            pytest.param((4, 256), id="4-doubling-to-256"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 1])
    def test_blocks_equal_reference_greedy(self, monkeypatch, block, seed):
        # `greedy_select` over `sparsify`'s kept table, the route `construct`
        # takes, against the one-candidate-at-a-time pass. At eta 0.5 about
        # half the subsets are not kept, and 2,197 shuffled words cross the
        # block boundaries many times; a block keeps words that clash with
        # each other, so the in-block resolution matters. An int is a fixed
        # block; a (start, cap) pair is a block that doubles from start, as
        # the walk meets ever more used keys, and reaches its cap.
        start, cap = block if isinstance(block, tuple) else (block, block)
        cands = _matching_pool(4, 2, 13, 0.5)
        assert len(cands) > 8 * cap
        order = shuffle(np.arange(len(cands), dtype=np.int32), seed)
        watched = _watch_blocks(monkeypatch, start, cap, order)
        chosen = greedy_select(*_pool_kept(4, 2, 13, 0.5), watched)
        assert [cands[k] for k in chosen] == greedy_matching(cands, seed)
        _assert_doubles_to_cap(watched.sizes, start, cap)

    @pytest.mark.parametrize(
        "block", [3, fpc.packing._SELECT_BLOCK, pytest.param((1, 32), id="1-doubling-to-32")]
    )
    def test_select_over_sparsify_ids_equals_reference(self, monkeypatch, block):
        # As above, with the rows a subset of the packing, as the accepted
        # rows are in `construct`.
        start, cap = block if isinstance(block, tuple) else (block, block)
        cands = _matching_pool(4, 2, 13, 0.5)
        rows = np.arange(0, len(cands), 3, dtype=np.int32)
        watched = _watch_blocks(monkeypatch, start, cap, shuffle(rows.copy(), 9))
        chosen = greedy_select(*_pool_kept(4, 2, 13, 0.5), watched)
        assert [cands[k] for k in chosen] == greedy_matching([cands[k] for k in rows], 9)
        _assert_doubles_to_cap(watched.sizes, start, cap)

    @pytest.mark.parametrize("n", [0, 1, 2, 257, 5000])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 1, -3])
    def test_select_order_is_the_list_shuffle(self, n, seed):
        # With no kept subsets every row is selected, in the shuffled order,
        # which must be the order `random.shuffle` gives a list of the rows.
        rows = np.arange(n, dtype=np.int32)[::-1].copy()
        expected = _shuffled(rows.tolist(), seed)
        words = np.zeros((n, 2), dtype=np.uint8)
        assert greedy_select(words, np.zeros((2, 1), dtype=bool), shuffle(rows, seed)) == expected

    def test_empty_patterns_all_selected(self):
        cands = [Candidate((k, 1, 2), frozenset()) for k in range(1, 40)]
        order = list(cands)
        random.Random(4).shuffle(order)
        assert greedy_matching(cands, 4) == order

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

    def test_family_on_other_positions_refused(self):
        packing = rs_packing(4, 2, 5)
        cfg = SparsifierConfig(eta=0.05, seed=3)
        for family in (complete_family(5, 2), complete_family(4, 3)):
            with pytest.raises(ValueError, match="t-uniform on the packing's positions"):
                degree_diagnostics(packing, cfg, family)

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

    @pytest.mark.parametrize(
        "c,packing",
        [
            (2, rs_packing(4, 2, 5)),
            (2, rs_packing(4, 2, 7)),
            (2, rs_packing(5, 3, 5)),
            (3, rs_packing(6, 2, 7)),
            (2, greedy_packing(4, 2, 5, seed=6)),
            (2, greedy_packing(4, 2, 6, seed=1)),
        ],
        ids=["rs-4-2-5", "rs-4-2-7", "rs-5-3-5", "rs-6-2-7", "greedy-4-2-5", "greedy-4-2-6"],
    )
    @pytest.mark.parametrize("eta", [0.05, 0.5, 0.97, 1.0])
    def test_packing_codegree_equals_pair_counts(self, c, packing, eta):
        # The codegree read off the kept patterns must equal the count of
        # candidates keeping each pair of labeled subsets.
        assert validate_packing(packing.transversals, packing.t)
        cfg = SparsifierConfig(eta=eta, seed=4)
        family = build_extremal_complement(c, packing.l)[1]
        diag = degree_diagnostics(packing, cfg, family)
        codegree = collections.Counter(
            pair
            for w in packing.transversals
            for pair in itertools.combinations(sorted(survived_set(w, packing.t, cfg).survived), 2)
        )
        assert diag.max_codegree == max(codegree.values(), default=0)

    @pytest.mark.parametrize("eta", [0.3, 0.45])
    def test_counts_equal_tuple_counters(self, eta):
        # Words over q = 3 agree in more than t = 2 positions, so this is no
        # packing; the degree counts take any words. The reference counts
        # labeled-subset tuples as `degree_diagnostics` did before it counted
        # keys.
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
        degrees = [dP[a] for a in elements]
        threshold = (1 - math.sqrt(max(0.0, 1 - len(words) / 3**3))) * 3
        assert copies and in_r
        assert (diag.dP_max, diag.dP_min) == (max(degrees), min(degrees))
        assert diag.frac_high_degree == sum(d >= threshold for d in degrees) / len(degrees)
        assert diag.dH_mean == sum(dH[a] for a in in_r) / len(in_r)


def _labeled(w, k):
    return itertools.combinations([(p + 1, s) for p, s in enumerate(w)], k)
