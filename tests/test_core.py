import collections
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fpc.audit import own_profile, own_subsequence_audit, own_subset_counts, pi, pi_inverse
from fpc.construct import ConstructionConfig, construct
from fpc.core import BudgetExceededError, Code, Verdict, Witness, validate_word
from fpc.cover_free import is_cover_free
from fpc.frameproof import is_frameproof
from fpc.oracle import desc_contains, trivial_code

BAD_CODE = Code(3, 2, [(1, 1), (2, 2), (1, 2)])


def naive_frameproof(code: Code, c: int):
    """Definition-level oracle: try every coalition of size s = min(c, n-1)
    and every outside codeword. Returns the least violation or None."""
    words = code.words
    if len(words) < 2:
        return None
    best = None
    for coal in itertools.combinations(words, min(c, len(words) - 1)):
        for x0 in words:
            if x0 in coal:
                continue
            if all(any(x[i] == s for x in coal) for i, s in enumerate(x0)):
                cand = (x0, coal)
                if best is None or cand < best:
                    best = cand
    return best


@st.composite
def small_codes(draw, max_q=4, max_l=4, max_words=6):
    q = draw(st.integers(2, max_q))
    l = draw(st.integers(2, max_l))
    words = draw(
        st.lists(
            st.tuples(*[st.integers(1, q)] * l), min_size=0, max_size=max_words, unique=True
        )
    )
    return Code(q, l, words)


def random_code(rng: random.Random, max_q=4, max_l=4, max_words=6) -> Code:
    q = rng.randint(2, max_q)
    l = rng.randint(2, max_l)
    n = rng.randint(0, max_words)
    space = q**l
    picks = rng.sample(range(space), min(n, space))
    words = []
    for p in picks:
        w = []
        for _ in range(l):
            w.append(p % q + 1)
            p //= q
        words.append(tuple(w))
    return Code(q, l, words)


class TestDescendants:
    def test_contains_mix(self):
        assert desc_contains((1, 2), [(1, 1), (2, 2)])

    def test_singleton_is_itself(self):
        assert desc_contains((3, 1, 2), [(3, 1, 2)])
        assert not desc_contains((3, 1, 1), [(3, 1, 2)])

    def test_absent_symbol(self):
        assert not desc_contains((3, 3), [(1, 1), (2, 2)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            desc_contains((1, 2, 3), [(1, 1)])
        with pytest.raises(ValueError):
            desc_contains((1, 2), [])

    @given(small_codes(max_words=5), st.data())
    def test_monotone_in_coalition(self, code, data):
        if len(code.words) < 3:
            return
        y = code.words[0]
        rest = list(code.words[1:])
        k = data.draw(st.integers(1, len(rest) - 1))
        sub = rest[:k]
        if desc_contains(y, sub):
            assert desc_contains(y, rest)


class TestCode:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Code(3, 2, [(1, 1), (1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Code(3, 2, [(1, 4)])
        with pytest.raises(ValueError):
            Code(3, 2, [(0, 1)])
        with pytest.raises(ValueError):
            Code(2, 2, [(True, 2), (2, 1)])
        for q, l in ((0, 2), (3, 0)):
            with pytest.raises(ValueError, match="q and l must be positive"):
                Code(q, l, [])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Code(3, 2, [(1, 1, 1)])

    def test_sorted_storage(self):
        code = Code(3, 2, [(2, 1), (1, 1)])
        assert code.words == ((1, 1), (2, 1))

    class Symbol(int):
        pass

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [(2, 1), (1, 3)],
            lambda: [[2, 1], (1, 3)],
            lambda: (w for w in [(3, 3), (1, 2)]),
            lambda: [],
            lambda: [iter((2, 1)), (1, 3)],
            lambda: [(TestCode.Symbol(2), 1)],
            lambda: ["12"],
            lambda: [(True, 2), (2, 1)],
            lambda: [(1.0, 2)],
            lambda: [(1, 4)],
            lambda: [(0, 1)],
            lambda: [(1, 1, 1)],
            lambda: [(1, 1, 1), (True, 2)],
            lambda: [(1, 2), (2,), 5],
            lambda: [(1, 2), 5],
            lambda: [(1, 1), [1, 1]],
            lambda: [(1, 2), (2, 1), (1, 2)],
        ],
        ids=[
            "tuples", "lists", "generator", "empty", "iterator-word", "int-subclass",
            "string-word", "bool", "float", "above-q", "zero", "long", "long-then-bool",
            "short-then-int", "int-word", "tuple-list-duplicate", "duplicate",
        ],
    )
    def test_one_pass_check_keeps_the_per_word_verdicts(self, make):
        # Code checks the all-valid case over the flattened symbols and
        # falls back to validate_word per word; the code, or the error and
        # its message, must be what the per-word check alone gives.
        try:
            validated = [validate_word(w, 2, 3) for w in make()]
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)) as got:
                Code(3, 2, make())
            assert str(got.value) == str(exc)
            return
        if len(set(validated)) != len(validated):
            with pytest.raises(ValueError, match="duplicate words rejected"):
                Code(3, 2, make())
        else:
            assert Code(3, 2, make()).words == tuple(sorted(validated))


class TestFrameproof:
    def test_known_violation(self):
        verdict = is_frameproof(BAD_CODE, 2)
        assert not verdict.ok
        assert verdict.witness == Witness((1, 2), ((1, 1), (2, 2)))

    def test_small_codes_pass_by_checking(self):
        for words in [[(1, 1)], [(1, 1), (2, 2)], [(1, 2), (2, 1)]]:
            assert is_frameproof(Code(2, 2, words), 2).ok

    def test_trivial_style_code(self):
        code = Code(3, 2, [(2, 1), (3, 1), (1, 2), (1, 3)])
        assert is_frameproof(code, 2).ok
        assert len(code) == 2 * (3 - 1)

    def test_c_below_two_rejected(self):
        for check in (is_frameproof, is_cover_free):
            with pytest.raises(ValueError, match="c must be at least 2"):
                check(BAD_CODE, 1)

    def test_budget_guard(self):
        code = Code(4, 4, list(itertools.product([1, 2], repeat=4)))
        with pytest.raises(BudgetExceededError):
            is_frameproof(code, 2, budget=10)
        with pytest.raises(BudgetExceededError):
            is_cover_free(code, 2, budget=10)

    def test_budget_counts_groups_not_coalitions(self):
        # The seed-7 (3,6,16) build has 85 words, so C(85, 3) * 6 * 82
        # coalition comparisons would be about 4.9e7; its (position, symbol)
        # groups bound the search far below that.
        code, _report = construct(ConstructionConfig(c=3, l=6, q=16, seed=7, verify=False))
        assert len(code) == 85
        assert is_frameproof(code, 3, budget=10**6).ok
        # is_cover_free charges the pairwise intersections of each word's
        # groups and its mask closure: about 1.45e6 at the seed-7 (2,4,47)
        # build, where all n*n*l pairs would be 1.1e7.
        code, _report = construct(ConstructionConfig(c=2, l=4, q=47, seed=7, verify=False))
        assert is_cover_free(code, 2, budget=2 * 10**6).ok

    def test_cover_free_refuses_just_above_its_estimate(self):
        # The estimate is twice the sum, over words, of the smaller group of
        # each pair of the word's (position, symbol) groups, plus n 4^l s for
        # the mask closures. The per-group bound (l-1) sum |G|^2 lies above
        # it here, so a budget between the two takes the exact count.
        code, _report = construct(ConstructionConfig(c=2, l=4, q=13, seed=7, verify=False))
        words, l, n = code.words, code.l, len(code)
        groups = collections.Counter((p, x) for w in words for p, x in enumerate(w))
        minima = sum(
            min(groups[a, w[a]], groups[b, w[b]])
            for w in words
            for a, b in itertools.combinations(range(l), 2)
        )
        estimate = 2 * minima + n * 4**l * 2
        assert (l - 1) * sum(size**2 for size in groups.values()) + n * 4**l * 2 > estimate
        assert is_cover_free(code, 2, budget=estimate).ok
        message = (
            f"cover-free check needs ~{estimate:.2e} comparisons, budget is {estimate - 1:.2e}"
        )
        with pytest.raises(BudgetExceededError) as exc:
            is_cover_free(code, 2, budget=estimate - 1)
        assert str(exc.value) == message

    def test_budget_follows_the_smallest_group(self):
        # Every word of the trivial code lies in three groups of 597 words
        # and one of a single word, so each search branches over one word.
        assert is_frameproof(trivial_code(4, 200), 2, budget=10**5).ok

    def test_matches_naive_oracle(self):
        rng = random.Random(555)
        violations = 0
        for _ in range(150):
            code = random_code(rng)
            for c in (2, 3, 4):
                expected = naive_frameproof(code, c)
                verdict = is_frameproof(code, c)
                assert verdict.ok == (expected is None)
                if expected is not None:
                    violations += 1
                    assert verdict.witness == Witness(*expected)
        assert violations > 0

    def test_matches_cover_free_at_larger_n(self):
        # Up to 25 words, so searches branch over groups of several words and
        # end in the labeled-subset lookup, which the naive-oracle sizes
        # rarely reach.
        rng = random.Random(2025)
        violations = 0
        for _ in range(300):
            code = random_code(rng, max_q=5, max_l=5, max_words=25)
            c = rng.randint(2, 4)
            verdict = is_frameproof(code, c)
            assert verdict == is_cover_free(code, c)
            violations += not verdict.ok
        assert 0 < violations < 300

    @pytest.mark.parametrize(
        "extra,least",
        [
            ((1, 50, 60), ((1, 50, 60), ((1, 500, 60), (3, 50, 70)))),
            ((3, 50, 60), ((2, 1, 2), ((1, 1, 1), (2, 2, 2)))),
        ],
    )
    def test_least_witness_across_coalition_blocks(self, extra, least):
        # (a, b) frames z and (y1, y2) frames `extra`, and `extra` is the
        # least framed word in one case and not in the other.
        # Every other word has a symbol no other word carries at its
        # position, so it cannot be framed.
        a, b, z = (1, 1, 1), (2, 2, 2), (2, 1, 2)
        y1, y2 = (1, 500, 60), (3, 50, 70)
        fillers = [(1, 100 + k, 200 + k) for k in range(44)]
        code = Code(600, 3, [a, b, z, y1, y2, extra, *fillers])
        assert naive_frameproof(code, 2) == least
        assert is_frameproof(code, 2).witness == Witness(*least)

    def test_large_groups_match_cover_free(self):
        # 200 words carry 1 at the third position and 100 carry (2, 2) in
        # front, so searches meet groups of a hundred words and more.
        words = [(1, 1, 1, k) for k in range(1, 200)]
        words += [(2, 2, k, 1) for k in range(1, 100)]
        code = Code(199, 4, words)
        verdict = is_frameproof(code, 2)
        assert not verdict.ok
        assert verdict == is_cover_free(code, 2)

    @pytest.mark.parametrize("q,l", [(2, 6), (3, 4)])
    def test_complete_codes_match_cover_free(self, q, l):
        # Every word is framed, and every group holds a 1/q share of the code.
        code = Code(q, l, list(itertools.product(range(1, q + 1), repeat=l)))
        verdict = is_frameproof(code, 3)
        assert not verdict.ok
        assert verdict == is_cover_free(code, 3)


def agreeing_code(rng: random.Random) -> Code:
    """A random code whose words are copies of a few seed words with some
    positions redrawn, so many pairs agree at two or more positions."""
    q = rng.randint(2, 6)
    l = rng.randint(2, 7)
    seeds = [[rng.randint(1, q) for _ in range(l)] for _ in range(rng.randint(1, 4))]
    words = set()
    for _ in range(rng.randint(2, 16)):
        w = list(rng.choice(seeds))
        for k in rng.sample(range(l), rng.randint(1, l)):
            w[k] = rng.randint(1, q)
        words.add(tuple(w))
    return Code(q, l, words)


def test_checkers_agree_on_codes_with_multi_position_agreement():
    rng = random.Random(2323)
    violations = oracle_checked = 0
    for _ in range(2000):
        code = agreeing_code(rng)
        c = rng.randint(2, 4)
        verdict = is_frameproof(code, c)
        assert verdict == is_cover_free(code, c)
        if len(code) <= 8:
            oracle_checked += 1
            expected = naive_frameproof(code, c)
            assert verdict.ok == (expected is None)
            assert verdict.witness == (expected and Witness(*expected))
        violations += not verdict.ok
    assert oracle_checked > 500
    assert 200 < violations < 1800


MASTER_2_4 = (
    ((0, 0), (1, 0), (2, 0)),
    ((0, 0), (1, 1), (3, 0)),
    ((0, 0), (2, 1), (3, 1)),
    ((0, 1), (1, 0), (3, 1)),
    ((0, 1), (1, 1), (2, 1)),
    ((0, 1), (2, 0), (3, 0)),
    ((1, 0), (2, 1), (3, 0)),
    ((1, 1), (2, 0), (3, 1)),
)


@pytest.fixture(params=[13, 31])
def design_code(request) -> Code:
    """The 8-block 3-GDD of type 2^4 over (group, point), inflated by a
    transversal design TD(3, m) over Z_m with m = (q-1)//2: block b and
    (u, v) give the word with 2 + a*m + v at the block's first group,
    2 + a*m + (u + (j-1)*v mod m) at its j-th, and 1 at the group it misses.
    No two words share a symbol pair off the 1s, so the code is
    2-frameproof, and every word lies in the 1-group of 2*m*m words at its
    missing position."""
    q = request.param
    m = (q - 1) // 2
    words = []
    for block in MASTER_2_4:
        for u, v in itertools.product(range(m), repeat=2):
            w = [1] * 4
            for j, (g, a) in enumerate(block):
                w[g] = 2 + a * m + (v if j == 0 else (u + (j - 1) * v) % m)
            words.append(w)
    return Code(q, 4, words)


def test_design_codes_pass_both_checkers(design_code):
    assert len(design_code) == 8 * ((design_code.q - 1) // 2) ** 2
    assert is_frameproof(design_code, 2) == is_cover_free(design_code, 2) == Verdict(True)


def _assert_planted(code: Code, c: int, word, coalition):
    """The planted violation is the least one, and both checkers name it."""
    assert naive_frameproof(code, c) == (word, coalition)
    assert is_frameproof(code, c).witness == Witness(word, coalition)
    assert is_cover_free(code, c).witness == Witness(word, coalition)


class TestFrameproofSeeding:
    # Planted words whose coalition members share prefixes with each other
    # and with the planted word.

    @pytest.mark.parametrize("p", range(1, 6))
    def test_members_share_a_prefix(self, p):
        # s=3 at l=6: a and b share their first p symbols; x leaves that
        # prefix with c's symbol, then follows b.
        a, b, c = (1,) * 6, (1,) * p + (2,) * (6 - p), (3,) * 6
        x = (1,) * p + (3,) + (2,) * (5 - p)
        _assert_planted(Code(3, 6, [a, b, c, x]), 3, x, (a, b, c))

    @pytest.mark.parametrize("p", range(0, 3))
    def test_branch_off_a_member_at_the_last_level(self, p):
        # s=2 at l=4: a and b share their first p symbols; x follows b up to
        # the last coordinate and takes a's symbol there.
        a, b = (1,) * 4, (1,) * p + (2,) * (4 - p)
        x = b[:3] + (1,)
        _assert_planted(Code(2, 4, [a, b, x]), 2, x, (a, b))

    def test_shared_prefix_beyond_the_first_block(self):
        # 24 words; (a, b, c) share their first two symbols and sort last.
        # Each filler has a symbol no other word carries, so only x is framed.
        fillers = [(1, 10 + k, 40 + k, 70 + k, 100 + k, 130 + k) for k in range(20)]
        a, b, c = (5,) * 6, (5, 5, 6, 6, 6, 6), (7,) * 6
        x = (5, 5, 7, 6, 5, 7)
        code = Code(200, 6, [*fillers, a, b, c, x])
        _assert_planted(code, 3, x, (a, b, c))

    def test_spare_member_shares_no_symbol(self):
        # (2, 3) and (3, 2) frame x; s = 3 takes a spare third member, and the
        # least one, (1, 1), agrees with x nowhere.
        a, b, c = (1, 1), (2, 3), (3, 2)
        x = (2, 2)
        _assert_planted(Code(3, 2, [a, b, c, x]), 3, x, (a, b, c))

    def test_second_member_leaves_nothing_uncovered(self):
        # s=3 at l=4: a alone carries x's symbol at position 2 and b alone at
        # position 4. After a covers x's first half, b agrees with x on all
        # of the second half, so the search answers one level below the top
        # without a lookup. The fillers share one of x's symbols and carry a
        # symbol no other word has, so only x is framed; the least filler is
        # the spare member.
        a, b = (1, 1, 3, 3), (4, 4, 2, 2)
        x = (1, 1, 2, 2)
        fillers = [(1, 10 + k, 20 + k, 30 + k) for k in range(6)]
        fillers += [(40 + k, 50 + k, 2, 60 + k) for k in range(6)]
        _assert_planted(Code(99, 4, [a, b, x, *fillers]), 3, x, (a, fillers[0], b))

    @pytest.mark.parametrize("framed", [True, False])
    def test_group_members_share_one_rest(self, framed):
        # x's groups at positions 1 and 2 hold x and 20 halves, which all
        # leave positions 3 and 4 uncovered: one distinct rest. The groups at
        # positions 3 and 4 are as large. x is framed iff one word agrees
        # with it on both; every other word carries a symbol no other word
        # has at its position.
        x = (1, 1, 1, 1)
        halves = [(1, 1, k, k + 1) for k in range(2, 22)]
        if framed:
            covers = [(k, k + 1, 1, 1) for k in range(2, 22)]
        else:
            covers = [(k, k + 1, 1, k + 50) for k in range(2, 22)]
            covers += [(k + 100, k + 101, k + 150, 1) for k in range(2, 22)]
        code = Code(200, 4, [x, *halves, *covers])
        if framed:
            _assert_planted(code, 2, x, (halves[0], covers[0]))
        else:
            assert naive_frameproof(code, 2) is None
            assert is_frameproof(code, 2) == is_cover_free(code, 2) == Verdict(True)

    def test_coalition_after_many_fillers(self):
        # 400 fillers sort first and share a symbol at position 1, so C(403, 3)
        # coalitions come before the planted one; only its three members
        # carry x's symbols, each at one position.
        fillers = [(1, 10 + k, 2000 + k) for k in range(400)]
        members = ((900, 1, 1), (901, 2, 2), (902, 3, 3))
        x = (900, 2, 3)
        code = Code(3000, 3, [*fillers, *members, x])
        for check in (is_frameproof, is_cover_free):
            start = time.perf_counter()
            assert check(code, 3).witness == Witness(x, members)
            assert time.perf_counter() - start < 1.0


class TestCoverFree:
    def test_known_violation(self):
        verdict = is_cover_free(BAD_CODE, 2)
        assert not verdict.ok
        assert verdict.witness == Witness((1, 2), ((1, 1), (2, 2)))

    def test_empty_and_singleton(self):
        assert is_cover_free(Code(3, 2, []), 2).ok
        assert is_cover_free(Code(3, 2, [(1, 2)]), 2).ok

    @given(small_codes())
    @settings(max_examples=300)
    def test_equivalence_with_frameproof(self, code):
        fp = is_frameproof(code, 2)
        cf = is_cover_free(code, 2)
        assert fp.ok == cf.ok
        if not fp.ok:
            assert fp.witness == cf.witness

    @given(small_codes(max_q=3, max_l=3, max_words=5), st.integers(2, 4))
    @settings(max_examples=150)
    def test_equivalence_other_c(self, code, c):
        assert is_frameproof(code, c).ok == is_cover_free(code, c).ok

    def test_masks_wider_than_int64(self):
        # At l = 64 an agreement mask no longer fits a signed 64-bit integer.
        a, b = (1,) * 64, (2,) * 64
        x = (1,) * 32 + (2,) * 32
        code = Code(2, 64, [a, b, x])
        expected = Witness(x, (a, b))
        assert is_cover_free(code, 2, budget=10**60).witness == expected
        assert is_frameproof(code, 2, budget=10**60).witness == expected

    @pytest.mark.parametrize("c", [3, 4])
    def test_witness_matches_naive_oracle(self, c):
        rng = random.Random(c)
        violations = 0
        for _ in range(150):
            code = random_code(rng, max_words=8)
            expected = naive_frameproof(code, c)
            verdict = is_cover_free(code, c)
            assert verdict.ok == (expected is None)
            if expected is not None:
                violations += 1
                assert verdict.witness == Witness(*expected)
        assert violations > 0


class TestWitnessSoundness:
    def _assert_sound(self, code, verdict):
        w = verdict.witness
        assert w is not None
        assert w.word in code.words
        assert w.word not in w.coalition
        assert set(w.coalition) <= set(code.words)
        assert desc_contains(w.word, w.coalition)

    @given(small_codes())
    @settings(max_examples=200)
    def test_false_verdicts_revalidate(self, code):
        for verdict in (is_frameproof(code, 2), is_cover_free(code, 2)):
            if not verdict.ok:
                self._assert_sound(code, verdict)


class TestPi:
    def test_word_to_edge(self):
        edges = pi(Code(3, 2, [(1, 2)]))
        assert edges == [frozenset({(1, 1), (2, 2)})]

    def test_empty(self):
        assert pi(Code(3, 2, [])) == []
        assert pi_inverse([], 3, l=2).words == ()

    def test_complete_hypergraph_size(self):
        code = Code(2, 3, list(itertools.product([1, 2], repeat=3)))
        assert len(set(pi(code))) == 2**3

    @given(small_codes())
    def test_roundtrip(self, code):
        assert pi_inverse(pi(code), code.q, l=code.l).words == code.words

    def test_edge_roundtrip(self):
        edges = pi(BAD_CODE)
        assert pi(pi_inverse(edges, 3)) == sorted(edges, key=sorted)

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            pi_inverse([frozenset({(1, 1), (1, 2)})], 3)  # duplicate position
        with pytest.raises(ValueError):
            pi_inverse([frozenset({(1, 1), (3, 2)})], 3)  # gap in positions
        with pytest.raises(ValueError, match="cannot infer word length from an empty edge list"):
            pi_inverse([], 3)
        with pytest.raises(ValueError, match=r"has size 2, expected 3"):
            pi_inverse([frozenset({(1, 1), (2, 2)})], 3, l=3)


class TestOwnProfile:
    def test_all_coordinates_differ(self):
        prof = own_profile(Code(2, 2, [(1, 1), (2, 2)]), 1)
        assert all(p.own_t_count == 2 for p in prof.values())

    def test_shared_first_coordinate(self):
        prof = own_profile(Code(2, 2, [(1, 1), (1, 2)]), 1)
        assert all(p.own_t_count == 1 for p in prof.values())

    def test_singleton_owns_everything(self):
        prof = own_profile(Code(3, 3, [(1, 2, 3)]), 2)
        assert prof[(1, 2, 3)].own_t_count == 3
        assert prof[(1, 2, 3)].own_tminus1_count == 3

    def test_t_range_checked(self):
        with pytest.raises(ValueError):
            own_profile(BAD_CODE, 0)
        with pytest.raises(ValueError):
            own_profile(BAD_CODE, 3)

    def test_budget_bounds_the_projections(self):
        # 4 words, t = 2 on l = 3: 4 * (C(3, 2) + C(3, 1)) = 24 projections.
        code = Code(3, 3, [(1, 1, 1), (1, 2, 2), (2, 1, 3), (3, 3, 2)])
        assert own_profile(code, 2, budget=24) == own_profile(code, 2)
        with pytest.raises(BudgetExceededError, match=r"needs ~2\.40e\+01 projections, budget is 2\.30e\+01"):
            own_profile(code, 2, budget=23)
        # The audit at c = 2 (t = 2 on l = 3) walks the same profile.
        assert own_subsequence_audit(code, 2, budget=24) == own_subsequence_audit(code, 2)
        with pytest.raises(BudgetExceededError, match="projections"):
            own_subsequence_audit(code, 2, budget=23)

    @given(small_codes(), st.integers(1, 4))
    @settings(max_examples=200)
    def test_transfer_to_pi_side(self, code, t):
        # Own position subsets and own vertex subsets agree through the
        # correspondence, counted by an independent route.
        if not code.words or t > code.l:
            return
        prof = own_profile(code, t)
        edge_counts = own_subset_counts(pi(code), t)
        for k, w in enumerate(code.words):
            assert prof[w].own_t_count == edge_counts[k]


def test_thousand_random_codes_fast_suite():
    # Deterministic bulk cross-check mirroring the acceptance run.
    rng = random.Random(7777)
    violations = 0
    for _ in range(250):
        code = random_code(rng)
        fp = is_frameproof(code, 2)
        cf = is_cover_free(code, 2)
        assert fp.ok == cf.ok
        assert pi_inverse(pi(code), code.q, l=code.l).words == code.words
        if not fp.ok:
            violations += 1
            assert desc_contains(fp.witness.word, fp.witness.coalition)
    assert violations > 0  # the sampler does reach violating codes


def test_moved_checkers_still_import_from_core():
    # Each checker has its own module; fpc.core loads it on first use of
    # the old name, which perfbench/replica.py still imports.
    import fpc.core

    from fpc.core import is_cover_free as cover_free, is_frameproof as frameproof

    assert (frameproof, cover_free) == (is_frameproof, is_cover_free)
    assert frameproof.__module__ == "fpc.frameproof"
    assert cover_free.__module__ == "fpc.cover_free"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fpc.core.no_such_name
