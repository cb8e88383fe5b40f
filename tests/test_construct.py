import gc
import hashlib
import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fpc.construct import (
    ConstructionConfig,
    ConstructionError,
    build_extremal_complement,
    build_packing,
    construct,
    numpy_route,
    plain_route,
    takes_plain_route,
    _report,
    _verify_pipeline,
)
from fpc import plain
from fpc.audit import own_subsequence_audit
from fpc.core import Code, Witness
from fpc.cover_free import is_cover_free
from fpc.diagnose import _diagnose_violation
from fpc.extremal import (
    blackburn_upper,
    bounds_report,
    improved_upper,
    lambda_of,
    matching_number,
)
from fpc.fileio import format_code_file
from fpc.frameproof import is_frameproof
from fpc.oracle import search_max, trivial_code
from fpc.candidate import Candidate, SparsifierConfig, accept_pattern
from fpc.packing import _subset_keys, greedy_packing, rs_packing, sparsify
from fpc.reference import accept_candidate, greedy_matching, survived_set


class TestExtremalComplement:
    def test_star_and_triangle(self):
        A, F = build_extremal_complement(2, 4)
        # Bit i is position i+1: the star {1,2}, {1,3}, {1,4} and the
        # triangle {2,3}, {2,4}, {3,4}.
        assert A.edges == {0b0011, 0b0101, 0b1001}
        assert F.edges == {0b0110, 0b1010, 0b1100}

    def test_lambda0_complement_is_everything(self):
        A, F = build_extremal_complement(2, 5)
        assert len(A) == 0
        assert len(F) == math.comb(5, 3)

    @pytest.mark.parametrize("c,l", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 7), (4, 6)])
    def test_feasibility_and_sizes(self, c, l):
        t, lam = lambda_of(c, l)
        A, F = build_extremal_complement(c, l)
        assert matching_number(A) <= lam
        assert len(A) + len(F) == math.comb(l, t)


class TestConstruct:
    def test_determinism(self, built_2_4_13):
        cfg, code, report = built_2_4_13
        again_code, again_report = construct(cfg)
        assert again_code.words == code.words
        assert again_report.code_size == report.code_size

    def test_code_files_byte_stable(self, built_2_4_13):
        # Seed-7 code files, rs packing at (2,4,13) and over the prime-power
        # field GF(9), greedy at the composite q of (2,4,6): a change that
        # moves any output bit must say so and update these.
        greedy_cfg = ConstructionConfig(c=2, l=4, q=6, seed=7, verify=False)
        gf9_cfg = ConstructionConfig(c=2, l=4, q=9, seed=7, verify=False)
        assert (greedy_cfg.packing, gf9_cfg.packing) == ("greedy", "rs")
        codes = [built_2_4_13[1], construct(greedy_cfg)[0], construct(gf9_cfg)[0]]
        assert [hashlib.sha256(format_code_file(c).encode()).hexdigest() for c in codes] == [
            "f9bc38f1baa4afc7e141f8f573e75ec888bc09c0d5d97f46ac21a0047f9d11eb",
            "f6baccbe4b068496ddfa151387ca51ec174282d77225edc07d6155f19a260a95",
            "6011bd4ba6bd45b9d6a9e9f4dea71e789eaff66ed9ff1a749c1d31f5071dc1f5",
        ]

    def test_verified_and_bounded(self, built_all):
        for cfg, code, report in built_all:
            assert report.verified is True
            assert is_frameproof(code, cfg.c).ok
            assert is_cover_free(code, cfg.c).ok
            assert report.code_size <= report.bounds.blackburn
            if report.bounds.improved is not None:
                assert report.code_size <= report.bounds.improved
            assert report.code_size == report.as_dict()["code_size"] == len(code)
            assert report.rate == Fraction(len(code), cfg.q**report.bounds.t)

    def test_eta_one_yields_empty_code(self):
        code, report = construct(
            ConstructionConfig(c=2, l=4, q=13, eta=1.0, seed=1)
        )
        assert len(code) == 0
        assert report.verified is True

    def test_greedy_packing_for_composite_q(self):
        code, report = construct(ConstructionConfig(c=2, l=4, q=6, eta=0.05, seed=2))
        assert report.as_dict()["packing"] == "greedy"
        assert report.packing_size == len(greedy_packing(4, 2, 6, seed=2))
        assert report.verified is True

    def test_prime_power_field_end_to_end(self):
        code, report = construct(ConstructionConfig(c=2, l=4, q=9, eta=0.05, seed=5))
        assert report.packing_size == 9**3
        assert report.verified is True

    @pytest.mark.parametrize("verify", [False, True])
    def test_timed_stages(self, verify):
        # The top-level stages run one after another inside construct(), so
        # their times sum to at most its wall time; verify's layers run
        # inside it.
        stages = ["packing", "candidates", "accept", "matching"]
        layers = ["validate_induced", "is_frameproof", "is_cover_free", "verify"]
        cfg = ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=verify)
        started = time.perf_counter()
        _code, report = construct(cfg)
        wall_ms = (time.perf_counter() - started) * 1000.0
        assert list(report.timings_ms) == stages + (layers if verify else [])
        top = stages + ["verify"] if verify else stages
        assert sum(report.timings_ms[k] for k in top) <= wall_ms

    def test_verify_disabled(self):
        _code, report = construct(
            ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=False)
        )
        assert report.verified is None
        assert "disabled" in report.verified_note

    def test_accepts_once_per_distinct_pattern(self, monkeypatch):
        calls = []

        def counting(pattern, l, t, lam, m):
            calls.append(pattern)
            return accept_pattern(pattern, l, t, lam, m)

        # `fpc.construct` names the function too, and both routes call it
        # there; patch the module.
        monkeypatch.setattr(sys.modules[construct.__module__], "accept_pattern", counting)
        cfg = ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=False)
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        _, complement = build_extremal_complement(cfg.c, cfg.l)
        candidates = [survived_set(U, 2, sparsifier) for U in rs_packing(4, 2, 13).transversals]
        for route in (plain_route, numpy_route):
            calls.clear()
            _code, _selected, _size, accepted_count = route(cfg, bounds_report(2, 4, 13), {})
            assert sorted(calls, key=sorted) == sorted({c.pattern for c in candidates}, key=sorted)
            assert accepted_count == sum(
                accept_candidate(c, "relaxed", complement, 1) for c in candidates
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConstructionConfig(c=1, l=4, q=13)
        with pytest.raises(ValueError):
            ConstructionConfig(c=2, l=4, q=13, eta=2.0)
        # Acceptance and matching each have one rule, and q picks the
        # packing, so none of the three is a field.
        for name, value in (("mode", "relaxed"), ("matching", "greedy"), ("packing", "rs")):
            with pytest.raises(TypeError):
                ConstructionConfig(c=2, l=4, q=13, **{name: value})
        assert (ConstructionConfig.mode, ConstructionConfig.matching) == ("relaxed", "greedy")

    def test_packing_follows_from_q(self):
        def prime_divisors(q):
            return [d for d in range(2, q + 1) if q % d == 0 and all(d % e for e in range(2, d))]

        for l in range(2, 9):
            for q in range(2, 50):
                rs = len(prime_divisors(q)) == 1 and q >= l
                assert ConstructionConfig(c=2, l=l, q=q).packing == ("rs" if rs else "greedy")
        # Above GF's table cap of 512 only a prime q has a field; a prime
        # power such as 529 = 23^2 or 1024 takes the greedy packing instead.
        assert ConstructionConfig(c=2, l=2, q=512).packing == "rs"
        assert ConstructionConfig(c=2, l=2, q=521).packing == "rs"
        assert ConstructionConfig(c=2, l=2, q=1024).packing == "greedy"
        cfg = ConstructionConfig(c=2, l=2, q=529, seed=7)
        assert cfg.packing == "greedy"
        # At l = t + 1 = 2 no two distinct words agree in 2 places: all q^2 stay.
        assert len(build_packing(cfg)) == 529**2


def _built_by_both_routes(cfg):
    """What each route, called directly, builds at cfg: the code, the
    sorted selection and the report without its timings."""
    bounds = bounds_report(cfg.c, cfg.l, cfg.q)
    built = []
    for route in (plain_route, numpy_route):
        timings = {}
        code, selected, packing_size, accepted_count = route(cfg, bounds, timings)
        report = _report(cfg, bounds, 10**10, timings, code, selected, packing_size, accepted_count)
        assert list(timings)[:4] == ["packing", "candidates", "accept", "matching"]
        built.append((code, sorted(selected), report._replace(timings_ms=None)))
    return built


@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("c,l,q", [(2, 4, 9), (3, 6, 16), (2, 6, 7)])
def test_plain_and_numpy_routes_agree(c, l, q, eta):
    # The two routes, called directly, build the same code and the same
    # verified report, timings aside: over GF(9) and GF(16), and at t = 3
    # over 20 position combinations at (2,6,7). The plain route walks the
    # order the interpreter's own `random.Random(seed).shuffle` gives, so
    # this also checks `fpc.shuffle`'s replay of it.
    built = _built_by_both_routes(ConstructionConfig(c=c, l=l, q=q, eta=eta, seed=7))
    assert built[0] == built[1]
    assert built[0][2].verified is True


@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize(
    "c,l,q,verified", [(16, 16, 17, None), (6, 12, 13, True), (2, 2, 257, True)]
)
def test_plain_and_numpy_routes_agree_at_wide_points(c, l, q, verified, eta):
    # The plain route's own layouts at their edges: (16,16,17) is t = 1
    # over 16 positions, where a name with one base-18 digit per position
    # would pass 2^64 but every global key fits 32 bits, and the checkers'
    # budget refuses its verification; (6,12,13) has C(12,2) = 66
    # combinations, past the 64 bits of an array of patterns; and q = 257
    # takes two-byte symbol columns. At eta 1 the code is empty, and
    # verifies.
    cfg = ConstructionConfig(c=c, l=l, q=q, eta=eta, seed=7)
    assert takes_plain_route(cfg)
    built = _built_by_both_routes(cfg)
    assert built[0] == built[1]
    assert built[0][2].verified is (True if eta == 1.0 else verified)


@pytest.mark.parametrize("l,t,q", [(4, 2, 9), (6, 3, 7), (16, 1, 17)])
@pytest.mark.parametrize("eta", [0.3, 1.0])
def test_plain_names_are_the_global_keys(l, t, q, eta):
    # Both routes name a labeled subset by its global key, combination
    # index · (q+1)^t plus its Horner key, and keep one table over those
    # keys: the plain route's per-word names and kept table are the numpy
    # route's, byte for byte.
    cfg = SparsifierConfig(eta=eta, seed=7)
    names, _patterns, table = plain.sparsify(plain.rs_columns(l, t, q), q, t, cfg)
    words = rs_packing(l, t, q).words
    kept, _patterns = sparsify(words, t, cfg)
    span = (q + 1) ** t
    keys = [
        _subset_keys(words, combo, q + 1).astype(np.int64) + index * span
        for index, combo in enumerate(itertools.combinations(range(l), t))
    ]
    assert names.tolist() == np.stack(keys, axis=1).ravel().tolist()
    assert bytes(table) == kept.tobytes()


def test_route_follows_the_size_estimate():
    # The plain route takes an rs point of at most PLAIN_LIMIT = 240,000
    # keys, q^(t+1) C(l, t): (3,6,16), 61,440 keys, (2,4,31), 178,746, and
    # (3,6,25), 234,375, but not (3,6,27), 295,245, nor (2,4,47), 622,938.
    # A greedy packing, as at (2,4,6) and (2,4,15), always takes the numpy
    # route.
    points = [(3, 6, 16), (2, 4, 31), (3, 6, 25), (3, 6, 27), (2, 4, 47), (2, 4, 6), (2, 4, 15)]
    assert [takes_plain_route(ConstructionConfig(*point)) for point in points] == [
        True, True, True, False, False, False, False
    ]


@pytest.mark.parametrize("c,l,q,verify", [(2, 4, 47, False), (3, 6, 16, True)])
def test_builds_leave_no_garbage(c, l, q, verify):
    # No build leaves a reference cycle for the cyclic collector: the two
    # self-referencing searches, `_largest_matching`'s and
    # `is_frameproof`'s, unbind themselves on the way out.
    cfg = ConstructionConfig(c, l, q, seed=7, verify=verify)
    construct(cfg)  # the lazy imports
    gc.collect()
    gc.disable()
    try:
        construct(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_frameproof_witness_leaves_no_garbage():
    # The witness path of `is_frameproof` unbinds its search too.
    code = Code(3, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    is_frameproof(code, 2)
    gc.collect()
    gc.disable()
    try:
        assert not is_frameproof(code, 2).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("c,l,q", [(2, 4, 13), (3, 5, 11), (3, 6, 16), (2, 4, 6), (2, 6, 7)])
def test_reference_route_builds_constructs_code(c, l, q):
    # The per-word route of the traced benchmark replica, one word or
    # candidate at a time, ends in the code `construct` builds. (2,4,6) takes
    # the greedy packing, and (2,6,7) names labeled 3-subsets by global keys
    # over 20 combinations. `greedy_matching` walks the order that
    # `random.Random(seed).shuffle` gives, so this also checks `fpc.shuffle`'s
    # replay of it through the whole pipeline.
    cfg = ConstructionConfig(c=c, l=l, q=q, seed=7, verify=False)
    t, lam = lambda_of(c, l)
    sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
    _, complement = build_extremal_complement(c, l)
    candidates = [survived_set(U, t, sparsifier) for U in build_packing(cfg).transversals]
    accepted = [cand for cand in candidates if accept_candidate(cand, "relaxed", complement, lam)]
    selected = greedy_matching(accepted, cfg.seed)
    code, _report = construct(cfg)
    assert Code(q, l, [cand.transversal for cand in selected]) == code


def _traced_route_peak(route, cfg):
    """The traced peak of `route` building cfg above what was traced before
    it, after a first run of the route at (2,4,31) has made its lazy
    imports and families."""
    route(ConstructionConfig(2, 4, 31, seed=7, verify=False), bounds_report(2, 4, 31), {})
    bounds = bounds_report(cfg.c, cfg.l, cfg.q)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        route(cfg, bounds, {})
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pipeline_peak_memory_stays_near_its_matrices():
    # The word matrix is the largest array the numpy route keeps: at
    # (2,4,31), 4 one-byte symbols per word. Besides it, it holds a few
    # narrow arrays of one entry per word, and temporaries of one row chunk;
    # 60 bytes per word bounds them all.
    peak = _traced_route_peak(numpy_route, ConstructionConfig(2, 4, 31, seed=7, verify=False))
    n = 31**3
    assert peak <= 60 * n, f"traced peak {peak / n:.1f} bytes per word"


def test_pipeline_peak_memory_is_a_small_multiple_of_the_words():
    # At seed-7 (2,4,101), 1,030,301 words, the per-word arrays besides the
    # word matrix are one byte a word (the patterns, then their index) and
    # four (the accepted rows, which the walk shuffles in place); every
    # index copy, key array and row list is one row chunk long. So the
    # traced peak stays under three times the word matrix's 4.1 MB.
    cfg = ConstructionConfig(2, 4, 101, seed=7, verify=False)
    assert not takes_plain_route(cfg)
    words_nbytes = 101**3 * 4
    peak = _traced_route_peak(numpy_route, cfg)
    assert peak < 3 * words_nbytes, f"traced peak {peak / words_nbytes:.2f} x the word matrix"


def test_plain_route_peak_memory_at_its_largest_point():
    # (3,6,25), 25^3 words times C(6,2) = 15 keys per word, 234,375 keys,
    # is the largest point the plain route takes at l <= 6, and (40,40,41),
    # 41^2 words times 40 keys, 67,240, its widest at t = 1. Each word's
    # keys are held once, four bytes each, beside a one-byte symbol per
    # position, eight-byte references into the weights of its (position,
    # place) pairs and its pattern bits; (40,40,41) also holds a frozenset
    # of up to 40 position masks per distinct pattern. They come to about
    # 14 and 36 bytes per key.
    for point, keys, bound in (((3, 6, 25), 234_375, 32), ((40, 40, 41), 67_240, 64)):
        cfg = ConstructionConfig(*point, seed=7, verify=False)
        assert takes_plain_route(cfg)
        peak = _traced_route_peak(plain_route, cfg)
        assert peak <= bound * keys, f"{point}: traced peak {peak / keys:.1f} bytes per key"


def test_plain_route_runs_few_collections():
    # The plain route holds no container object per word, so a warm seed-7
    # (2,4,31) build, 29,791 words, leaves the cyclic collector nearly idle.
    cfg = ConstructionConfig(2, 4, 31, seed=7)
    bounds = bounds_report(2, 4, 31)
    plain_route(cfg, bounds, {})
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        plain_route(cfg, bounds, {})
    finally:
        gc.callbacks.remove(count)
    assert len(passes) <= 5, f"{len(passes)} collections"


class TestPipelineChecks:
    def test_rigged_selection_is_caught(self):
        # Two transversals that agree on two positions and both keep the
        # shared labeled pair: the matcher could never emit this.
        cfg = ConstructionConfig(c=2, l=4, q=5, eta=0.0, seed=0)
        a = Candidate((1, 2, 3, 4), frozenset({0b0011}))
        b = Candidate((1, 2, 4, 5), frozenset({0b0011}))
        code = Code(5, 4, [a.transversal, b.transversal])
        with pytest.raises(ConstructionError, match="induced"):
            _verify_pipeline(code, [a, b], cfg, 2, 1, budget=10**8, timings={})

    @pytest.mark.parametrize(
        "witness,expected",
        [
            # The coalition agrees with the victim in 0 and 1 positions.
            (
                Witness((1, 2, 3, 4), ((5, 5, 5, 5), (1, 5, 5, 5))),
                "only 0 <= lam disjoint t-agreements; the covering argument "
                "should have been impossible - suspect the checkers",
            ),
            # Its two t-agreements, {1,2} and {1,3}, meet: nu = 1 <= lam.
            (
                Witness((1, 2, 3, 4), ((1, 2, 5, 5), (1, 5, 3, 5))),
                "only 1 <= lam disjoint t-agreements; the covering argument "
                "should have been impossible - suspect the checkers",
            ),
            # {1,2} and {3,4} are disjoint, and the build's induced-packing
            # check has kept both out of the victim's pattern.
            (
                Witness((1, 2, 3, 4), ((1, 2, 5, 5), (5, 5, 3, 4))),
                "2 > lam disjoint t-agreements all missing from the victim's pattern: "
                "candidate acceptance admitted an infeasible pattern",
            ),
        ],
        ids=["no-agreement", "nu-at-most-lam", "all-missing"],
    )
    def test_diagnosis_names_each_arm(self, witness, expected):
        assert _diagnose_violation(witness, 2, 1) == expected


class TestTrivialCode:
    def test_example(self):
        code = trivial_code(2, 3)
        assert set(code.words) == {(2, 1), (3, 1), (1, 2), (1, 3)}
        assert is_frameproof(code, 2).ok

    @pytest.mark.parametrize("l", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_size_formula(self, l, q):
        assert len(trivial_code(l, q)) == l * (q - 1)

    @pytest.mark.parametrize("l,q", [(2, 3), (3, 3), (4, 2)])
    def test_frameproof_at_and_above_l(self, l, q):
        code = trivial_code(l, q)
        assert is_frameproof(code, l).ok
        assert is_frameproof(code, l + 1).ok

    @pytest.mark.parametrize("l,q", [(2, 1), (0, 3)])
    def test_bad_parameters_refused(self, l, q):
        with pytest.raises(ValueError, match="need q >= 2 and l >= 1"):
            trivial_code(l, q)


class TestSearchMax:
    def test_small_ternary(self):
        best, optimal = search_max(2, 2, 3)
        assert optimal and len(best) == 4
        assert is_frameproof(best, 2).ok

    def test_small_binary(self):
        best, optimal = search_max(2, 2, 2)
        assert optimal and len(best) == 2 == 2 * (2 - 1)

    def test_binary_length_three(self):
        best, optimal = search_max(2, 3, 2)
        assert optimal
        assert len(best) == 4  # exhaustive value; Prop-style ceiling is q^2 = 4
        assert len(best) <= 4
        assert is_frameproof(best, 2).ok

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            search_max(2, 4, 3)
        with pytest.raises(ValueError, match="c must be at least 2"):
            search_max(1, 2, 2)

    def test_budget_exhaustion_reported(self):
        best, optimal = search_max(2, 3, 2, budget=3)
        assert not optimal
        assert is_frameproof(best, 2).ok

    def test_dominates_trivial_when_l_le_c(self):
        best, optimal = search_max(2, 2, 3)
        assert optimal
        assert len(best) >= 2 * (3 - 1)

    def test_dominates_pipeline_on_tiny_instance(self):
        best, optimal = search_max(2, 2, 3)
        code, _report = construct(ConstructionConfig(c=2, l=2, q=3, eta=0.05, seed=1))
        assert optimal and len(best) >= len(code)


class TestAudit:
    def test_constructed_codes_clean(self, built_all):
        for cfg, code, _report in built_all:
            result = own_subsequence_audit(code, cfg.c)
            assert result.ok
            assert result.required == math.comb(cfg.l, result.t) - result.m.value

    def test_trivial_code_rows(self):
        result = own_subsequence_audit(trivial_code(2, 3), 2)
        assert result.ok
        assert all(row.bound_applies for row in result.rows)

    def test_bound_values(self, built_2_4_13):
        _cfg, code, _report = built_2_4_13
        result = own_subsequence_audit(code, 2)
        assert (result.t, result.lam, result.m.value, result.required) == (2, 1, 3, 3)


def test_bounds_consistency_on_acceptance_triples():
    for c, l, q in [(2, 4, 13), (2, 5, 11), (3, 5, 11), (2, 4, 16)]:
        imp = improved_upper(c, l, q)
        assert imp is not None
        assert imp <= blackburn_upper(c, l, q)


def test_bounds_dominate_ground_truth():
    for c, l, q in [(2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        best, optimal = search_max(c, l, q)
        assert optimal
        assert len(best) <= blackburn_upper(c, l, q)
        imp = improved_upper(c, l, q)
        if imp is not None:
            assert len(best) <= imp
    # The dropped-lower-order-term bound is exactly tight here: 4 = q^2.
    best32, _ = search_max(2, 3, 2)
    assert len(best32) == improved_upper(2, 3, 2) == 4
