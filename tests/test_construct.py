import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from fpc.construct import (
    ConstructionConfig,
    ConstructionError,
    build_extremal_complement,
    build_packing,
    construct,
    search_max,
    trivial_code,
    _diagnose_violation,
    _verify_pipeline,
)
from fpc.core import Code, Witness, is_cover_free, is_frameproof, own_subsequence_audit
from fpc.extremal import blackburn_upper, improved_upper, lambda_of, matching_number
from fpc.fileio import format_code_file
from fpc.packing import (
    Candidate,
    SparsifierConfig,
    accept_candidate,
    accept_pattern,
    greedy_packing,
    rs_packing,
    survived_set,
)


class TestExtremalComplement:
    def test_star_and_triangle(self):
        A, F = build_extremal_complement(2, 4)
        assert {frozenset(e) for e in A.edge_positions()} == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({1, 4}),
        }
        assert {frozenset(e) for e in F.edge_positions()} == {
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }

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
            assert report.verified is not None and report.verified.ok
            assert is_frameproof(code, cfg.c).ok
            assert is_cover_free(code, cfg.c).ok
            assert report.code_size <= report.bounds.blackburn
            if report.bounds.improved is not None:
                assert report.code_size <= report.bounds.improved
            assert report.code_size == report.as_dict()["selected_count"] == len(code)
            assert report.rate == Fraction(len(code), cfg.q**report.bounds.t)

    def test_eta_one_yields_empty_code(self):
        code, report = construct(
            ConstructionConfig(c=2, l=4, q=13, eta=1.0, seed=1)
        )
        assert len(code) == 0
        assert report.verified.ok

    def test_greedy_packing_for_composite_q(self):
        code, report = construct(ConstructionConfig(c=2, l=4, q=6, eta=0.05, seed=2))
        assert report.as_dict()["packing"] == "greedy"
        assert report.packing_size == len(greedy_packing(4, 2, 6, seed=2))
        assert report.verified.ok

    def test_prime_power_field_end_to_end(self):
        code, report = construct(ConstructionConfig(c=2, l=4, q=9, eta=0.05, seed=5))
        assert report.packing_size == 9**3
        assert report.verified.ok

    def test_verify_disabled(self):
        _code, report = construct(
            ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=False)
        )
        assert report.verified is None
        assert "disabled" in report.verified_note

    def test_accepts_once_per_distinct_pattern(self, monkeypatch):
        calls = []

        def counting(pattern, family, lam):
            calls.append(pattern)
            return accept_pattern(pattern, family, lam)

        # `fpc.construct` names the function too; patch the module.
        monkeypatch.setattr(sys.modules[construct.__module__], "accept_pattern", counting)
        cfg = ConstructionConfig(c=2, l=4, q=13, eta=0.05, seed=7, verify=False)
        _code, report = construct(cfg)
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        _, complement = build_extremal_complement(cfg.c, cfg.l)
        candidates = [survived_set(U, 2, sparsifier) for U in rs_packing(4, 2, 13).transversals]
        assert sorted(calls, key=sorted) == sorted({c.pattern for c in candidates}, key=sorted)
        assert report.accepted_count == sum(
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


def test_pipeline_peak_memory_stays_near_its_matrices():
    # The word matrix and the id matrix are the largest arrays the pipeline
    # keeps: at (2,4,31), 4 one-byte symbols and 6 two-byte ids per word.
    # Besides them it holds a few narrow arrays of one entry per word and
    # the index temporaries numpy makes; 60 bytes per word bounds them all.
    cfg = ConstructionConfig(2, 4, 31, seed=7, verify=False)
    construct(cfg)  # the field tables, families and lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        construct(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n = 31**3
    assert peak <= 60 * n, f"traced peak {peak / n:.1f} bytes per word"


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

    def test_diagnosis_reports_packing_breach(self):
        witness = Witness((1, 1, 1, 1), ((1, 1, 1, 2), (2, 2, 2, 1)))
        victim = survived_set((1, 1, 1, 1), 2, SparsifierConfig(eta=0.0, seed=0))
        others = [
            survived_set(w, 2, SparsifierConfig(eta=0.0, seed=0))
            for w in witness.coalition
        ]
        msg = _diagnose_violation(witness, [victim] + others, 2, 1)
        assert "packing breach" in msg

    def test_diagnosis_flags_surviving_agreement(self):
        # Victim covered by words meeting it in exactly-2 agreements that its
        # own pattern retained: the matching stage must have let them through.
        witness = Witness((1, 2, 3, 4), ((1, 2, 5, 5), (5, 5, 3, 4)))
        victim = survived_set((1, 2, 3, 4), 2, SparsifierConfig(eta=0.0, seed=0))
        msg = _diagnose_violation(witness, [victim], 2, 1)
        assert "matching breach" in msg


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
