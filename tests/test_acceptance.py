"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test carries a `criterion` marker; the conftest summary hook prints one
PASS/FAIL line per criterion at the end of the run.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from fpc.cli import main as cli_main
from fpc.construct import (
    ConstructionConfig,
    construct,
    search_max,
    trivial_code,
)
from fpc.core import (
    desc_contains,
    is_cover_free,
    is_frameproof,
    own_subsequence_audit,
    pi,
    pi_inverse,
)
from fpc.extremal import (
    blackburn_upper,
    emc_value,
    improved_threshold,
    improved_upper,
    m_exact,
    rate_limit,
)
from fpc.packing import (
    SparsifierConfig,
    degree_diagnostics,
    r_membership,
    rs_packing,
    survived_set,
    validate_induced,
    validate_packing,
)

from test_core import random_code
from fpc.construct import build_extremal_complement


@pytest.mark.criterion(1, "rate limits match the known exact values")
def test_criterion_1_rate_limits():
    assert rate_limit(2, 4) == Fraction(2)
    assert rate_limit(2, 6) == Fraction(2)
    assert rate_limit(3, 5) == Fraction(5, 3)
    assert rate_limit(4, 6) == Fraction(3, 2)
    assert rate_limit(2, 5) == Fraction(1)


@pytest.mark.criterion(2, "exhaustive and formula m-oracles agree in proven regimes")
def test_criterion_2_m_oracle_agreement():
    started = time.monotonic()
    checked = 0
    for l in range(2, 7):
        for t in range(1, 4):
            for lam in range(0, 3):
                if t * (lam + 1) > l:
                    continue
                formula = emc_value(l, t, lam)
                assert formula.proven, (l, t, lam)
                assert formula.value == m_exact(l, t, lam).value, (l, t, lam)
                checked += 1
    assert checked >= 20
    assert m_exact(4, 2, 1).value == 3
    assert m_exact(5, 2, 1).value == 4
    assert m_exact(6, 2, 2).value == 10
    assert m_exact(6, 3, 1).value == 10
    for l, t in [(4, 1), (5, 2), (6, 3)]:
        assert m_exact(l, t, 0).value == 0
    assert time.monotonic() - started < 60


@pytest.mark.criterion(3, "bound arithmetic is exact")
def test_criterion_3_bound_arithmetic():
    assert blackburn_upper(2, 4, 16) == 576
    assert improved_upper(2, 4, 16) == 512
    assert improved_threshold(2, 4) == 1
    for q in range(4, 30):
        assert improved_upper(2, 5, q) == q**3


@pytest.mark.criterion(4, "evaluation packing is perfect and degree-tight")
def test_criterion_4_perfect_packing():
    started = time.monotonic()
    packing = rs_packing(4, 2, 5)
    assert len(packing) == 125
    assert validate_packing(packing)
    _, complement = build_extremal_complement(2, 4)
    diag = degree_diagnostics(packing, SparsifierConfig(eta=0.05, seed=3), complement)
    assert diag.dP_max == 5 and diag.dP_min == 5
    assert diag.frac_high_degree == 1.0
    assert time.monotonic() - started < 1.0


@pytest.mark.criterion(5, "end-to-end constructions verify under their ceilings")
def test_criterion_5_end_to_end():
    started = time.monotonic()
    targets = [(2, 4, 13, 338), (2, 5, 11, 1331), (3, 5, 11, 201)]
    for c, l, q, ceiling in targets:
        cfg = ConstructionConfig(c=c, l=l, q=q, eta=0.05, seed=7)
        code, report = construct(cfg)
        assert report.verified is not None and report.verified.ok
        assert is_frameproof(code, c).ok
        assert is_cover_free(code, c).ok
        assert improved_upper(c, l, q) == ceiling
        assert len(code) <= ceiling
        sparsifier = SparsifierConfig(eta=cfg.eta, seed=cfg.seed)
        selected = [survived_set(w, report.bounds.t, sparsifier) for w in code.words]
        assert validate_induced(selected, report.bounds.t)
    assert time.monotonic() - started < 300


@pytest.mark.criterion(6, "rate trend is nondecreasing and within 5% of baseline")
def test_criterion_6_rate_trend(baseline):
    policy = baseline["policy"]
    rates = []
    for q_str, expected in sorted(baseline["rate_trend"].items(), key=lambda kv: int(kv[0])):
        cfg = ConstructionConfig(
            c=policy["c"],
            l=policy["l"],
            q=int(q_str),
            eta=policy["eta"],
            seed=policy["seed"],
            verify=False,
        )
        assert cfg.packing == policy["packing"]
        _code, report = construct(cfg)
        rate = float(report.rate)
        assert rate >= 0.95 * expected["rate_float"], (q_str, rate, expected)
        rates.append(rate)
    assert rates == sorted(rates), f"rate trend decreased: {rates}"


@pytest.mark.criterion(7, "checker equivalence and roundtrips over 1000 random codes")
def test_criterion_7_random_code_properties():
    started = time.monotonic()
    rng = random.Random(424242)
    violations = 0
    for _ in range(1000):
        code = random_code(rng, max_q=4, max_l=4, max_words=6)
        fp = is_frameproof(code, 2)
        cf = is_cover_free(code, 2)
        assert fp.ok == cf.ok
        assert pi_inverse(pi(code), code.q, l=code.l).words == code.words
        if not fp.ok:
            violations += 1
            for verdict in (fp, cf):
                w = verdict.witness
                assert w.word in code.words and w.word not in w.coalition
                assert desc_contains(w.word, w.coalition)
    assert violations > 0
    assert time.monotonic() - started < 30


@pytest.mark.criterion(8, "own-subsequence floor holds on every verified construction")
def test_criterion_8_own_subsequence_floor(built_all):
    for cfg, code, report in built_all:
        assert report.verified is not None and report.verified.ok
        result = own_subsequence_audit(code, cfg.c)
        assert result.ok, f"violations at {cfg}: {result.violations}"
        assert result.required == math.comb(cfg.l, result.t) - result.m.value


@pytest.mark.criterion(9, "exhaustive ground truth matches the closed forms")
def test_criterion_9_ground_truth():
    started = time.monotonic()
    best, optimal = search_max(2, 2, 3)
    assert optimal and len(best) == 4
    baseline_code = trivial_code(2, 3)
    assert len(baseline_code) == 4 == 2 * (3 - 1)
    assert is_frameproof(baseline_code, 2).ok
    best32, optimal32 = search_max(2, 3, 2)
    assert optimal32
    assert len(best32) <= 4
    assert is_frameproof(best32, 2).ok
    assert time.monotonic() - started < 120


@pytest.mark.criterion(10, "sparsifier statistics and bit-level determinism")
def test_criterion_10_sparsifier_and_determinism(tmp_path):
    # Kept fraction across the whole labeled-subset space at l=6, t=2, q=50.
    cfg = SparsifierConfig(eta=0.1, seed=12345)
    import itertools

    total = 0
    kept = 0
    for combo in itertools.combinations(range(6), 2):
        for syms in itertools.product(range(1, 51), repeat=2):
            total += 1
            kept += r_membership(tuple((p + 1, s) for p, s in zip(combo, syms)), cfg)
    assert total == math.comb(6, 2) * 50**2
    sigma = math.sqrt(0.1 * 0.9 / total)
    assert abs(kept / total - 0.9) <= 3 * sigma

    # Identical seeds reproduce code files byte for byte.
    out_a, out_b = tmp_path / "a.fpc", tmp_path / "b.fpc"
    args = ["construct", "--c", "2", "--l", "4", "--q", "13", "--seed", "7"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    # Sweep rows likewise, apart from the trailing wall-clock column.
    sweep_a, sweep_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_args = ["sweep", "--c", "2", "--l", "4", "--q-list", "13", "--seeds", "7"]
    assert cli_main(sweep_args + ["--out", str(sweep_a)]) == 0
    assert cli_main(sweep_args + ["--out", str(sweep_b)]) == 0
    rows_a = [line.rsplit(",", 1)[0] for line in sweep_a.read_text().splitlines()]
    rows_b = [line.rsplit(",", 1)[0] for line in sweep_b.read_text().splitlines()]
    assert rows_a == rows_b and len(rows_a) == 2
