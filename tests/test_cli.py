import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fpc.cli import main
from fpc.core import Code, ConstructionError
from fpc.cover_free import is_cover_free
from fpc.extremal import EmcValue
from fpc.fileio import (
    CodeFileError,
    format_code_file,
    parse_code_file,
    read_code_file,
    write_code_file,
)
from fpc.oracle import EXHAUSTIVE_CAP
from fpc.packing import greedy_packing


SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main(list(argv))


class TestCodeFile:
    def test_roundtrip(self, tmp_path):
        code = Code(3, 2, [(1, 2), (2, 1), (3, 3)])
        path = tmp_path / "c.fpc"
        write_code_file(path, code, ["note"])
        assert read_code_file(path).words == code.words

    def test_format_is_sorted_with_magic(self):
        text = format_code_file(Code(3, 2, [(2, 1), (1, 2)]))
        assert text.splitlines()[0] == "fpc 1"
        assert text.splitlines()[1] == "3 2"
        assert text.splitlines()[2:] == ["1 2", "2 1"]

    @pytest.mark.parametrize(
        "text,err",
        [
            ("nope\n3 2\n1 1\n", "magic"),
            ("fpc 1\n3\n1 1\n", "header"),
            ("fpc 1\n", "missing 'q l' header line"),
            ("fpc 1\n3 2\n1 1\n1 1\n", "duplicate"),
            ("fpc 1\n3 2\n1 1 1\n", "expected 2 symbols"),
            ("fpc 1\n3 2\n1 4\n", "outside"),
            ("fpc 1\n3 2\n1 x\n", "non-integer"),
            ("fpc 1\n3 2\n\n1 1\n", "blank"),
            ("fpc 1\n1_0 2\n1 1\n", "header"),
            ("fpc 1\n3 2\n+3 1\n", "non-integer"),
            ("fpc 1\n3 2\n03 1\n", "non-integer"),
            ("fpc 1\n-3 2\n1 1\n", "header"),
            ("fpc 1\n0 2\n", "header"),
            ("fpc 1\n3  2\n1  2 \n2\t3\n", "header"),
            ("fpc 1\n3 2\n1  2\n", "expected 2 symbols"),
            ("fpc 1\n3 2\n1 2 \n", "expected 2 symbols"),
            ("fpc 1\n3 2\n2\t3\n", "expected 2 symbols"),
            ("fpc 1\n3 2\n1\t2 3\n", "non-integer"),
            ("fpc 1\n3 2\n1 1\x0c2 2\n", "expected 2 symbols"),
        ],
    )
    def test_parser_rejections(self, text, err):
        with pytest.raises(CodeFileError, match=err):
            parse_code_file(text)

    def test_multiline_comment_refused(self):
        with pytest.raises(CodeFileError, match="comments must be single lines"):
            format_code_file(Code(3, 2, [(1, 2)]), ["one\ntwo"])

    def test_comments_ignored(self):
        code = parse_code_file("fpc 1\n3 2\n# hello\n1 1\n# mid\n2 2\n")
        assert code.words == ((1, 1), (2, 2))


class TestBoundsCommand:
    def test_ok(self, capsys):
        assert run("bounds", "2", "4", "16") == 0
        out = capsys.readouterr().out
        assert "blackburn = 576" in out and "improved = 512" in out

    def test_json(self, capsys):
        assert run("bounds", "3", "5", "10", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blackburn"] == 216
        assert payload["rate_limit"] == "5/3"

    def test_bad_arguments(self, capsys):
        assert run("bounds", "2", "4") == 1
        assert run("bounds", "2", "4", "x") == 1
        assert run("bounds", "0", "4", "16") == 1
        capsys.readouterr()
        assert run("bounds", "2", "4", "1") == 1
        assert capsys.readouterr().err == "error: q must be at least 2\n"


class TestOracleCommand:
    def test_both_agree(self, capsys):
        assert run("oracle", "4", "2", "1") == 0
        assert capsys.readouterr().out.splitlines() == [
            "formula: m(4,2,1) = 3 [proven(EKR)]",
            "exhaustive: m(4,2,1) = 3 [proven(exhaustive)]",
            "agreement",
        ]

    def test_cap_refusal_states_cap(self, capsys):
        # Without --cap the command resolves EXHAUSTIVE_CAP itself. The
        # exhaustive search declines in one line naming C(l,t) and the cap;
        # it is not an error.
        assert run("oracle", "9", "3", "2") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            f"exhaustive: not run, binom(9,3) = 84 exceeds the cap {EXHAUSTIVE_CAP}",
        ]
        assert run("oracle", "5", "2", "1", "--cap", "9") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "exhaustive: not run, binom(5,2) = 10 exceeds the cap 9",
        ]

    def test_formula_above_cap(self, capsys):
        assert run("oracle", "9", "3", "2") == 0
        assert capsys.readouterr().out.splitlines()[0] == "formula: m(9,3,2) = 56 [proven(t<=3)]"
        assert run("oracle", "5", "2", "1", "--cap", "9") == 0
        assert capsys.readouterr().out.splitlines()[0] == "formula: m(5,2,1) = 4 [proven(EKR)]"

    def test_disagreement_exits_1(self, monkeypatch, capsys):
        # A wrong exhaustive value: text output names no verdict on stdout,
        # --json names it in the object, and both exit 1 with a stderr line.
        wrong = EmcValue(4, True, "exhaustive")
        monkeypatch.setattr("fpc.oracle.m_exact", lambda *args, **kwargs: wrong)
        assert run("oracle", "4", "2", "1") == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "exhaustive: m(4,2,1) = 4 [proven(exhaustive)]"
        assert captured.err == "DISAGREEMENT: formula 3 vs exhaustive 4\n"
        assert run("oracle", "4", "2", "1", "--json") == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verdict"] == "disagreement"
        assert captured.err == "DISAGREEMENT: formula 3 vs exhaustive 4\n"

    def test_method_flag_is_gone(self, capsys):
        assert run("oracle", "4", "2", "1", "--method", "formula") == 1
        assert "unrecognized arguments: --method formula" in capsys.readouterr().err

    def test_json(self, capsys):
        # One JSON object, which carries the verdict line of the text output.
        assert run("oracle", "4", "2", "1", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {
            "exhaustive": {"status": "proven(exhaustive)", "value": 3},
            "formula": {"status": "proven(EKR)", "value": 3},
            "verdict": "agreement",
        }
        assert run("oracle", "7", "2", "1", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {
            "formula": {"status": "proven(EKR)", "value": 6},
            "verdict": f"exhaustive: not run, binom(7,2) = 21 exceeds the cap {EXHAUSTIVE_CAP}",
        }


class TestConstructVerifyAudit:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "code.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--verify", "--out", str(out),
        )
        assert rc == 0
        assert run("verify", "--in", str(out), "--c", "2") == 0
        assert run("audit", "--in", str(out), "--c", "2") == 0

    def test_construct_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.fpc", tmp_path / "b.fpc"
        args = ["construct", "--c", "2", "--l", "4", "--q", "13", "--seed", "9"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_construct_json(self, tmp_path, capsys):
        out = tmp_path / "code.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--out", str(out), "--json",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        # Each count under one name, and the rate as code_size / q^t.
        assert not {"candidate_count", "selected_count"} & payload.keys()
        assert payload["rate"] == str(Fraction(payload["code_size"], 13**2))

    def test_construct_json_bounds_match_bounds_command(self, tmp_path, capsys):
        out = tmp_path / "code.fpc"
        rc = run(
            "construct", "--c", "3", "--l", "5", "--q", "11",
            "--seed", "7", "--no-verify", "--out", str(out), "--json",
        )
        assert rc == 0
        built = json.loads(capsys.readouterr().out)
        assert run("bounds", "3", "5", "11", "--json") == 0
        bounds = json.loads(capsys.readouterr().out)
        assert {k: built[k] for k in bounds} == bounds
        assert "improved_threshold" in bounds

    def test_construct_json_times_verify_layers(self, tmp_path, capsys):
        out = tmp_path / "code.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--out", str(out), "--json",
        )
        assert rc == 0
        timings = json.loads(capsys.readouterr().out)["timings_ms"]
        layers = [timings[k] for k in ("validate_induced", "is_frameproof", "is_cover_free")]
        assert all(ms >= 0 for ms in layers)
        assert sum(layers) <= timings["verify"]

    def test_construct_file_hash_pinned(self, tmp_path):
        # The whole CLI-written file, comment lines included, hashed at the
        # parent of the change that made mode and matching constants.
        out = tmp_path / "code.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--no-verify", "--out", str(out),
        )
        assert rc == 0
        assert "# mode=relaxed packing=rs matching=greedy\n" in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "51fef3469a583a678fc4631d5988b69ba66713d7bd0143ec7c583bffdb4de561"
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["construct", "--mode", "strict"],
            ["construct", "--matching", "nibble"],
            ["sweep", "--q-list", "13", "--seeds", "7", "--matching", "nibble"],
            # q picks the packing.
            ["construct", "--packing", "rs"],
            ["sweep", "--q-list", "13", "--seeds", "7", "--packing", "greedy"],
            ["diagnose", "--packing", "rs"],
        ],
    )
    def test_mode_and_matching_flags_are_gone(self, tmp_path, capsys, flags):
        command, *rest = flags
        point = ["--c", "2", "--l", "4"] + (["--q", "13"] if command != "sweep" else [])
        out = tmp_path / "out"
        to_out = [] if command == "diagnose" else ["--out", str(out)]
        assert run(command, *point, *rest, *to_out) == 1
        assert f"unrecognized arguments: {' '.join(rest[-2:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "c,l,q,sha256",
        [
            (2, 4, 6, "a451c4e4d4dc84616c2eb13265e996c04991547ebdc2e5559cb6b69ad429ef2d"),
            (3, 6, 5, "1877753a01a49bcef4057fb96e8439b3a3491feca3a8bd0c46dd86acaf75a227"),
            (2, 5, 4, "b22b6540ee7aa1d05a4621d449686bff02b3d2b3283e0eb51cc8ae4feb5e3c41"),
        ],
    )
    def test_greedy_packing_where_rs_has_no_field(self, tmp_path, capsys, c, l, q, sha256):
        # A composite q, or a q below l, builds with no flag: the same file
        # that a --packing greedy flag wrote before the packing followed q.
        out = tmp_path / "code.fpc"
        point = ["--c", str(c), "--l", str(l), "--q", str(q), "--seed", "7"]
        assert run("construct", *point, "--out", str(out), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["packing"], payload["verified"]) == ("greedy", True)
        assert "# mode=relaxed packing=greedy matching=greedy\n" in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        assert run("verify", "--in", str(out), "--c", str(c)) == 0

    @pytest.mark.parametrize(
        "command,point",
        [
            ("construct", ["--c", "2", "--l", "4", "--q", "47"]),
            ("sweep", ["--c", "2", "--l", "4", "--q-list", "47", "--seeds", "7"]),
        ],
    )
    def test_missing_out_directory_refused_before_construction(
        self, tmp_path, monkeypatch, capsys, command, point
    ):
        def construct_called(*args, **kwargs):
            raise AssertionError("construct ran before --out was checked")

        monkeypatch.setattr("fpc.construct.construct", construct_called)
        out = tmp_path / "missing" / "x.out"
        assert run(command, *point, "--no-verify", "--out", str(out)) == 1
        assert "does not exist" in capsys.readouterr().err
        # An existing directory cannot take the file either.
        assert run(command, *point, "--no-verify", "--out", str(tmp_path)) == 1
        assert "is a directory" in capsys.readouterr().err
        # Nor can the empty path.
        assert run(command, *point, "--no-verify", "--out", "") == 1
        assert capsys.readouterr().err == "error: --out is empty\n"

    def test_oversized_build_refused_before_packing(self, tmp_path, monkeypatch, capsys):
        # (2,10,11): 11^6 words x (8 * 10 + 4 * C(10, 5)) bytes is an
        # estimated 1.80 GiB for the words and their labeled 5-subsets,
        # above the 1 GiB cap.
        class PackingBuilt(Exception):
            pass

        def rs_called(*args, **kwargs):
            raise PackingBuilt

        monkeypatch.setattr("fpc.packing.rs_packing", rs_called)
        out = tmp_path / "x.fpc"
        started = time.perf_counter()
        assert run("construct", "--c", "2", "--l", "10", "--q", "11", "--no-verify", "--out", str(out)) == 1
        assert time.perf_counter() - started < 1.0
        assert "estimated 1.80 GiB, above the 1 GiB cap" in capsys.readouterr().err
        assert not out.exists()
        # (2,4,127) needs 0.11 GiB and reaches the packing.
        from fpc.construct import ConstructionConfig, construct

        with pytest.raises(PackingBuilt):
            construct(ConstructionConfig(2, 4, 127, verify=False))

    def test_oversized_greedy_packing_refused_before_building(self, tmp_path, monkeypatch, capsys):
        # (2,16,2) takes the greedy packing. Its 2^9 words x (8 * 16 + 4 *
        # C(16, 8)) bytes pass the cap, but the 2^16 words it lays, with
        # their labeled 9-subsets, need 2^16 x (8 * 16 + 4 * C(16, 9))
        # bytes, 2.80 GiB.
        def select_called(*args, **kwargs):
            raise AssertionError("greedy_select ran before the byte cap was checked")

        monkeypatch.setattr("fpc.packing.greedy_select", select_called)
        out = tmp_path / "x.fpc"
        started = time.perf_counter()
        assert run("construct", "--c", "2", "--l", "16", "--q", "2", "--no-verify", "--out", str(out)) == 1
        assert time.perf_counter() - started < 1.0
        assert "estimated 2.80 GiB, above the 1 GiB cap" in capsys.readouterr().err
        assert not out.exists()

    def test_generated_seed_is_printed(self, tmp_path, capsys):
        out = tmp_path / "code.fpc"
        rc = run("construct", "--c", "2", "--l", "4", "--q", "5", "--out", str(out))
        assert rc == 0
        assert "seed" in capsys.readouterr().out

    def test_verify_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fpc"
        bad.write_text("fpc 1\n3 2\n1 1\n1 2\n2 2\n")
        assert run("verify", "--in", str(bad), "--c", "2") == 2
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "word      = 1 2" in out

    def test_verify_symbols_beyond_fixed_width(self, tmp_path, capsys):
        # Symbols up to 2^70 fit no numpy integer type; the checker must
        # still find the planted framed word instead of overflowing.
        rng = random.Random(70)
        q, l = 2**70, 6
        words = [tuple(rng.randint(1, q) for _ in range(l)) for _ in range(40)]
        words.append(words[0][:3] + words[1][3:])
        code = Code(q, l, words)
        path = tmp_path / "big.fpc"
        write_code_file(path, code)
        assert run("verify", "--in", str(path), "--c", "3") == 2
        witness = is_cover_free(code, 3).witness
        expected = [f"word      = {' '.join(map(str, witness.word))}"]
        expected += [f"coalition = {' '.join(map(str, m))}" for m in witness.coalition]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "frameproof: VIOLATION (c=3)"
        assert lines[1:] == expected

    def test_verify_missing_file_exit_1(self, capsys):
        assert run("verify", "--in", "/nonexistent.fpc", "--c", "2") == 1

    def test_audit_violation_exit_2(self, tmp_path, capsys):
        # Not frameproof, and every word also misses the own-subsequence
        # floor, so the audit flags it.
        bad = tmp_path / "bad.fpc"
        bad.write_text("fpc 1\n2 2\n1 1\n1 2\n2 1\n")
        assert run("audit", "--in", str(bad), "--c", "2") == 2
        assert "violation" in capsys.readouterr().out

    def test_verify_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fpc"
        bad.write_text("fpc 1\n3 2\n1 9\n")
        assert run("verify", "--in", str(bad), "--c", "2") == 1
        # CodeFileError is caught as the ValueError it is.
        assert capsys.readouterr().err == "error: line 3: symbol 9 outside 1..3\n"

    def test_construction_error_exit_1(self, tmp_path, monkeypatch, capsys):
        # main imports ConstructionError and BudgetExceededError only once
        # an exception propagates.
        def refuse(*args, **kwargs):
            raise ConstructionError("planted diagnosis")

        monkeypatch.setattr("fpc.construct.construct", refuse)
        out = tmp_path / "code.fpc"
        assert run("construct", "--c", "2", "--l", "4", "--q", "5", "--seed", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: planted diagnosis\n"

    def test_unexpected_errors_propagate(self, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("not a refusal")

        monkeypatch.setattr("fpc.construct.construct", crash)
        out = tmp_path / "code.fpc"
        with pytest.raises(RuntimeError, match="not a refusal"):
            run("construct", "--c", "2", "--l", "4", "--q", "5", "--seed", "1", "--out", str(out))

    def test_budget_env(self, tmp_path, monkeypatch, capsys):
        good = tmp_path / "g.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--out", str(good),
        )
        assert rc == 0
        monkeypatch.setenv("FPC_BUDGET", "10")
        assert run("verify", "--in", str(good), "--c", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget is 1.00e+01" in err
        # FPC_BUDGET is the one budget setting; verify has no flag of its own.
        assert run("verify", "--in", str(good), "--c", "2", "--budget", "10") == 1
        assert "unrecognized arguments: --budget 10" in capsys.readouterr().err

    def test_audit_refuses_past_the_budget(self, tmp_path, monkeypatch, capsys):
        # Three words of length 40 at c = 2, so t = 20: the audit would build
        # 3 * (C(40, 20) + C(40, 19)) projections, and refuses at once.
        long = tmp_path / "l40.fpc"
        long.write_text("fpc 1\n3 40\n" + "".join(f"{' '.join([s] * 40)}\n" for s in "123"))
        assert run("verify", "--in", str(long), "--c", "2") == 0
        capsys.readouterr()
        started = time.perf_counter()
        assert run("audit", "--in", str(long), "--c", "2") == 1
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == (
            "error: own-subsequence audit needs ~8.07e+11 projections, budget is 1.00e+10\n"
        )
        # FPC_BUDGET governs the audit as it governs the checkers.
        small = tmp_path / "small.fpc"
        small.write_text("fpc 1\n3 3\n1 1 1\n1 2 2\n2 1 3\n3 3 2\n")
        monkeypatch.setenv("FPC_BUDGET", "24")
        assert run("audit", "--in", str(small), "--c", "2") == 0
        assert capsys.readouterr().out.endswith("own-subsequence floor: ok\n")
        monkeypatch.setenv("FPC_BUDGET", "23")
        assert run("audit", "--in", str(small), "--c", "2") == 1
        assert "projections, budget is 2.30e+01" in capsys.readouterr().err

    def test_budget_env_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FPC_BUDGET", "1e6")
        out = tmp_path / "c.fpc"
        point = ["--c", "2", "--l", "4", "--q", "5", "--seed", "1"]
        assert run("construct", *point, "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: FPC_BUDGET must be an integer, got '1e6'\n"

    def test_budget_env_skips_construct_verification(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FPC_BUDGET", "10")
        out = tmp_path / "c.fpc"
        rc = run(
            "construct", "--c", "2", "--l", "4", "--q", "13",
            "--seed", "7", "--out", str(out), "--json",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is None
        assert "skipped" in payload["verified_note"]


def read_sweep(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def without(row: dict, *keys) -> dict:
    return {k: v for k, v in row.items() if k not in keys}


class TestSweepCommand:
    def test_rows_and_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        rc = run(
            "sweep", "--c", "2", "--l", "4", "--q-list", "13,17,23",
            "--seeds", "7", "--out", str(out),
        )
        assert rc == 0
        rows = read_sweep(out)
        assert [r["q"] for r in rows] == [13, 17, 23]
        assert all(r["verified"] is True and r["verified_note"] == "" for r in rows)
        assert all(Fraction(r["rate"]) == Fraction(r["code_size"], r["q"] ** r["t"]) for r in rows)
        rates = [Fraction(r["rate"]) for r in rows]
        assert rates == sorted(rates)

    def test_row_is_the_construct_json_payload(self, tmp_path, capsys):
        point = ["--c", "2", "--l", "4", "--seed", "7"]
        assert run("construct", *point, "--q", "13", "--out", str(tmp_path / "c.fpc"), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        sweep = ["--c", "2", "--l", "4", "--q-list", "13", "--seeds", "7"]
        out = tmp_path / "sweep.jsonl"
        assert run("sweep", *sweep, "--out", str(out)) == 0
        (row,) = read_sweep(out)
        assert isinstance(row["elapsed_ms"], int)
        assert without(row, "timings_ms", "elapsed_ms") == without(payload, "out", "timings_ms")

    def test_deterministic_modulo_timing(self, tmp_path):
        args = [
            "sweep", "--c", "2", "--l", "4", "--q-list", "13",
            "--seeds", "3", "--no-verify",
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        strip = lambda p: [without(r, "timings_ms", "elapsed_ms") for r in read_sweep(p)]
        assert strip(a) == strip(b)

    def test_no_verify_marks_skipped(self, tmp_path):
        out = tmp_path / "s.jsonl"
        rc = run(
            "sweep", "--c", "2", "--l", "4", "--q-list", "13",
            "--seeds", "1", "--no-verify", "--out", str(out),
        )
        assert rc == 0
        (row,) = read_sweep(out)
        assert (row["verified"], row["verified_note"]) == (None, "verification skipped: disabled by config")

    def test_generated_seed_is_printed(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert run("sweep", "--c", "2", "--l", "4", "--q-list", "5", "--out", str(out)) == 0
        first, wrote = capsys.readouterr().out.splitlines()
        seed = int(first.removeprefix("seed = ").removesuffix(" (generated)"))
        assert first == f"seed = {seed} (generated)"
        assert wrote == f"wrote 1 rows to {out}"
        assert read_sweep(out)[0]["seed"] == seed

    @pytest.mark.parametrize(
        "flags,err",
        [
            (["--q-list", "47,1"], "need c, l, q all at least 2"),
            (["--q-list", "47", "--eta-list", "0.05,1.5"], "eta=1.5 outside [0, 1]"),
        ],
    )
    def test_bad_grid_point_refused_before_any_build(
        self, tmp_path, monkeypatch, capsys, flags, err
    ):
        def construct_called(*args, **kwargs):
            raise AssertionError("construct ran before every grid point was checked")

        monkeypatch.setattr("fpc.construct.construct", construct_called)
        out = tmp_path / "s.csv"
        assert run("sweep", "--c", "2", "--l", "4", *flags, "--seeds", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_bad_q_list(self, capsys):
        assert run("sweep", "--c", "2", "--l", "4", "--q-list", "13,x", "--out", "/tmp/x.csv") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--q-list", ",", "--seeds", "1"],
            ["--q-list", "13", "--seeds", ","],
            ["--q-list", "13", "--seeds", "1", "--eta-list", ","],
        ],
    )
    def test_empty_list_refused(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        assert run("sweep", "--c", "2", "--l", "4", *flags, "--out", str(out)) == 1
        empty = flags[flags.index(",") - 1]
        assert f"{empty} lists no values" in capsys.readouterr().err
        assert not out.exists()


class TestDiagnoseCommand:
    def test_reports_claim_values(self, capsys):
        rc = run("diagnose", "--c", "2", "--l", "4", "--q", "5", "--seed", "3", "--json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dP_max"] == 5 and payload["dP_min"] == 5
        assert payload["max_codegree"] <= 1
        assert payload["lambda_F"] == 2

    @pytest.mark.parametrize(
        "point,dh_mean",
        [
            (["--l", "5", "--q", "5"], 2.8401360544217686),
            (["--l", "4", "--q", "7", "--eta", "0.3"], 0.2562814070351759),
        ],
    )
    def test_dh_mean_pinned(self, capsys, point, dh_mean):
        # Seed-7 values taken before image-set membership replaced the
        # isomorphism backtracker; at (2,4,7) the family has 4 images.
        assert run("diagnose", "--c", "2", *point, "--seed", "7", "--json") == 0
        assert json.loads(capsys.readouterr().out)["dH_mean"] == dh_mean

    def test_plain_text_lists_the_json_fields(self, capsys):
        point = ["--c", "2", "--l", "4", "--q", "5", "--seed", "3"]
        assert run("diagnose", *point, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert run("diagnose", *point) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == sorted(f"{k} = {v}" for k, v in payload.items())
        assert lines[:3] == ["c = 2", "l = 4", "q = 5"]

    def test_generated_seed_is_printed(self, capsys):
        assert run("diagnose", "--c", "2", "--l", "4", "--q", "5", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed_generated"] is True and isinstance(payload["seed"], int)

    def test_greedy_packing(self, capsys):
        rc = run("diagnose", "--c", "2", "--l", "4", "--q", "6", "--seed", "3", "--json")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["packing"] == "greedy"
        assert payload["packing_size"] == 158 == len(greedy_packing(4, 2, 6, seed=3))

    def test_refuses_large_l_before_packing(self, capsys):
        # The (2,10,11) packing alone has 1.77M words; the l <= 9 cap of the
        # image enumeration must refuse before it is built.
        started = time.perf_counter()
        assert run("diagnose", "--c", "2", "--l", "10", "--q", "11") == 1
        assert time.perf_counter() - started < 5.0
        assert "capped at l = 9" in capsys.readouterr().err

    def test_oversized_packing_refused_before_building(self, monkeypatch, capsys):
        # (2,4,269): 269^3 words x (8 * 4 + 4 * C(4, 2)) bytes is an
        # estimated 1.015 GiB for the words and their labeled 2-subsets,
        # above the 1 GiB cap that construct keeps.
        class PackingBuilt(Exception):
            pass

        def rs_called(*args, **kwargs):
            raise PackingBuilt

        monkeypatch.setattr("fpc.packing.rs_packing", rs_called)
        started = time.perf_counter()
        assert run("diagnose", "--c", "2", "--l", "4", "--q", "269", "--seed", "1") == 1
        assert time.perf_counter() - started < 1.0
        assert "estimated 1.02 GiB, above the 1 GiB cap" in capsys.readouterr().err
        # (2,4,263) needs 0.95 GiB and reaches the packing.
        with pytest.raises(PackingBuilt):
            run("diagnose", "--c", "2", "--l", "4", "--q", "263", "--seed", "1")

    @pytest.mark.parametrize("c,q", [("1", "13"), ("2", "1")])
    def test_bad_point_refused_as_construct_refuses_it(self, tmp_path, capsys, c, q):
        point = ("--c", c, "--l", "4", "--q", q, "--seed", "1")
        assert run("construct", *point, "--out", str(tmp_path / "x.fpc")) == 1
        construct_err = capsys.readouterr().err
        assert run("diagnose", *point) == 1
        assert capsys.readouterr().err == construct_err == "error: need c, l, q all at least 2\n"


def test_checking_commands_start_without_numpy(tmp_path):
    # One fresh interpreter per command. --help loads no other fpc module,
    # no handler module among them, verify only its handler, fileio, core
    # and the frameproof checker, and only a build that the plain route
    # does not take loads numpy: the verified (2,4,13) and (3,6,16) builds
    # run without it, and the (2,4,47) build loads it. No record is a
    # dataclass, so no command loads dataclasses or the inspect module it
    # imports (the numpy build is held to dataclasses only, as numpy loads
    # inspect itself). Neither construct nor verify loads the audit, the
    # diagnostics, the exhaustive or the per-word references, which only
    # their own commands or the tests run, and construct loads the checkers
    # and validate only to verify.
    path = tmp_path / "code.fpc"
    path.write_text("fpc 1\n3 2\n1 2\n2 1\n3 3\n")
    no_records = ("dataclasses", "inspect")
    not_run = ("fpc.audit", "fpc.diagnose", "fpc.oracle", "fpc.reference")
    handlers = tuple(
        f"fpc.commands.{name}"
        for name in ("bounds", "oracle", "construct", "verify", "audit", "sweep", "diagnose")
    )
    checkers = ("fpc.frameproof", "fpc.cover_free")
    # (argv, modules it must not load, modules it must load, expected output)
    cases = [
        (
            ["--help"],
            ("fpc.core", "fpc.extremal", "fpc.fileio", "numpy", "secrets", "fractions", "json")
            + no_records + ("fpc.commands",) + handlers,
            (),
            "usage: fpc",
        ),
        (
            ["verify", "--in", str(path), "--c", "2"],
            ("fpc.extremal", "fractions", "numpy", "secrets", "fpc.cover_free")
            + no_records + not_run + handlers[:3] + handlers[4:],
            (),
            "frameproof: ok (3 words, c=2)",
        ),
        (
            ["construct", "--c", "2", "--l", "4", "--q", "13", "--seed", "7",
             "--out", str(tmp_path / "q13.fpc")],
            ("numpy",) + no_records + not_run,
            (),
            "verified = True",
        ),
        (
            ["construct", "--c", "3", "--l", "6", "--q", "16", "--seed", "7",
             "--out", str(tmp_path / "q16.fpc")],
            ("numpy",) + no_records + not_run,
            (),
            "verified = True",
        ),
        (
            ["construct", "--c", "2", "--l", "4", "--q", "47", "--seed", "7", "--no-verify",
             "--out", str(tmp_path / "q47.fpc")],
            ("dataclasses", "fpc.validate") + not_run + checkers,
            ("numpy",),
            "code_size = 1596",
        ),
        (["bounds", "2", "4", "13"], ("numpy",) + no_records, (), "rate_limit = 2"),
        (
            ["audit", "--in", str(path), "--c", "2"],
            ("numpy",) + no_records,
            (),
            "own-subsequence floor: ok",
        ),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, unloaded, needed, expected in cases:
        child = f"""
import sys
from fpc.cli import main
try:
    rc = main({argv!r})
except SystemExit as exc:
    rc = exc.code
assert rc == 0, rc
loaded = [name for name in {unloaded!r} if name in sys.modules]
assert not loaded, f"{argv[0]} imported {{loaded}}"
missing = [name for name in {needed!r} if name not in sys.modules]
assert not missing, f"{argv[0]} did not import {{missing}}"
"""
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert expected in result.stdout


def test_numpy_free_modules_import_without_numpy():
    # construct, the candidates, the field, the plain route, the re-checks
    # and the per-word references import no numpy; only fpc.packing,
    # fpc.shuffle and fpc.diagnose do.
    modules = ["construct", "candidate", "field", "plain", "validate", "reference"]
    child = f"""
import sys
for name in {modules!r}:
    __import__("fpc." + name)
assert "numpy" not in sys.modules, sorted(sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_construct_leaves_openssl_unloaded(tmp_path):
    # blake2b comes from _blake2, and a missing --seed from os.urandom, so a
    # verified build never loads hashlib's OpenSSL backend.
    out = tmp_path / "code.fpc"
    argv = ["construct", "--c", "2", "--l", "4", "--q", "13", "--out", str(out)]
    child = f"""
import sys
from fpc.cli import main
assert main({argv!r}) == 0
assert "_hashlib" not in sys.modules, "fpc construct loaded _hashlib"
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "seed_generated = True" in result.stdout


def test_construct_leaves_dataclasses_unloaded(tmp_path):
    # numpy imports inspect itself, so only dataclasses is checked here.
    out = tmp_path / "code.fpc"
    argv = ["construct", "--c", "3", "--l", "6", "--q", "16", "--seed", "7", "--out", str(out)]
    child = f"""
import sys
from fpc.cli import main
assert main({argv!r}) == 0
assert "dataclasses" not in sys.modules, "fpc construct loaded dataclasses"
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_cold_verify_stage_is_the_sum_of_its_layers(tmp_path):
    # A cold child loads the checkers before the verify stage's clock
    # starts, so the stage holds little beyond its three layers.
    out = tmp_path / "code.fpc"
    argv = ["construct", "--c", "2", "--l", "4", "--q", "13", "--seed", "7", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "fpc.cli", *argv, "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    timings = json.loads(result.stdout)["timings_ms"]
    layers = sum(timings[k] for k in ("validate_induced", "is_frameproof", "is_cover_free"))
    assert timings["verify"] - layers <= 1.0, timings


class TestProcessExit:
    """`python -m fpc.cli` ends through `run()`, which flushes and calls
    os._exit. Each child's stdout is a pipe and PYTHONUNBUFFERED is unset, so
    output that run() failed to flush would be lost."""

    # An atexit hook, which only the normal exit path runs.
    HOOK = "import atexit, sys; atexit.register(sys.stderr.write, 'teardown\\n'); "

    def spawn(self, *args, stdout=subprocess.PIPE, unbuffered=False):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(SRC), COLUMNS="80")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, *args],
            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )

    def cli(self, *argv, **kwargs):
        return self.spawn("-m", "fpc.cli", *argv, **kwargs)

    def test_construct_json_line_and_file(self, tmp_path, capsys):
        point = ["--c", "2", "--l", "4", "--q", "13", "--seed", "7", "--json"]
        child = self.cli("construct", *point, "--out", str(tmp_path / "child.fpc"))
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.count("\n") == 1
        payload = json.loads(child.stdout)
        assert run("construct", *point, "--out", str(tmp_path / "main.fpc")) == 0
        in_process = json.loads(capsys.readouterr().out)
        assert payload.keys() == in_process.keys() and payload["verified"] is True
        assert payload["code_size"] == in_process["code_size"] == 108
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("child.fpc", "main.fpc")
        ]
        assert digests[0] == digests[1]

    def test_help_exits_0_with_full_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        child = self.cli("--help")
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == capsys.readouterr().out
        assert child.stdout.startswith("usage: fpc") and "diagnose" in child.stdout

    def test_refusal_exits_1(self, tmp_path):
        child = self.cli("construct", "--c", "2", "--l", "4", "--q", "13", "--out", str(tmp_path))
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == f"error: --out {str(tmp_path)!r} is a directory\n"

    def test_verify_violation_exits_2_with_witness(self, tmp_path):
        bad = tmp_path / "bad.fpc"
        bad.write_text("fpc 1\n3 2\n1 1\n1 2\n2 2\n")
        child = self.cli("verify", "--in", str(bad), "--c", "2")
        assert (child.returncode, child.stderr) == (2, "")
        assert child.stdout == (
            "frameproof: VIOLATION (c=2)\nword      = 1 2\ncoalition = 1 1\ncoalition = 2 2\n"
        )

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["audit", "--in", "{code}", "--c", "2"], "own-subsequence floor: ok\n"),
            (["diagnose", "--c", "2", "--l", "4", "--q", "5", "--seed", "3"], "max_codegree = 1\n"),
            (["oracle", "4", "2", "1"], "exhaustive: m(4,2,1) = 3 [proven(exhaustive)]\nagreement\n"),
        ],
        ids=["audit", "diagnose", "oracle"],
    )
    def test_own_module_commands(self, tmp_path, argv, expected):
        # Under -m, fpc.cli is __main__; a module it reaches that imported
        # fpc.cli would load a second copy of it.
        code = tmp_path / "code.fpc"
        code.write_text("fpc 1\n3 2\n1 2\n2 1\n3 3\n")
        child = self.cli(*(arg.format(code=code) for arg in argv))
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.endswith(expected)

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["construct", "--c", "2", "--l", "4", "--q", "13", "--out", ""], "--out is empty"),
            (["verify", "--in", "{missing}", "--c", "2"], "No such file or directory"),
            (["bounds", "1", "4", "13"], "need c >= 2 and l >= 2"),
            (["sweep", "--c", "2", "--l", "4", "--q-list", "x", "--out", "{out}"], "--q-list"),
            (["audit", "--in", "{missing}", "--c", "2"], "No such file or directory"),
            (["oracle", "4", "2", "1", "--cap", "x"], "invalid int value: 'x'"),
            (["diagnose", "--c", "2", "--l", "10", "--q", "11"], "capped at l = 9"),
        ],
        ids=["construct", "verify", "bounds", "sweep", "audit", "oracle", "diagnose"],
    )
    def test_handler_refusal_is_one_error_line(self, tmp_path, argv, error):
        # Each command's handler has its own module, which must not import
        # fpc.cli: under -m, where fpc.cli runs as __main__, that would
        # compile it a second time, and -X importtime would list it. A
        # refusal from each handler is one error line and exit 1, with no
        # traceback.
        paths = {"missing": tmp_path / "missing.fpc", "out": tmp_path / "s.jsonl"}
        child = self.spawn("-X", "importtime", "-m", "fpc.cli", *(a.format(**paths) for a in argv))
        assert (child.returncode, child.stdout) == (1, "")
        imports = [line for line in child.stderr.splitlines() if line.startswith("import time:")]
        assert not [line for line in imports if line.endswith(" fpc.cli")]
        rest = [line for line in child.stderr.splitlines() if line not in imports]
        assert len(rest) == 1 and rest[0].startswith("error: ") and error in rest[0]

    def test_refusal_reaches_error_line(self, tmp_path):
        child = self.cli("sweep", "--c", "2", "--l", "4", "--q-list", "x", "--out", str(tmp_path / "s"))
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == "error: --q-list must be comma-separated integers, got 'x'\n"

    def test_main_block_skips_teardown(self):
        # The __main__ block as `-m` runs it, under the atexit hook.
        run_main = "import runpy; runpy.run_module('fpc.cli', run_name='__main__', alter_sys=True)"
        child = self.spawn("-c", self.HOOK + run_main, "bounds", "2", "4", "13")
        assert (child.returncode, child.stderr) == (0, "")
        assert "rate_limit = 2\n" in child.stdout

    def test_uncaught_exception_takes_normal_exit(self):
        raising = "import fpc.cli as c; c.main = lambda argv=None: 1/0; c.run()"
        child = self.spawn("-c", self.HOOK + raising)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr.startswith("Traceback (most recent call last):")
        assert child.stderr.endswith("ZeroDivisionError: division by zero\nteardown\n")

    def test_non_int_system_exit_takes_normal_exit(self):
        raising = "import fpc.cli as c; c.main = lambda argv=None: sys.exit('bye'); c.run()"
        child = self.spawn("-c", self.HOOK + raising)
        assert (child.returncode, child.stderr) == (1, "bye\nteardown\n")

    def test_failed_flush_takes_normal_exit(self):
        # A pipe with no reader: run()'s flush raises BrokenPipeError, so it
        # returns main's code, and teardown's own flush fails as it does
        # without run(), which Python reports with exit status 120.
        read, write = os.pipe()
        os.close(read)
        try:
            child = self.spawn("-m", "fpc.cli", "bounds", "2", "4", "13", stdout=write)
        finally:
            os.close(write)
        assert child.returncode == 120
        assert "BrokenPipeError" in child.stderr

    @pytest.mark.parametrize(
        "argv,unbuffered",
        [
            (["bounds", "2", "4", "13"], False),
            (["bounds", "2", "4", "13"], True),
            (["--help"], False),
            (["--help"], True),
        ],
        ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered"],
    )
    def test_closed_stdout_is_not_bad_input(self, argv, unbuffered):
        # The read end is closed before the child starts. Buffered, the
        # write fails in the final flush; unbuffered, in the command's first
        # print, or in argparse's write of the help text. All end with
        # Python's failed-flush status, 120.
        read, write = os.pipe()
        os.close(read)
        try:
            child = self.cli(*argv, stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
        assert child.returncode == 120
        assert "error:" not in child.stderr
