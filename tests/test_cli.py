import argparse
import contextlib
import copy
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import nilcert
from nilcert import cli, usage
from nilcert.arith import SCHEMA, decimals
from nilcert.certificates import SeriesCertificate
from nilcert.cli import preset_description, presets, run
from nilcert.errors import TooLarge
from nilcert.linalg import IntMatrix, Lattice
from nilcert.nilpotent2 import NilSublattice, TwoStepLattice, heisenberg_witness, subnormal_series
from nilcert.semidirect import SemidirectGroup, SemidirectLattice, sol3_gamma, sol3_tower

GOLDEN = pathlib.Path(__file__).parent / "golden"
HEIS_DESC = {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", "1"], ["-1", "0"]]]}
SOL3_DESC = sol3_gamma(0).to_json()
ACTION_DESC = {
    "generators": 1,
    "relators": ["aa"],
    "module": {"free": 1, "torsion": []},
    "action": [[["-1"]]],
}


KXS1_DESC = preset_description("kxs1")
TORUS3_DESC = {"type": "semidirect", "n": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


def _series_claim_on_sol3():
    """A two-step-series claim, its group the Sol3 description with the claim's gamma."""
    heis = TwoStepLattice.from_json(HEIS_DESC)
    gamma = NilSublattice.from_json(heis, {"U": [["2", "0"], ["0", "2"]], "W": [["4"]]})
    claim = subnormal_series(heis, gamma).to_json_dict()
    claim["group"] = dict(SOL3_DESC, gamma=claim["group"]["gamma"])
    return json.dumps(claim)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def result_of(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0, out
    report = json.loads(out)
    assert report["schema"] == "nilcert/1"
    return report["result"]


class TestReports:
    def test_minkowski(self, capsys):
        assert result_of(capsys, "minkowski", "--n", "1") == {"n": 1, "bound": 2}

    def test_sol3_tower(self, capsys):
        result = result_of(capsys, "sol3-tower", "--k", "3", "--json")
        assert result["total_index"] == "64"
        assert result["min_length"] == 3
        assert [lvl["quotient_factors"] for lvl in result["levels"]] == [["2", "2"]] * 3

    def test_discsym2_preset(self, capsys):
        assert result_of(
            capsys, "discsym2-bound", "--preset", "heisenberg", "--k", "5"
        ) == {"f": 1, "b": 2}

    def test_snf_strings(self, capsys):
        result = result_of(capsys, "snf", "--input", '[["4","2"],["2","0"]]')
        assert result["factors"] == ["2", "2"]

    def test_hnf(self, capsys):
        result = result_of(capsys, "hnf", "--input", '[["2","4"],["0","2"]]')
        assert result["H"] == [["2", "0"], ["0", "2"]]
        assert result["U"] == [["1", "-2"], ["0", "1"]]

    def test_witness_chain(self, capsys):
        result = result_of(
            capsys, "heisenberg-witness", "--k", "1", "--p", "3", "--a", "2"
        )
        assert [lvl["quotient_factors"] for lvl in result["chain"]] == [["9"], ["3", "3"]]
        assert result["profile"] == [1, 2]

    def test_normalizer_and_quotient(self, capsys):
        g0 = json.dumps(sol3_gamma(0).to_json())
        g2 = json.dumps(sol3_gamma(2).to_json())
        result = result_of(capsys, "normalizer", "--group", g0, "--subgroup", g2)
        assert result["normalizer"]["sublattice"] == [["2", "0"], ["0", "2"]]
        g1 = json.dumps(sol3_gamma(1).to_json())
        result = result_of(capsys, "quotient", "--group", g0, "--subgroup", g1)
        assert result["quotient"] == {"free_rank": 0, "torsion": ["2", "2"]}

    def test_intermediates(self, capsys):
        g0 = json.dumps(sol3_gamma(0).to_json())
        g1 = json.dumps(sol3_gamma(1).to_json())
        result = result_of(capsys, "intermediates", "--group", g0, "--subgroup", g1)
        assert result["count"] == 3

    def test_intermediates_of_a_long_translation_quotient(self):
        # Z^2 x| 9240Z in Sol3 under the default --max-enum: one box per
        # divisor of 9240 but the two ends.  The closure over the 9,240
        # cosets, each product through an exact A^t, did not finish.
        sub = json.dumps(dict(SOL3_DESC, m="9240"))
        proc = _fresh(15, "intermediates", "--group", json.dumps(SOL3_DESC), "--subgroup", sub)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["result"]["count"] == 62

    def test_large_translation_index(self, capsys):
        # S = 2Z^2 x| 10^9 Z: the checks take A^(10^9) modulo [Z^2 : 2Z^2] = 4,
        # never the exact power, so both verbs answer at once.
        g0 = json.dumps(sol3_gamma(0).to_json())
        sub = json.dumps(dict(sol3_gamma(1).to_json(), m="1000000000"))
        result = result_of(capsys, "quotient", "--group", g0, "--subgroup", sub)
        assert result["quotient"] == {"free_rank": 0, "torsion": ["2", "2", "1000000000"]}
        code, out, _ = invoke(capsys, "intermediates", "--group", g0, "--subgroup", sub)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"

    def test_series(self, capsys):
        group = json.dumps(preset_description("heisenberg", k=1))
        gamma = json.dumps({"U": [["2", "0"], ["0", "2"]], "W": [["4"]]})
        result = result_of(capsys, "series", "--input", group, "--gamma", gamma)
        assert result["total_index"] == "16"

    def test_cohomology_ops(self, capsys):
        action = json.dumps(
            {
                "generators": 1,
                "relators": ["aa"],
                "module": {"free": 1, "torsion": []},
                "action": [[["-1"]]],
            }
        )
        z = result_of(capsys, "cohomology", "--input", action, "--op", "z1")
        assert z["structure"] == {"free_rank": 1, "torsion": []}
        b = result_of(capsys, "cohomology", "--input", action, "--op", "b1")
        assert b["basis"] in ([[["2"]]], [[["-2"]]])
        h = result_of(capsys, "cohomology", "--input", action, "--op", "h1")
        assert h["structure"] == {"free_rank": 0, "torsion": ["2"]}

    @pytest.mark.parametrize("op", ["z1", "b1", "h1"])
    def test_cohomology_without_generators(self, capsys, op):
        # The trivial group: the Fox and coboundary blocks have no columns.
        action = {"generators": 0, "relators": [""], "module": {"free": 1, "torsion": ["2"]}, "action": []}
        code, out, _ = invoke(capsys, "cohomology", "--input", json.dumps(action), "--op", op)
        assert code == 0
        basis = "" if op == "h1" else '"basis":[],'
        assert out == (
            '{"result":{%s"op":"%s","structure":{"free_rank":0,"torsion":[]}},'
            '"schema":"nilcert/1","verb":"cohomology"}\n' % (basis, op)
        )

    def test_center_isolator_hbar1(self, capsys):
        assert result_of(capsys, "center", "--preset", "sol3")["rank"] == 0
        iso = result_of(capsys, "isolator", "--preset", "heisenberg", "--k", "2")
        assert iso == {"sqrt_commutator": [["1"]], "l": 0}
        hb = result_of(capsys, "hbar1", "--preset", "heisenberg", "--k", "3")
        assert hb["structure"] == {"free_rank": 0, "torsion": ["3", "3"]}

    def test_verify_inline(self, capsys):
        cert = result_of(capsys, "sol3-tower", "--k", "2")
        assert result_of(capsys, "verify", "--input", json.dumps(cert)) == {
            "verified": True
        }
        cert["levels"][0]["quotient_factors"] = ["2", "4"]
        assert result_of(capsys, "verify", "--input", json.dumps(cert)) == {
            "verified": False
        }


class TestDeterminism:
    def test_repeat_bytes_identical(self, capsys):
        _, first, _ = invoke(capsys, "sol3-tower", "--k", "4")
        _, second, _ = invoke(capsys, "sol3-tower", "--k", "4")
        assert first == second
        assert first.endswith("\n")

    def test_golden_lines(self, capsys):
        golden = {
            ("minkowski", "--n", "4"): '{"result":{"bound":5760,"n":4},"schema":"nilcert/1","verb":"minkowski"}',
            ("euler-bound", "--chi", "-12"): '{"result":{"bound":3,"chi":-12},"schema":"nilcert/1","verb":"euler-bound"}',
            ("discsym2-bound", "--preset", "torus", "--n", "3"): '{"result":{"b":0,"f":3},"schema":"nilcert/1","verb":"discsym2-bound"}',
        }
        for argv, want in golden.items():
            _, out, _ = invoke(capsys, *argv)
            assert out.strip() == want

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text('[["2","4"],["0","2"]]')
        result = result_of(capsys, "hnf", "--input", str(path))
        assert result["H"] == [["2", "0"], ["0", "2"]]

    def test_golden_files_byte_stable(self, capsys):
        cases = {
            "sol3_tower_k3.json": ["sol3-tower", "--k", "3"],
            "witness_k1_p3_a2.json": [
                "heisenberg-witness", "--k", "1", "--p", "3", "--a", "2",
            ],
            "discsym2_heisenberg_k5.json": [
                "discsym2-bound", "--preset", "heisenberg", "--k", "5",
            ],
            "minkowski_n4.json": ["minkowski", "--n", "4"],
            "hnf_example.json": ["hnf", "--input", '[["2","4"],["0","2"]]'],
            "quotient_gamma0_gamma1.json": [
                "quotient",
                "--group", json.dumps(sol3_gamma(0).to_json()),
                "--subgroup", json.dumps(sol3_gamma(1).to_json()),
            ],
        }
        for name, argv in cases.items():
            _, out, _ = invoke(capsys, *argv)
            assert out == (GOLDEN / name).read_text(), name


class TestExitCodes:
    def test_domain_error_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "euler-bound", "--chi", "0")
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "ZeroEuler"

    def test_guardrail_error(self, capsys):
        g0 = json.dumps(
            {
                "type": "semidirect",
                "n": 2,
                "matrix": [["1", "0"], ["0", "1"]],
                "sublattice": [["1", "0"], ["0", "1"]],
                "m": 1,
            }
        )
        sub = json.dumps(
            {
                "type": "semidirect",
                "n": 2,
                "matrix": [["1", "0"], ["0", "1"]],
                "sublattice": [["64", "0"], ["0", "64"]],
                "m": 1,
            }
        )
        code, out, _ = invoke(
            capsys, "intermediates", "--group", g0, "--subgroup", sub, "--max-enum", "10"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["minkowski"])  # missing --n
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, out, _ = invoke(capsys, "hnf", "--input", "does-not-exist.json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, "hnf", "--input", str(path))
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_nesting_past_the_recursion_limit(self, capsys):
        code, out, err = invoke(capsys, "hnf", "--input", "[" * 100000)
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("verb", ["snf", "hnf"])
    @pytest.mark.parametrize(
        "matrix", ["[[1.5,2],[3,4]]", "[[true,0],[0,2]]", '[["a"]]'], ids=["float", "bool", "word"]
    )
    def test_malformed_matrix_is_a_structured_error(self, capsys, verb, matrix):
        code, out, err = invoke(capsys, verb, "--input", matrix)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "InvalidParameters"
        assert "result" not in report and err == ""

    def test_malformed_group_entries(self, capsys):
        heis = {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", "1"], ["-1", "0"]]]}
        for bad in (dict(heis, f=1.0), dict(heis, forms=[[["0", "1.5"], ["-1", "0"]]])):
            code, out, _ = invoke(capsys, "center", "--input", json.dumps(bad))
            assert code == 1
            assert json.loads(out)["error"]["type"] == "InvalidParameters"
        gamma = json.dumps({"U": [["2", "0"], ["0", True]], "W": [["4"]]})
        code, out, _ = invoke(capsys, "series", "--input", json.dumps(heis), "--gamma", gamma)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidParameters"

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalizer", "--group", '{"type":"semidirect"}', "--subgroup", '{"type":"semidirect"}'],
            ["series", "--input", json.dumps(preset_description("heisenberg")),
             "--gamma", '{"U": [["2", "0"], ["0", "2"]]}'],
            ["cohomology", "--input", '{"generators":1}'],
        ],
        ids=["normalizer", "series", "cohomology"],
    )
    def test_missing_field_is_a_structured_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "InvalidParameters"
        assert "missing field" in report["error"]["message"]
        assert err == ""

    @pytest.mark.parametrize("desc", ["[1]", "[]", '[{"type": "twostep"}]'])
    def test_group_description_must_be_an_object(self, capsys, desc):
        code, out, err = invoke(capsys, "center", "--input", desc)
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "InvalidParameters"

    @pytest.mark.parametrize("verb", ["discsym2-bound", "isolator", "center"])
    @pytest.mark.parametrize(
        "desc",
        ['{"type":"twostep","f":0,"b":-3,"forms":[]}', '{"type":"twostep","f":-1,"b":2,"forms":[]}'],
        ids=["b-3", "f-1"],
    )
    def test_negative_ranks_are_invalid(self, capsys, verb, desc):
        code, out, err = invoke(capsys, verb, "--input", desc)
        assert code == 1 and err == "" and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidParameters"
        assert error["message"].startswith("ranks f and b must be >= 0")

    @pytest.mark.parametrize("argv, kind, message", [
        (["center", "--input", '{"type":"twostep","f":1,"b":2,"forms":[]}'],
         "DimensionMismatch", "expected 1 forms, got 0"),
        (["center", "--input", json.dumps(dict(SOL3_DESC, n=3))],
         "DimensionMismatch", "matrix size does not match declared rank"),
        (["center", "--input", json.dumps(dict(SOL3_DESC, m="0"))],
         "InvalidParameters", "translation index m must be >= 1"),
        (["cohomology", "--op", "h1", "--input", json.dumps(dict(ACTION_DESC, relators=["a1"]))],
         "InvalidParameters", "bad letter '1' in relator 'a1'"),
        (["cohomology", "--op", "h1-brute", "--input", json.dumps(
            {"generators": 1, "relators": ["a" * 600], "module": {"free": 0, "torsion": ["2"]},
             "action": [[["1"]]]})],
         "TooLarge", "group order 600 exceeds guard 512"),
        (["cohomology", "--op", "h1-brute", "--input", json.dumps(
            {"generators": 2, "relators": [], "module": {"free": 0, "torsion": ["4096"]},
             "action": [[["1"]], [["1"]]]})],
         "TooLarge", "generator tuple space exceeds guard"),
        (["center", "--preset", "foo"], "InvalidParameters", "unknown preset 'foo'"),
        (["center", "--preset", "heisenberg", "--k", "0"], "InvalidParameters", "heisenberg preset needs k >= 1"),
        (["center", "--preset", "torus", "--n", "0"], "InvalidParameters", "torus preset needs n >= 1"),
        (["center"], "InvalidParameters", "provide --preset or --input"),
        (["isolator", "--preset", "sol3"], "UnsupportedGroupShape", "isolator needs a twostep group"),
        (["normalizer", "--group", json.dumps(HEIS_DESC), "--subgroup", json.dumps(HEIS_DESC)],
         "UnsupportedGroupShape", "this verb needs two semidirect groups"),
        (["normalizer", "--group", json.dumps(SOL3_DESC), "--subgroup", json.dumps(KXS1_DESC)],
         "DimensionMismatch", "different parent groups"),
        (["normalizer", "--group", json.dumps(SOL3_DESC), "--subgroup", json.dumps(TORUS3_DESC)],
         "DimensionMismatch", "different parent groups"),
        (["normalizer", "--group", json.dumps(SOL3_DESC), "--subgroup", json.dumps(dict(SOL3_DESC, m=2))],
         "InvalidParameters", "normalizer requires full translation parts (m = 1)"),
        (["normalizer", "--group", json.dumps(sol3_gamma(1).to_json()), "--subgroup", json.dumps(SOL3_DESC)],
         "NotASubgroup", "S is not contained in G"),
        (["quotient", "--group", json.dumps(SOL3_DESC), "--subgroup", json.dumps(KXS1_DESC)],
         "DimensionMismatch", "different parent groups"),
        (["intermediates", "--group", json.dumps(SOL3_DESC), "--subgroup", json.dumps(KXS1_DESC)],
         "DimensionMismatch", "different parent groups"),
        (["center", "--input", json.dumps(dict(SOL3_DESC, matrix=[["1", "0"]]))],
         "DimensionMismatch", "holonomy matrix must be square"),
        (["sol3-tower", "--k", "-1"], "InvalidParameters", "k must be >= 0"),
        (["heisenberg-witness", "--k", "0", "--p", "3", "--a", "2"], "InvalidParameters", "k must be >= 1"),
        (["heisenberg-witness", "--k", "1", "--p", "3", "--a", "1"],
         "InvalidParameters", "a must be >= 2 (second-layer forms k*p^(a-2))"),
        (["verify", "--input", _series_claim_on_sol3()],
         "UnresolvableReference", "cannot rebuild series data: not a twostep group description"),
        # a JSON syntax error keeps the decoder's own message, not a re-wrapped one
        (["hnf", "--input", "[1,"], "InputError", "Expecting value: line 1 column 4 (char 3)"),
    ], ids=["forms-count", "matrix-rank", "m-0", "relator-letter", "brute-order", "brute-tuples",
            "unknown-preset", "heisenberg-k-0", "torus-n-0", "no-group", "isolator-of-sol3",
            "normalizer-of-twostep", "normalizer-parents", "normalizer-ranks", "normalizer-m-2",
            "normalizer-not-contained", "quotient-parents", "intermediates-parents",
            "non-square-holonomy", "tower-k-negative", "witness-k-0", "witness-a-1", "series-claim-on-semidirect",
            "json-syntax"])
    def test_description_errors_name_the_fault(self, capsys, argv, kind, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {"type": kind, "message": message}

    @pytest.mark.parametrize("relator", [5, ["a", "a"], None])
    def test_relators_must_be_strings(self, capsys, relator):
        action = dict(ACTION_DESC, relators=[relator])
        code, out, err = invoke(capsys, "cohomology", "--input", json.dumps(action))
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "InvalidParameters"

    @pytest.mark.parametrize(
        "module",
        [
            {"free": "-1", "torsion": []},
            {"free": 0, "torsion": ["2", "3"]},
            {"free": 0, "torsion": ["1"]},
            {"free": 0, "torsion": ["0"]},
            {"free": 0, "torsion": ["0", "2"]},
        ],
        ids=["negative-free", "not-a-chain", "unit", "zero", "zero-then-two"],
    )
    def test_module_spec_is_validated(self, capsys, module):
        action = dict(ACTION_DESC, module=module)
        code, out, err = invoke(capsys, "cohomology", "--input", json.dumps(action))
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InvalidParameters"

    def test_verify_with_unreadable_level_subgroup(self, capsys):
        cert = result_of(capsys, "sol3-tower", "--k", "2")
        cert["levels"][0]["subgroup"] = {"type": "semidirect"}
        assert result_of(capsys, "verify", "--input", json.dumps(cert)) == {"verified": False}

    @pytest.mark.parametrize(
        "factors,message",
        [
            (["0", "2"], "torsion factors must exceed 1"),
            (["2", "3"], "torsion factors must form a divisibility chain"),
        ],
        ids=["zero-then-two", "not-a-chain"],
    )
    def test_verify_with_malformed_level_quotient(self, capsys, factors, message):
        cert = result_of(capsys, "sol3-tower", "--k", "1")
        cert["levels"][0]["quotient_factors"] = factors
        code, out, err = invoke(capsys, "verify", "--input", json.dumps(cert))
        assert code == 1 and err == "" and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error == {"type": "UnresolvableReference", "message": "malformed certificate: " + message}

    def test_guards_compare_bit_lengths(self):
        # forming 4^k or p^(a+2) here would take hours and all of memory; a
        # fresh process with a time limit fails instead (one C-level ** is
        # past an in-process alarm's reach)
        for argv in (
            ["sol3-tower", "--k", "1000000000000"],
            ["heisenberg-witness", "--k", "1", "--p", "3", "--a", "1000000000000"],
        ):
            proc = _fresh(10, *argv)
            assert proc.returncode == 1
            assert json.loads(proc.stdout)["error"]["type"] == "QuotientTooLarge"

    def test_guards_at_the_boundary(self, capsys):
        # 4^3 = 64 and 3^4 = 81: equal to the guard passes, one below fails
        for argv, index in (
            (["sol3-tower", "--k", "3"], 64),
            (["heisenberg-witness", "--k", "1", "--p", "3", "--a", "2"], 81),
        ):
            code, _, _ = invoke(capsys, *argv, "--max-index", str(index))
            assert code == 0
            code, out, _ = invoke(capsys, *argv, "--max-index", str(index - 1))
            assert code == 1
            assert json.loads(out)["error"]["type"] == "QuotientTooLarge"

    def test_minkowski_guard_at_the_boundary(self, capsys):
        # M(1331) has 4294 digits; M(1332) would pass the 4300-digit print limit
        result = result_of(capsys, "minkowski", "--n", "1331")
        assert len(str(result["bound"])) == 4294
        code, out, _ = invoke(capsys, "minkowski", "--n", "1332")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidParameters"
        # far past the guard it fails at once, without trial divisions up to n
        code, out, _ = invoke(capsys, "minkowski", "--n", str(10**12))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidParameters"

    def test_summary_on_stderr(self, capsys):
        code, out, err = invoke(capsys, "minkowski", "--n", "2", "--summary")
        assert code == 0
        assert "minkowski(2) = 24" in err
        assert "minkowski(2)" not in out

    @pytest.mark.parametrize("argv, summary", [
        (["sol3-tower", "--k", "2"], "sol3-tower: total index 16, 2 levels, min length 2"),
        (["discsym2-bound", "--preset", "heisenberg"], "disc-sym_2 upper bound (1, 2)"),
        (["hnf", "--input", "[[2]]"], "hnf: ok"),
    ], ids=["sol3-tower", "discsym2-bound", "hnf"])
    def test_summary_line_per_verb(self, capsys, argv, summary):
        code, out, err = invoke(capsys, *argv, "--summary")
        assert (code, err) == (0, summary + "\n")
        assert invoke(capsys, *argv)[1] == out

    def test_summary_of_verify(self, capsys):
        claim = result_of(capsys, "sol3-tower", "--k", "1")
        for verdict, summary in ((True, "certificate verified"), (False, "certificate REJECTED")):
            claim["total_index"] = "4" if verdict else "5"
            code, out, err = invoke(capsys, "verify", "--input", json.dumps(claim), "--summary")
            assert (code, json.loads(out)["result"], err) == (0, {"verified": verdict}, summary + "\n")

    def test_max_index_flag_guards_tower(self, capsys):
        code, out, _ = invoke(capsys, "sol3-tower", "--k", "5", "--max-index", "100")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"

    def test_max_index_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NILCERT_MAX_INDEX", "100")
        code, out, _ = invoke(capsys, "sol3-tower", "--k", "5")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"
        monkeypatch.delenv("NILCERT_MAX_INDEX")
        code, _, _ = invoke(capsys, "sol3-tower", "--k", "5")
        assert code == 0

    @pytest.mark.parametrize(
        "value", ["abc", "1.5", "", "1" * 4301], ids=["word", "float", "empty", "4301-digits"]
    )
    def test_malformed_max_index_env_is_a_structured_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NILCERT_MAX_INDEX", value)
        for argv in (["presets"], ["sol3-tower", "--k", "1"]):
            code, out, err = invoke(capsys, *argv)
            assert code == 1
            assert json.loads(out)["error"]["type"] == "InvalidParameters"
            assert err == ""

    def test_max_index_env_value_is_honoured(self, capsys, monkeypatch):
        # 4^3 = 64: the environment value is the guard, inclusive
        monkeypatch.setenv("NILCERT_MAX_INDEX", "64")
        assert result_of(capsys, "sol3-tower", "--k", "3")["total_index"] == "64"
        monkeypatch.setenv("NILCERT_MAX_INDEX", "63")
        code, out, _ = invoke(capsys, "sol3-tower", "--k", "3")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"

    def test_max_index_flag_overrides_env(self, capsys, monkeypatch):
        for env in ("63", "abc"):
            monkeypatch.setenv("NILCERT_MAX_INDEX", env)
            assert result_of(capsys, "sol3-tower", "--k", "3", "--max-index", "64")["total_index"] == "64"
        monkeypatch.setenv("NILCERT_MAX_INDEX", "10000")
        code, out, _ = invoke(capsys, "sol3-tower", "--k", "3", "--max-index", "63")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuotientTooLarge"


@pytest.fixture
def digit_limit_640():
    """The interpreter's smallest allowed limit on decimal conversions."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


class TestDigitLimit:
    def test_snf_transform_past_the_limit(self, capsys, digit_limit_640):
        # Coprime 400-digit a and b parse under the limit, but the invariant
        # factor a b in S has about 800 digits: one structured TooLarge line,
        # no traceback.  (Random matrices no longer reach the limit: the
        # Smith transforms of the seeded 60 x 60 stay below 1,000 bits.)
        a, b = 10**399 + 1, 10**399 + 3
        matrix = [[str(a), "0"], ["0", str(b)]]
        code, out, _ = invoke(capsys, "snf", "--input", json.dumps(matrix))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "TooLarge"

    def test_minkowski_bound_past_the_limit(self, capsys, digit_limit_640):
        # M(400) has 1,089 digits.  The report keeps the bound as a JSON int
        # (and --summary prints it with %d), so the verb checks it first.
        for argv in (["minkowski", "--n", "400"], ["minkowski", "--n", "400", "--summary"]):
            code, out, err = invoke(capsys, *argv)
            assert code == 1 and err == ""
            assert out.count("\n") == 1
            assert json.loads(out)["error"]["type"] == "TooLarge"

    def test_input_integer_literal_past_the_limit(self, capsys, digit_limit_640):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        text = '{"type":"semidirect","n":1,"matrix":[["1"]],"m":%s}' % ("9" * 5000)
        code, out, err = invoke(capsys, "center", "--input", text)
        assert code == 1 and err == "" and out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_certificate_index_past_the_limit(self, digit_limit_640):
        # The library path: a tower index 4^k with more digits than the limit.
        cert = SeriesCertificate("sol3-tower", {}, (), 4**1100, 0, 1)
        with pytest.raises(TooLarge):
            cert.to_json_dict()
        assert decimals([4**1000]) == [str(4**1000)]


BIG = "1" * 5000  # past the interpreter's 4,300-digit limit for int(str)
BAD_ENTRIES = [True, 1.0, "1.0", "--1", "", BIG]


def _entry_error(x):
    """The report parse_int gives for a bad JSON matrix entry."""
    if x == BIG:
        try:
            int(x)
        except ValueError as exc:
            return "InvalidParameters", "integer %.20s... is too long: %s" % (x, exc)
    return "InvalidParameters", "expected an integer or a decimal string, got %r" % (x,)


def _boundary_cases(width):
    """(rows, error) for a matrix meant to be ``width`` wide, ``error`` None
    where only a width was expected of it.  A bad entry is reported before
    the shape, even in a ragged matrix."""
    wide = ("DimensionMismatch", "cols=%d but rows have length %d" % (width, width + 1))
    cases = [
        ([["1"] * width, ["1"] * (width + 1)], ("DimensionMismatch", "ragged rows")),
        ([["1"] * (width + 1)] * 2, wide),
    ]
    for x in BAD_ENTRIES:
        cases.append(([["1"] * (width - 1) + [x], ["1"] * width], _entry_error(x)))
        cases.append(([["1"] * (width + 1), [x] + ["1"] * (width - 1)], _entry_error(x)))
    return cases


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


class TestJsonBoundary:
    """Each JSON matrix entry is checked once, by parse_int, and the shape
    after it; every reader reports the same error, in the same order."""

    def test_library_readers(self):
        H = TwoStepLattice.heisenberg(1)
        for rows, error in _boundary_cases(2):
            assert _raised(Lattice.from_json, 2, rows) == error
            assert _raised(NilSublattice.from_json, H, {"U": rows, "W": [["2"]]}) == error
            # A matrix has no width to keep, so a wide one is no error.
            want = None if error and error[1].startswith("cols=") else error
            assert _raised(IntMatrix.from_json, rows) == want
        for rows, error in _boundary_cases(1):
            assert _raised(NilSublattice.from_json, H, {"U": [["2", "0"], ["0", "2"]], "W": rows}) == error

    def test_cli_verbs(self, capsys):
        heis = json.dumps(HEIS_DESC)
        calls = []
        for rows, error in _boundary_cases(2):
            if not (error and error[1].startswith("cols=")):
                calls += [(["hnf", "--input", json.dumps(rows)], error)]
                calls += [(["snf", "--input", json.dumps(rows)], error)]
            gamma = json.dumps({"U": rows, "W": [["4"]]})
            calls.append((["series", "--input", heis, "--gamma", gamma], error))
        for rows, error in _boundary_cases(1):
            gamma = json.dumps({"U": [["2", "0"], ["0", "2"]], "W": rows})
            calls.append((["series", "--input", heis, "--gamma", gamma], error))
        for argv, (kind, message) in calls:
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (1, "")
            assert json.loads(out)["error"] == {"type": kind, "message": message}

    def test_cli_integer_literal_past_the_limit(self, capsys):
        text = '[[1, %s], [1, 1]]' % BIG
        try:
            json.loads(text)
        except ValueError as exc:
            message = "%s: line 1 column 1 (char 0)" % exc
        for verb in ("hnf", "snf"):
            code, out, err = invoke(capsys, verb, "--input", text)
            assert (code, err) == (1, "")
            assert json.loads(out)["error"] == {"type": "InputError", "message": message}


def _jordan(n):
    return [[str(int(j in (i, i + 1))) for j in range(n)] for i in range(n)]


def _identity(n):
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


def _sol3_blocks(k):
    """diag(S, ..., S), k blocks of the Sol3 holonomy S."""
    S = [[5, 2], [2, 1]]
    n = 2 * k
    return [[str(S[i % 2][j % 2] if i // 2 == j // 2 else 0) for j in range(n)] for i in range(n)]


def _fresh(timeout, *argv):
    """``nilcert <argv>`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nilcert.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "nilcert.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


# The console script in a new interpreter, with an atexit hook that reports
# on stderr whether anything sits in the collector's permanent generation.
_MAIN_WITH_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write('frozen %s\\n' % (gc.get_freeze_count() > 0)))\n"
    "import nilcert.cli\n"
    "nilcert.cli.main()\n"
)


@pytest.mark.parametrize("argv, code", [
    (["minkowski", "--n", "3"], 0),
    (["euler-bound", "--chi", "0"], 1),
    (["minkowski"], 2),
    (["--help"], 0),
], ids=["report", "domain-error", "usage-error", "help"])
def test_main_freezes_before_every_exit(capsys, monkeypatch, argv, code):
    """main() moves what the run created out of the shutdown collection's
    reach on every exit path; atexit hooks still run and the bytes are
    those of an in-process cli.run."""
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap to it
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nilcert.__file__).resolve().parents[1]))
    env.pop("NILCERT_MAX_INDEX", None)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_WITH_FREEZE_PROBE, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    try:
        returned = run(list(argv))
    except SystemExit as exc:
        returned = exc.code
    out = capsys.readouterr()
    assert returned == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err + "frozen True\n")


def test_run_leaves_the_collector_alone(capsys):
    # In-process callers (tests, workloads, library users) keep normal collection.
    frozen = gc.get_freeze_count()
    assert run(["minkowski", "--n", "3"]) == 0
    assert run(["euler-bound", "--chi", "0"]) == 1
    with pytest.raises(SystemExit):
        run(["minkowski"])
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)


# The console script in a new interpreter whose address space is capped at
# the megabytes its first argument gives.
_MAIN_UNDER_A_MEMORY_CAP = (
    "import resource, sys\n"
    "cap = int(sys.argv.pop(1)) << 20\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "import nilcert.cli\n"
    "nilcert.cli.main()\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps a child's memory on Linux")
def test_out_of_memory_is_a_structured_error_in_a_fresh_process():
    """Writing out the 2000 x 2000 kernel basis of a rank-2000 centre does not
    fit in 200 MB: the report is a TooLarge error, not a traceback, while a
    rank-2 centre fits under the same cap."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nilcert.__file__).resolve().parents[1]))

    def centre(b):
        desc = '{"type":"twostep","f":0,"b":%d,"forms":[]}' % b
        return subprocess.run(
            [sys.executable, "-c", _MAIN_UNDER_A_MEMORY_CAP, "200", "center", "--input", desc],
            capture_output=True, text=True, timeout=60, env=env,
        )

    small, large = centre(2), centre(2000)
    assert (small.returncode, small.stderr) == (0, "")
    assert json.loads(small.stdout)["result"]["rank"] == 2
    assert (large.returncode, large.stderr) == (1, "")
    assert large.stdout == (
        '{"error":{"message":"out of memory","type":"TooLarge"},"schema":"nilcert/1"}\n'
    )


def test_snf_of_a_seeded_60x60_prints_in_a_fresh_process():
    """The alternating Hermite passes keep the Smith transforms of a random
    60 x 60 matrix to about 550 bits, under the default digit limit."""
    rng = random.Random(2)
    matrix = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
    proc = _fresh(60, "snf", "--input", json.dumps(matrix))
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    A, U, V, S = (IntMatrix.from_json(x) for x in (matrix, result["U"], result["V"], result["S"]))
    assert U * A * V == S


@pytest.mark.parametrize("edit", [{"p": 2**61 - 1}, {"a": 10**9}], ids=["p-2^61-1", "a-1e9"])
def test_verify_guards_the_witness_rebuild_in_a_fresh_process(edit):
    """Trial division of 2^61 - 1, or the power 3^(10^9 + 2), would not end:
    verify passes --max-index (default 10^6) to the witness rebuild, whose
    bit-length guard runs first."""
    cert = heisenberg_witness(1, 3, 2).to_json_dict()
    cert["group"]["witness"].update(edit)
    proc = _fresh(5, "verify", "--input", json.dumps(cert))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        '{"error":{"message":"witness index p^(a+2) exceeds --max-index 1000000",'
        '"type":"QuotientTooLarge"},"schema":"nilcert/1"}\n'
    )


def test_a_large_prime_is_decided_in_a_fresh_process():
    """Trial division of p = 2^61 - 1 would not end, neither in the witness
    verb nor in verify_certificate with no --max-index; Miller-Rabin to the
    prime bases up to 41 decides it at once.  A p at that test's bound is a
    structured TooLarge."""
    p = 2**61 - 1
    proc = _fresh(5, "heisenberg-witness", "--k", "1", "--p", str(p), "--a", "2",
                  "--max-index", str(10**80))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["total_index"] == str(p**4)
    proc = _fresh(5, "heisenberg-witness", "--k", "1", "--p", "3317044064679887385961981",
                  "--a", "2", "--max-index", str(10**200))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["type"] == "TooLarge"
    code = (
        "from nilcert.invariants import verify_certificate\n"
        "from nilcert.nilpotent2 import heisenberg_witness\n"
        "d = heisenberg_witness(1, 3, 2).to_json_dict()\n"
        "d['group']['witness']['p'] = 2**61 - 1\n"
        "print(verify_certificate(d))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(nilcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=5, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


@pytest.mark.parametrize(
    "desc,center,disc",
    [
        (
            dict(SOL3_DESC, m="1000000000"),
            '{"rank":0,"structure":{"free_rank":0,"torsion":[]}}',
            '{"b":0,"f":0}',
        ),
        (
            {"type": "semidirect", "n": 6, "matrix": _jordan(6)},
            '{"rank":1,"structure":{"free_rank":1,"torsion":[]}}',
            '{"b":1,"f":1}',
        ),
        (
            {"type": "semidirect", "n": 8, "matrix": _jordan(8)},
            '{"rank":1,"structure":{"free_rank":1,"torsion":[]}}',
            '{"b":1,"f":1}',
        ),
        (
            {"type": "semidirect", "n": 6, "matrix": _sol3_blocks(3), "m": "2903040"},
            '{"rank":0,"structure":{"free_rank":0,"torsion":[]}}',
            '{"b":0,"f":0}',
        ),
    ],
    ids=["sol3-m1e9", "jordan6", "jordan8", "sol3x3-m-M6"],
)
def test_centre_verbs_answer_in_a_fresh_process(desc, center, disc):
    """The exact A^(10^9), a walk over up to M(8) powers of a unipotent
    holonomy, or the exact A^M(6) of a hyperbolic one would not finish; the
    kernels of Phi_d(A) answer at once."""
    for verb, result in (("center", center), ("discsym2-bound", disc)):
        proc = _fresh(10, verb, "--input", json.dumps(desc))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == '{"result":%s,"schema":"nilcert/1","verb":"%s"}\n' % (result, verb)


@pytest.mark.parametrize(
    "verb,desc,result",
    [
        (
            "discsym2-bound",
            {"type": "semidirect", "n": 12, "matrix": _sol3_blocks(6), "m": "720720"},
            '{"b":0,"f":0}',
        ),
        (
            "center",
            {"type": "semidirect", "n": 100, "matrix": _identity(100)},
            '{"rank":101,"structure":{"free_rank":101,"torsion":[]}}',
        ),
    ],
    ids=["sol3x6-m720720", "identity100"],
)
def test_centre_verbs_need_no_power_of_the_holonomy(verb, desc, result):
    """E(12) = 720,720 and E(100) has 146 bits: the exact A^gcd(m, E(n)) of six
    Sol3 blocks, or squaring I_100 up to A^E(100), would not finish; the
    kernels of Phi_d(A) in degree at most n answer at once."""
    proc = _fresh(15, verb, "--input", json.dumps(desc))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == '{"result":%s,"schema":"nilcert/1","verb":"%s"}\n' % (result, verb)


class TestPresets:
    def test_listing(self, capsys):
        result = result_of(capsys, "presets")
        assert set(result["presets"]) == {"sol3", "heisenberg:k", "torus:n", "kxs1"}

    def test_literals_are_the_built_descriptions(self):
        # preset_description writes each description out, so that listing
        # presets loads no group family; each is its library group's to_json.
        def described(group):
            return dict(group.to_json(), schema=SCHEMA)

        kxs1 = SemidirectLattice(SemidirectGroup(IntMatrix([[-1, 0], [0, 1]])), Lattice.standard(2), 1)
        assert presets() == {
            "sol3": described(sol3_gamma(0)),
            "heisenberg:k": described(TwoStepLattice.heisenberg(1)),
            "torus:n": described(TwoStepLattice.free_abelian(3, 0)),
            "kxs1": described(kxs1),
        }
        assert preset_description("heisenberg", k=4) == described(TwoStepLattice.heisenberg(4))
        assert preset_description("torus", n=5) == described(TwoStepLattice.free_abelian(5, 0))
        with pytest.raises(TooLarge):  # as the built group's to_json raises
            preset_description("heisenberg", k=10**4300)

    def test_round_trip_through_parsers(self):
        sol3 = SemidirectLattice.from_json(preset_description("sol3"))
        assert sol3 == sol3_gamma(0)
        heis = TwoStepLattice.from_json(preset_description("heisenberg", k=4))
        assert heis == TwoStepLattice.heisenberg(4)
        torus = TwoStepLattice.from_json(preset_description("torus", n=3))
        assert torus == TwoStepLattice.free_abelian(3, 0)
        kxs1 = SemidirectLattice.from_json(preset_description("kxs1"))
        assert kxs1.parent.holonomy_order() == 2


# verb -> its line in `nilcert --help`, in order
VERB_HELP = {
    "hnf": "row Hermite normal form of an integer matrix",
    "snf": "Smith normal form of an integer matrix",
    "center": "center rank of a lattice",
    "isolator": "isolator of the commutator subgroup",
    "hbar1": "outer classes trivial on both extension ends",
    "discsym2-bound": "lexicographic (f, b) upper bound",
    "normalizer": "normalizer of S in G",
    "quotient": "abelian quotient G/S",
    "intermediates": "subgroups strictly between S and G",
    "series": "two-layer subnormal series certificate",
    "cohomology": "crossed-homomorphism cohomology",
    "minkowski": "Minkowski bound for GL(n, Z)",
    "euler-bound": "log2 length bound from the Euler characteristic",
    "sol3-tower": "length-k Sol3 tower certificate",
    "heisenberg-witness": "(1,2) witness chain certificate",
    "verify": "re-verify a certificate from scratch",
    "presets": "list the embedded group presets",
}
ALL_VERBS = "{%s}" % ",".join(VERB_HELP)
# verb -> its required options, with values argparse accepts
REQUIRED = {
    "hnf": ["--input", "[[1]]"],
    "snf": ["--input", "[[1]]"],
    "normalizer": ["--group", "{}", "--subgroup", "{}"],
    "quotient": ["--group", "{}", "--subgroup", "{}"],
    "intermediates": ["--group", "{}", "--subgroup", "{}"],
    "series": ["--input", "{}", "--gamma", "{}"],
    "cohomology": ["--input", "{}"],
    "minkowski": ["--n", "1"],
    "euler-bound": ["--chi", "1"],
    "sol3-tower": ["--k", "1"],
    "heisenberg-witness": ["--k", "1", "--p", "3", "--a", "2"],
    "verify": ["--input", "{}"],
}


def exit_of(capsys, *argv):
    """(exit code, stdout, stderr) of an argv that argparse ends itself."""
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestHelpText:
    """Each run builds only its verb's parser; the texts stay those of the
    parser with every verb."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_root_help_lists_every_verb(self, capsys):
        code, out, _ = exit_of(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: nilcert [-h]\n               %s\n" % ALL_VERBS)
        # Verb lines are indented four spaces, wrapped usage lines fifteen.
        lines = [line.split(None, 1) for line in out.splitlines()
                 if line.startswith("    ") and not line.startswith("     ")]
        assert lines == [[verb, text] for verb, text in VERB_HELP.items()]

    @pytest.mark.parametrize("verb", VERB_HELP)
    def test_verb_help(self, capsys, verb):
        code, out, _ = exit_of(capsys, verb, "--help")
        assert code == 0
        assert out.startswith("usage: nilcert %s [-h] [--max-index MAX_INDEX]" % verb)

    @pytest.mark.parametrize("verb", VERB_HELP)
    def test_unknown_option_shows_the_root_usage(self, capsys, verb):
        # One verb's sub-parser is built; its metavar keeps the whole list.
        code, out, err = exit_of(capsys, verb, *REQUIRED.get(verb, []), "--no-such-option")
        assert (code, out) == (2, "")
        assert err.startswith("usage: nilcert [-h]\n               %s\n" % ALL_VERBS)
        assert err.endswith("nilcert: error: unrecognized arguments: --no-such-option\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: verb"),
            (["nope"], "argument verb: invalid choice: 'nope' (choose from %s)"
             % ", ".join(map(repr, VERB_HELP))),
        ],
    )
    def test_no_verb_is_a_usage_error(self, capsys, argv, message):
        code, _, err = exit_of(capsys, *argv)
        assert code == 2
        assert err.startswith("usage: nilcert [-h]\n               %s\n" % ALL_VERBS)
        assert err.endswith("nilcert: error: %s\n" % message)

    # A plain argv is read off the verb table and builds no parser at all.
    @pytest.mark.parametrize("argv, built", [(["hnf", "--input", "[[1]]"], 0), (["--help"], 17)])
    def test_one_sub_parser_per_verb(self, capsys, monkeypatch, argv, built):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        try:
            run(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert len(calls) == built


# ---------------------------------------------------------------------------
# The plain-argv reader: argparse's namespace on its subset, None elsewhere
# ---------------------------------------------------------------------------

# Values argparse takes after an option on every Python, and int() reads.
PLAIN_INTS = ["0", "5", "-5", "-12", " 5", "+5", "\u0663", "1_0"]
PLAIN_STRS = ["[[1]]", "{}", "x", "", " 5", "+5", "\u0663", "-5", "a=b", "h1"]
# Values argparse refuses, or takes where the reader leaves them to it.
ODD_VALUES = ["-5.0", "-x", "-", "--", "-h", "--help", "-\u0663", "5.0", "x", "h2", "", "1" * 5000]
ODD_FLAGS = ["--in", "--max", "--input=[[1]]", "--k=2", "-h", "--help", "--", "-", "", "--no-such-option"]
ALL_FLAGS = sorted({flag for _, _, options in cli._VERBS.values() for flag, _ in cli._COMMON + options})


def _argparse_vars(argv):
    """vars() of the namespace run's argparse fallback gives, None where it exits."""
    verbs = argv[:1] if argv and argv[0] in cli._VERBS else cli._VERBS
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(usage.build_parser(cli._VERBS, cli._COMMON, verbs).parse_args(argv))
    except SystemExit:
        return None


def _plain_value(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    return st.sampled_from(PLAIN_INTS if kwargs.get("type") is int else PLAIN_STRS)


@st.composite
def plain_argvs(draw):
    """A verb and each of its options at most once, every required one, plain values."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    table = dict(cli._COMMON + cli._VERBS[verb][2])
    flags = [f for f, kw in table.items() if kw.get("required") or draw(st.booleans())]
    argv = [verb]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if table[flag].get("action") != "store_true":
            argv.append(draw(_plain_value(table[flag])))
    return argv


@st.composite
def any_argvs(draw):
    """(argv, plain): a plain argv, one with odd tokens put in, dropped or
    repeated, or any mix of tokens."""
    argv = draw(plain_argvs())
    mode = draw(st.sampled_from(["plain", "edited", "tokens"]))
    if mode == "tokens":
        tokens = sorted(cli._VERBS) + ALL_FLAGS + ODD_FLAGS + ODD_VALUES + PLAIN_INTS + PLAIN_STRS
        return draw(st.lists(st.sampled_from(tokens), max_size=7)), False
    for _ in range(draw(st.integers(1, 3)) if mode == "edited" else 0):
        at = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "drop", "repeat", "replace"]))
        if edit == "drop":
            del argv[at]
        elif edit == "repeat":
            argv[at:at] = argv[at:at + 2]
        elif edit == "replace":
            argv[at] = draw(st.sampled_from(ODD_FLAGS + ODD_VALUES))
        else:
            argv.insert(at, draw(st.sampled_from(ODD_FLAGS + ODD_VALUES + ALL_FLAGS)))
        if not argv:
            break
    return argv, mode == "plain"


class TestPlainReader:
    @settings(max_examples=500, deadline=None)
    @example((["euler-bound", "--chi", "-\u0663"], False))
    @example((["minkowski", "--n", "1" * 5000], False))
    @example((["cohomology", "--input", "{}", "--op", "h2"], False))
    @example((["hnf", "--input", "--", "[[1]]"], False))
    @given(any_argvs())
    def test_the_reader_is_argparse_or_none(self, drawn):
        """The reader gives argparse's namespace or None, None wherever
        argparse exits, and reads every plain argv itself."""
        argv, plain = drawn
        args = cli._read_argv(argv)
        assert args is not None or not plain, argv
        assert args is None or vars(args) == _argparse_vars(argv), argv

    def test_every_benchmark_argv_takes_the_reader(self, monkeypatch):
        monkeypatch.syspath_prepend(str(GOLDEN.parent.parent / "perfbench"))
        import workloads

        wl = workloads.WORKLOADS["cli"](str(GOLDEN.parent.parent))
        argvs = [json.loads(item["input"]) for seed in (601, 602)
                 for item in wl.make_round(random.Random("cli:%d" % seed))]
        assert len(argvs) == 44
        for argv in argvs:
            args = cli._read_argv(argv)
            assert args is not None and vars(args) == _argparse_vars(argv), argv


# ---------------------------------------------------------------------------
# Malformed input: valid descriptions with one value swapped for another shape
# ---------------------------------------------------------------------------

# The tower's "k" is a label the rebuild ignores by design (any k verifies,
# see test_invariants.py), so it is left out rather than mutated.
SOL3_TOWER_CERT = sol3_tower(2).to_json_dict()
del SOL3_TOWER_CERT["group"]["k"]
# verb -> the JSON-valued flags of one valid call
MALFORMED_TEMPLATES = [
    ("hnf", {"--input": [["2", "4"], ["0", "2"]]}),
    ("snf", {"--input": [["4", "2"], ["2", "0"]]}),
    ("center", {"--input": HEIS_DESC}),
    ("center", {"--input": SOL3_DESC}),
    ("isolator", {"--input": HEIS_DESC}),
    ("hbar1", {"--input": HEIS_DESC}),
    ("discsym2-bound", {"--input": SOL3_DESC}),
    ("normalizer", {"--group": SOL3_DESC, "--subgroup": sol3_gamma(2).to_json()}),
    ("quotient", {"--group": SOL3_DESC, "--subgroup": sol3_gamma(1).to_json()}),
    ("intermediates", {"--group": SOL3_DESC, "--subgroup": sol3_gamma(1).to_json()}),
    ("series", {"--input": HEIS_DESC, "--gamma": {"U": [["2", "0"], ["0", "2"]], "W": [["4"]]}}),
    ("cohomology", {"--input": ACTION_DESC}),
    ("verify", {"--input": heisenberg_witness(1, 3, 2).to_json_dict()}),
    ("verify", {"--input": SOL3_TOWER_CERT}),
    ("verify", {"--input": subnormal_series(
        TwoStepLattice.heisenberg(1),
        NilSublattice(TwoStepLattice.heisenberg(1), Lattice.scaled(2, 2), Lattice.scaled(1, 4)),
    ).to_json_dict()}),
]


def _shape(value) -> str:
    """JSON shape of a value; an int and a decimal string are one shape."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int) or (isinstance(value, str) and value.lstrip("-").isdigit()):
        return "int"
    return {str: "str", float: "float", list: "list", dict: "dict"}.get(type(value), "null")


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


def _get(value, path):
    for key in path:
        value = value[key]
    return value


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4) | st.text("ab1-", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "f", "b", "U", "W", "n", "free"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def malformed_calls(draw):
    """A verb and its JSON flags with one value swapped for another shape."""
    verb, flags = draw(st.sampled_from(MALFORMED_TEMPLATES))
    flag = draw(st.sampled_from(sorted(flags)))
    path = draw(st.sampled_from(list(_paths(flags[flag]))))
    old = _shape(_get(flags[flag], path))
    values = _json_values
    if not path:
        # a top-level value that is not a list or an object names a file instead
        values = st.lists(_json_values, max_size=3) | st.dictionaries(
            st.text("UWab", max_size=2), _json_values, max_size=3
        )
    new = draw(values.filter(lambda v: _shape(v) != old))
    return verb, dict(flags, **{flag: _replaced(flags[flag], path, new)})


def run_captured(verb, flags):
    argv = [verb]
    for flag, value in flags.items():
        argv += [flag, json.dumps(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb,flags", MALFORMED_TEMPLATES, ids=[v for v, _ in MALFORMED_TEMPLATES])
def test_malformed_templates_are_valid_calls(verb, flags):
    code, out, err = run_captured(verb, flags)
    assert code == 0 and err == "", out
    if verb == "verify":
        assert json.loads(out)["result"] == {"verified": True}


@settings(max_examples=300, deadline=None)
@example(("center", {"--input": [1]}))
@example(("cohomology", {"--input": dict(ACTION_DESC, relators=[5])}))
@given(malformed_calls())
def test_malformed_json_is_a_structured_error(call):
    """Each verb that reads JSON exits 1 with an error report on a value of
    the wrong shape; no exception escapes ``run``."""
    verb, flags = call
    code, out, err = run_captured(verb, flags)
    report = json.loads(out)
    if verb == "verify" and code == 0:
        # a certificate whose inputs cannot be rebuilt is rejected, not an error
        assert report["result"] == {"verified": False}, call
        return
    assert code == 1, (call, out)
    assert set(report["error"]) == {"type", "message"} and "result" not in report
    assert err == ""
