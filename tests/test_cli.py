import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref

import pytest

import anaprop.cli as cli
from anaprop.algebras import FiniteAlgebra, algebra_to_json, save_finite_algebra
from anaprop.cli import COMMANDS, ORACLE_TERM_LIMIT, load_algebra, run
from anaprop.oracle import OracleUniverse
from anaprop.algebras import IntAddition, NaturalMultiplication, WordConcatenation


ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "algebras")


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture()
def a2_path(tmp_path):
    alg = FiniteAlgebra(
        name="A2",
        carrier=("a", "b", "c", "d"),
        ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}},
    )
    path = tmp_path / "a2.json"
    save_finite_algebra(alg, str(path))
    return str(path)


class TestDecide:
    def test_zplus_difference(self, capsys):
        status, out, _ = invoke(
            capsys, "decide", "4", "5", "0", "1", "--algebra", "zplus", "--k", "1", "--l", "1"
        )
        assert status == 0
        assert out.strip() == "holds (difference proportion: 4-5 = 0-1)"

    def test_zplus_negative_still_exits_zero(self, capsys):
        status, out, _ = invoke(
            capsys, "decide", "2", "4", "3", "6", "--algebra", "zplus", "--k", "1", "--l", "1"
        )
        assert status == 0
        assert out.startswith("does not hold")

    def test_finite_file(self, capsys, a2_path):
        status, out, _ = invoke(capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path)
        assert status == 0
        assert out.startswith("does not hold")

    def test_finite_oracle_engine_agrees(self, capsys, a2_path):
        _, out1, _ = invoke(capsys, "decide", "a", "b", "a", "b", "--algebra", a2_path)
        _, out2, _ = invoke(
            capsys, "decide", "a", "b", "a", "b", "--algebra", a2_path, "--engine", "oracle"
        )
        assert out1.split()[0] == out2.split()[0] == "holds"

    def test_oracle_engine_leaves_its_decider_unindexed(self, capsys, a2_path, monkeypatch):
        # the oracle engine builds a decider only to read its state count
        built = []

        class Spy(cli.FragmentDecider):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "FragmentDecider", Spy)
        argv = ["decide", "a", "b", "a", "b", "--algebra", a2_path, "--engine", "oracle"]
        assert invoke(capsys, *argv)[0] == 0
        assert len(built) == 1 and "_index" not in vars(built[0])

    def test_engines_agree_on_golden_queries(self, capsys, a2_path):
        for quad in [("a", "b", "c", "d"), ("a", "b", "a", "b"), ("a", "a", "c", "c"),
                     ("a", "a", "a", "d")]:
            outputs = [
                invoke(capsys, "decide", *quad, "--algebra", a2_path, "--engine", engine)[1]
                for engine in ["auto", "oracle"]
            ]
            assert len(set(outputs)) == 1, (quad, outputs)

    def test_word_decide(self, capsys):
        status, out, _ = invoke(
            capsys, "decide", "ab", "ba", "ba", "ab", "--algebra", "word:ab"
        )
        assert status == 0
        assert out.startswith("does not hold")

    def test_unknown_preset_exit_2(self, capsys):
        status, _, err = invoke(capsys, "decide", "1", "2", "3", "4", "--algebra", "zmult")
        assert status == 2
        assert "unknown algebra" in err

    def test_bad_element_exit_2(self, capsys, a2_path):
        status, _, err = invoke(capsys, "decide", "a", "b", "c", "z", "--algebra", a2_path)
        assert status == 2
        assert "not an element" in err

    def test_cap_exceeded_exit_2(self, capsys, a2_path):
        status, _, err = invoke(
            capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path, "--cap", "1"
        )
        assert status == 2
        assert "cap" in err

    def test_nonmonolinear_over_builtin_rejected(self, capsys):
        status, _, err = invoke(
            capsys, "decide", "2", "4", "3", "6", "--algebra", "zplus", "--l", "2"
        )
        assert status == 2
        assert "monolinear" in err

    @pytest.mark.parametrize("engine", ["automata", "closed-form"])
    def test_alias_engines_are_usage_errors(self, capsys, a2_path, engine):
        for argv in (["decide", "a", "b", "c", "d", "--algebra", a2_path],
                     ["solve", "a", "b", "c", "--algebra", a2_path],
                     ["decide", "4", "5", "0", "1", "--algebra", "zplus"]):
            status, out, err = invoke(capsys, *argv, "--engine", engine)
            assert status == 2, argv
            assert out == ""
            assert "Invalid value for '--engine'" in err

    @pytest.mark.parametrize("argv", [
        ["decide", "4", "5", "0", "1", "--algebra", "zplus"],
        ["solve", "2", "4", "3", "--algebra", "qmul"],
        ["solve", "ab", "b", "a", "--algebra", "word:ab"],
        ["decide", "20", "4", "30", "6", "--algebra", "nmul"],
    ])
    def test_unbounded_occurrences_over_a_closed_form_rejected(self, capsys, argv):
        status, out, err = invoke(capsys, *argv, "--l", "inf")
        assert status == 2
        assert out == ""
        assert "monolinear fragment only" in err

    @pytest.mark.parametrize("argv, message", [
        (["decide", "1", "2", "3", "4", "--algebra", "zplus", "--engine", "oracle"],
         "engine 'oracle' requires a finite algebra"),
        # the engine is refused before the fragment
        (["decide", "1", "2", "3", "4", "--algebra", "zplus", "--engine", "oracle", "--k", "2"],
         "engine 'oracle' requires a finite algebra"),
        (["decide", "a", "a", "a", "a", "--algebra", "term:{sig}"],
         "deciding over the term algebra: use check-tree instead"),
        (["solve", "a", "a", "a", "--algebra", "term:{sig}"],
         "solving over the term algebra: use solve-tree instead"),
        (["decide", "1", "2", "3", "4", "--algebra", "zplus", "--algebra2", "qmul"],
         "--algebra2 is supported for finite algebras only"),
        (["enumerate", "--algebra", "zplus"], "enumeration requires a finite algebra"),
    ], ids=["oracle", "oracle-before-k", "term-decide", "term-solve", "algebra2", "enumerate"])
    def test_refusal_messages(self, capsys, tmp_path, argv, message):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"symbols": {"f": 2, "a": 0}}))
        argv = [arg.format(sig=sig) for arg in argv]
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["decide", "a", "b", "c", "d"], ["solve", "a", "b", "c"]])
    def test_oracle_has_no_depth_option(self, capsys, a2_path, argv):
        # below the exactness bound the oracle gives wrong verdicts (decide
        # a b c d over a2 holds, all-trivial), so it takes no depth
        status, out, err = invoke(capsys, *argv, "--algebra", a2_path,
                                  "--engine", "oracle", "--depth", "0")
        assert status == 2
        assert out == ""
        assert "No such option" in err and "--depth" in err

    def test_oracle_over_its_term_limit_is_an_input_error(self, capsys, tmp_path):
        # six behavior states, but the oracle's terms of depth four outnumber
        # the limit by far: without it this call ran out of memory
        path = tmp_path / "b.json"
        save_finite_algebra(FiniteAlgebra(
            name="B", carrier=("e0", "e1"), constants={"c0": "e0"},
            ops={"f": {("e0",): "e1", ("e1",): "e1"},
                 "h": {("e0", "e0"): "e1", ("e0", "e1"): "e0",
                       ("e1", "e0"): "e0", ("e1", "e1"): "e1"}}), str(path))
        argv = ["decide", "e0", "e1", "e0", "e1", "--algebra", str(path)]
        assert invoke(capsys, *argv, "--engine", "oracle") == (
            2, "", f"error: term universe exceeds {ORACLE_TERM_LIMIT} terms; use --engine auto\n")
        assert invoke(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, capsys, a2_path, k):
        status, out, err = invoke(
            capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path, "--k", k
        )
        assert status == 2
        assert out == ""
        assert "--k" in err and "x>=1" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [["decide", "a", "b", "a", "b"], ["solve", "a", "b", "a"],
                                      ["enumerate"]])
    def test_cap_below_one_is_a_usage_error(self, capsys, a2_path, argv, value):
        status, out, err = invoke(capsys, *argv, "--algebra", a2_path, "--cap", value)
        assert (status, out) == (2, "")
        assert "--cap" in err and "x>=1" in err

    def test_witness_of_another_arrow_is_named(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_finite_algebra(FiniteAlgebra(name="C", carrier=("e0", "e1", "e2"),
                                          constants={"c0": "e2", "c1": "e1"}), str(path))
        status, out, _ = invoke(capsys, "decide", "e1", "e0", "e1", "e0", "--algebra", str(path))
        assert status == 0
        assert out.strip() == "holds (maximal; witness: x1 -> c1 (arrow e0->e1 :. e0->e1))"


class TestSolve:
    def test_nmul_full_framework(self, capsys):
        status, out, _ = invoke(capsys, "solve", "20", "4", "30", "--algebra", "nmul")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "{6, 9}"
        assert any("*(10,x1) -> *(2,x1)" in line for line in lines)
        assert any("*(10,x1) -> *(x1,x1)" in line for line in lines)

    def test_nmul_unbounded_occurrences_run_the_full_framework(self, capsys):
        assert (invoke(capsys, "solve", "20", "4", "30", "--algebra", "nmul", "--l", "inf")
                == invoke(capsys, "solve", "20", "4", "30", "--algebra", "nmul"))

    def test_nmul_full_framework_takes_no_k(self, capsys):
        assert invoke(capsys, "solve", "2", "3", "4", "--algebra", "nmul", "--k", "5") == (
            2, "", "error: solving over nmul in the full framework takes no --k; leave it out\n")

    def test_nmul_monolinear(self, capsys):
        status, out, _ = invoke(
            capsys, "solve", "20", "4", "30", "--algebra", "nmul", "--l", "1"
        )
        assert status == 0
        assert out.strip() == "{6}"

    def test_zplus(self, capsys):
        status, out, _ = invoke(capsys, "solve", "2", "3", "0", "--algebra", "zplus")
        assert status == 0
        assert out.splitlines()[0] == "{1}"

    def test_word_solve(self, capsys):
        status, out, _ = invoke(
            capsys, "solve", "a", "eaf", "c", "--algebra", "word:acef"
        )
        assert status == 0
        assert "ecf" in out

    def test_finite_solve(self, capsys, a2_path):
        status, out, _ = invoke(capsys, "solve", "a", "b", "a", "--algebra", a2_path)
        assert status == 0
        assert "b" in out


class TestTreeCommands:
    def test_lgg(self, capsys):
        status, out, _ = invoke(capsys, "lgg", "f(a,a,a)", "f(a,b,c)")
        assert status == 0
        assert out.strip() == "f(a,x1,x2)"

    def test_solve_tree(self, capsys):
        status, out, _ = invoke(capsys, "solve-tree", "f(a,a,a)", "f(a,a,a)", "f(a,b,c)")
        assert status == 0
        solutions = out.strip().splitlines()
        assert "f(a,c,b)" in solutions
        assert "f(c,b,a)" in solutions

    def test_check_tree(self, capsys):
        status, out, _ = invoke(
            capsys, "check-tree", "f(a,a,a)", "f(a,a,a)", "f(a,b,c)", "f(a,c,b)"
        )
        assert status == 0
        assert out.strip() == "established"

    def test_check_tree_inconclusive(self, capsys):
        status, out, _ = invoke(capsys, "check-tree", "a", "b", "c", "d")
        assert status == 0
        assert out.startswith("not established")

    def test_parse_error_exit_2(self, capsys):
        status, _, err = invoke(capsys, "lgg", "f(a", "f(b)")
        assert status == 2
        assert "error" in err


class TestAntiunify:
    def test_nmul(self, capsys):
        status, out, _ = invoke(capsys, "antiunify", "20", "30", "--algebra", "nmul")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("common: ")
        assert lines[1] == "mgg: {10x}"

    def test_finite_bounded(self, capsys, a2_path):
        status, out, _ = invoke(
            capsys, "antiunify", "b", "b", "--algebra", a2_path, "--depth", "2"
        )
        assert status == 0
        assert "x1" in out

    def test_negative_depth_is_a_usage_error(self, capsys, a2_path):
        status, out, err = invoke(
            capsys, "antiunify", "b", "b", "--algebra", a2_path, "--depth", "-3"
        )
        assert status == 2
        assert out == ""
        assert "--depth" in err and "x>=0" in err

    @pytest.mark.parametrize("option", [["--k", "3"], ["--depth", "0"]])
    def test_nmul_takes_no_k_or_depth(self, capsys, option):
        # both bound the terms of the finite-algebra search, which nmul does not run
        assert invoke(capsys, "antiunify", "20", "30", "--algebra", "nmul", *option) == (
            2, "", f"error: antiunify over nmul takes no {option[0]}; leave it out\n")


class TestUsageErrors:
    # a malformed command line exits 2 with empty stdout and one error line
    # naming the culprit
    @pytest.mark.parametrize("argv, culprits", [
        (["decide", "a", "b", "c", "--algebra", "{a2}"], ["Missing argument 'D'."]),
        (["lgg", "f(a)"], ["Missing argument 'SECOND'."]),
        (["decide", "a", "b", "c", "d"], ["--algebra"]),
        (["enumerate"], ["--algebra"]),
        (["frobnicate", "a"], ["frobnicate"]),
        (["--format", "xml", "lgg", "a", "b"], ["--format", "'xml'"]),
        (["decide", "a", "b", "c", "d", "--algebra", "{a2}", "--k", "x"], ["--k", "'x'"]),
        (["antiunify", "b", "b", "--algebra", "{a2}", "--depth", "x"], ["--depth", "'x'"]),
        (["lgg", "a", "b", "c"], ["(c)"]),
        (["decide", "a", "b", "c", "d", "--algebra"], ["--algebra"]),
        (["decide", "a", "b", "c", "d", "--algebra", "{a2}", "--tokens=1"], ["--tokens"]),
        (["decide", "a", "b", "c", "d", "--algebra", "{a2}", "--alg", "{a2}"], ["--alg'"]),
        (["lgg", "a", "b", "--format", "json"], ["--format"]),
        (["decide", "a", "b", "c", "d", "--algebra", "{a2}", "-h"], ["-h"]),
    ])
    def test_one_error_line(self, capsys, a2_path, argv, culprits):
        status, out, err = invoke(capsys, *[arg.format(a2=a2_path) for arg in argv])
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        for culprit in culprits:
            assert culprit in err

    def test_no_option_abbreviations(self, capsys, a2_path):
        assert invoke(capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path, "--eng",
                      "oracle")[0] == 2
        assert invoke(capsys, "--form", "json", "lgg", "a", "b")[0] == 2

    def test_options_mix_with_operands(self, capsys, a2_path):
        assert (invoke(capsys, "decide", "a", "--k=1", "b", "--algebra", a2_path, "c", "d")
                == invoke(capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path))

    def test_double_dash_ends_the_options(self, capsys):
        assert invoke(capsys, "lgg", "--", "-x", "f(-x)") == (0, "x1\n", "")


class TestCheckRule:
    def test_nmul_rule(self, capsys):
        status, out, _ = invoke(
            capsys, "check-rule", "*(10,x1) -> *(2,x1)", "20", "4", "30", "6",
            "--algebra", "nmul",
        )
        assert status == 0
        assert out.startswith("characteristic justification")

    def test_word_rule(self, capsys):
        status, out, _ = invoke(
            capsys, "check-rule", "x1bx2 -> x1cx2", "ab", "ac", "bc", "cc",
            "--algebra", "word:abc", "--allow-empty",
        )
        assert status == 0
        assert out.startswith("characteristic justification")

    def test_word_rule_without_empty_fails_membership(self, capsys):
        status, out, _ = invoke(
            capsys, "check-rule", "x1bx2 -> x1cx2", "ab", "ac", "bc", "cc",
            "--algebra", "word:abc",
        )
        assert status == 0
        assert out.startswith("not verified")

    def test_zplus_doubling(self, capsys):
        status, out, _ = invoke(
            capsys, "check-rule", "x1 -> +(x1,x1)", "2", "4", "3", "6",
            "--algebra", "zplus", "--full",
        )
        assert status == 0
        assert out.startswith("characteristic justification")

    def test_finite_pair_with_different_signatures_is_refused(self, capsys, a2_path, tmp_path):
        a1_path = tmp_path / "a1.json"
        save_finite_algebra(FiniteAlgebra(name="A1", carrier=("a", "b", "c", "d")), str(a1_path))
        pair = ["--algebra", a2_path, "--algebra2", str(a1_path)]
        refused = (2, "", "error: algebras 'A2' and 'A1' have different signatures\n")
        assert invoke(capsys, "check-rule", "x1 -> x1", "a", "a", "a", "a", *pair) == refused
        assert invoke(capsys, "decide", "a", "a", "a", "a", *pair) == refused

    @pytest.mark.parametrize("rule", ["x1bx2", "x1 -> b -> x1"])
    def test_word_rule_needs_one_arrow(self, capsys, rule):
        status, out, err = invoke(capsys, "check-rule", rule, "ab", "ac", "bc", "cc",
                                  "--algebra", "word:abc")
        assert (status, out) == (2, "")
        assert err == f"error: a rule must have the form 's -> t', got {rule!r}\n"


class TestEnumerate:
    def test_quadruples(self, capsys, a2_path):
        status, out, _ = invoke(capsys, "enumerate", "--algebra", a2_path)
        assert status == 0
        assert "a : b :: a : b" in out

    def test_oracle_engine_matches_auto(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a3.json"
        save_finite_algebra(FiniteAlgebra(name="A3", carrier=("a", "b", "c"), ops={
            "f": {("a",): "b", ("b",): "b", ("c",): "c"},
            "g": {("a",): "c", ("b",): "b", ("c",): "c"},
        }), str(path))
        auto = invoke(capsys, "enumerate", "--algebra", str(path))
        assert auto[0] == 0 and "a : b :: a : b" in auto[1]
        oracle_runs = []
        enumerate_all = OracleUniverse.enumerate_all
        monkeypatch.setattr(OracleUniverse, "enumerate_all",
                            lambda self: oracle_runs.append(self) or enumerate_all(self))
        assert invoke(capsys, "enumerate", "--algebra", str(path), "--engine", "oracle") == auto
        assert len(oracle_runs) == 1

    def test_oracle_engine_needs_a_finite_algebra(self, capsys):
        assert invoke(capsys, "enumerate", "--algebra", "zplus", "--engine", "oracle") == (
            2, "", "error: enumeration requires a finite algebra\n")


class TestJsonFormat:
    def test_decide_record(self, capsys, a2_path):
        status, out, _ = invoke(
            capsys, "--format", "json", "decide", "a", "b", "c", "d", "--algebra", a2_path
        )
        assert status == 0
        (record,) = records(out)
        assert record["command"] == "decide"
        assert record["holds"] is False

    def test_solve_record_round_trip(self, capsys):
        status, out, _ = invoke(
            capsys, "--format", "json", "solve", "20", "4", "30", "--algebra", "nmul"
        )
        assert status == 0
        (record,) = records(out)
        assert record["solutions"] == [6, 9]
        assert "*(10,x1) -> *(x1,x1)" in record["witnesses"]["9"]
        assert json.loads(json.dumps(record)) == record

    def test_every_command_emits_valid_json(self, capsys, a2_path):
        calls = [
            ["decide", "4", "5", "0", "1", "--algebra", "zplus"],
            ["solve", "a", "eaf", "c", "--algebra", "word:acef"],
            ["lgg", "f(a,a)", "f(b,b)"],
            ["solve-tree", "a", "b", "c"],
            ["check-tree", "a", "a", "c", "c"],
            ["antiunify", "4", "9", "--algebra", "nmul"],
            ["enumerate", "--algebra", a2_path],
            ["check-rule", "x1 -> x1", "a", "a", "c", "c", "--algebra", a2_path],
        ]
        for argv in calls:
            status, out, _ = invoke(capsys, "--format", "json", *argv)
            assert status == 0, argv
            for record in records(out):
                assert "command" in record


@pytest.fixture()
def golden_paths(tmp_path, a2_path):
    paths = {"a2": a2_path}
    for name, alg in [
        ("c", FiniteAlgebra(name="C", carrier=("e0", "e1", "e2"),
                            constants={"c0": "e2", "c1": "e1"})),
        ("s", FiniteAlgebra(name="S", carrier=("a", "b", "c", "d"),
                            ops={"g": {("a",): "b", ("b",): "b", ("c",): "d", ("d",): "d"}})),
        ("t", FiniteAlgebra(name="T", carrier=("p", "q"),
                            ops={"g": {("p",): "q", ("q",): "q"}})),
    ]:
        paths[name] = str(tmp_path / f"{name}.json")
        save_finite_algebra(alg, paths[name])
    for name in ("a3", "gpair_source", "gpair_target"):
        paths[name] = os.path.join(ALGEBRAS, f"{name}.json")
    return paths


def quadruples(words: str) -> list[list[str]]:
    """Quadruples written as four-letter words, as ``enumerate``'s JSON lists them."""
    return [list(word) for word in words.split()]


def enumerated(words: str) -> str:
    """The text of ``enumerate`` for quadruples written as four-letter words."""
    return "\n".join("{} : {} :: {} : {}".format(*quad) for quad in quadruples(words))


# every quadruple of a2 that holds at k = 1, and also at k = 2, l = 1
A2_QUADRUPLES = """
aaaa aabb aacc aadd abab acac acad acbc acbd acca accb accd acda acdb acdc adac
adad adbc adbd adca adcb adcd adda addb addc baba bbaa bbbb bbcc bbdd bcac bcad
bcbc bcbd bcca bccb bccd bcda bcdb bcdc bdac bdad bdbc bdbd bdca bdcb bdcd bdda
bddb bddc caac caad cabc cabd caca cacb cacd cada cadb cadc cbac cbad cbbc cbbd
cbca cbcb cbcd cbda cbdb cbdc ccaa ccbb cccc ccdd cdac cdad cdbc cdbd cdca cdcb
cdcd cdda cddb cddc daac daad dabc dabd daca dacb dacd dada dadb dadc dbac dbad
dbbc dbbd dbca dbcb dbcd dbda dbdb dbdc dcac dcad dcbc dcbd dcca dccb dccd dcda
dcdb dcdc ddaa ddbb ddcc dddd
"""
GPAIR_QUADRUPLES = "aaee aaff abef bafe bbee bbff ccee ccff cdef dcfe ddee ddff"
A3_QUADRUPLES = "aaaa aabb aacc abab acac baba bbaa bbbb bbcc bcbc caca cbcb ccaa ccbb cccc"


def decision(holds: bool, reason: str, witness=None, counter=None, arrow=None) -> dict:
    """The JSON record of a finite-algebra ``decide``."""
    return {"command": "decide", "holds": holds, "reason": reason, "witness": witness,
            "counter": counter, "arrow": arrow}


# one call per engine branch of decide, solve and enumerate: (argv, text stdout, JSON
# record); "{name}" stands for the path of a golden_paths algebra
GOLDEN = [
    (["decide", "4", "5", "0", "1", "--algebra", "zplus"],
     "holds (difference proportion: 4-5 = 0-1)",
     {"command": "decide", "holds": True, "relation": "difference", "detail": "4-5 = 0-1"}),
    (["decide", "2", "4", "3", "6", "--algebra", "zplus"],
     "does not hold (difference proportion: 2-4 != 3-6)",
     {"command": "decide", "holds": False, "relation": "difference", "detail": "2-4 != 3-6"}),
    (["decide", "1/2", "1", "3", "6", "--algebra", "qmul"],
     "holds (geometric proportion: 1/2:1 vs 3:6)",
     {"command": "decide", "holds": True, "relation": "geometric", "detail": "1/2:1 vs 3:6"}),
    (["decide", "20", "4", "30", "6", "--algebra", "nmul"],
     "holds (geometric proportion: 20:4 vs 30:6)",
     {"command": "decide", "holds": True, "relation": "geometric", "detail": "20:4 vs 30:6"}),
    (["decide", "ab", "b", "aab", "ab", "--algebra", "word:ab"],
     "holds (factorization ||ab ~ |a|b)",
     {"command": "decide", "holds": True, "relation": "word",
      "witness": ["", "", "ab", "", "a", "b"]}),
    (["decide", "ab", "ba", "ba", "ab", "--algebra", "word:ab"],
     "does not hold (no aligned factorization)",
     {"command": "decide", "holds": False, "relation": "word", "witness": None}),
    (["decide", "a", "a", "a", "a", "--algebra", "{a2}"],
     "holds (maximal; witness: x1 -> x1)", decision(True, "maximal", "x1 -> x1")),
    (["decide", "a", "b", "b", "b", "--algebra", "{a2}"],
     "does not hold (not-maximal: fourth element b has a strictly larger justification set"
     " (arrow b->b :. b->a))",
     decision(False, "not-maximal", counter="b", arrow="b->b :. b->a")),
    (["decide", "a", "a", "a", "b", "--algebra", "{a2}"],
     "does not hold (empty-intersection: fourth element a has a strictly larger justification"
     " set (arrow a->a :. a->b))",
     decision(False, "empty-intersection", counter="a", arrow="a->a :. a->b")),
    (["decide", "a", "b", "a", "b", "--algebra", "{a2}", "--engine", "oracle"],
     "holds (maximal; witness: x1 -> f(x1))", decision(True, "maximal", "x1 -> f(x1)")),
    (["decide", "a", "b", "p", "q", "--algebra", "{s}", "--algebra2", "{t}"],
     "holds (maximal; witness: x1 -> g(x1))", decision(True, "maximal", "x1 -> g(x1)")),
    (["decide", "e1", "e0", "e1", "e0", "--algebra", "{c}"],
     "holds (maximal; witness: x1 -> c1 (arrow e0->e1 :. e0->e1))",
     decision(True, "maximal", "x1 -> c1", arrow="e0->e1 :. e0->e1")),
    (["solve", "20", "4", "30", "--algebra", "nmul"],
     "{6, 9}\nwitness for 6: *(10,x1) -> *(2,x1)\nwitness for 6: *(5,x1) -> x1\n"
     "witness for 9: *(10,x1) -> *(x1,x1)",
     {"command": "solve", "solutions": [6, 9],
      "witnesses": {"6": ["*(10,x1) -> *(2,x1)", "*(5,x1) -> x1"],
                    "9": ["*(10,x1) -> *(x1,x1)"]}}),
    (["solve", "20", "4", "30", "--algebra", "nmul", "--l", "1"], "{6}",
     {"command": "solve", "solutions": ["6"]}),
    (["solve", "2", "3", "0", "--algebra", "zplus"], "{1}\nwitness for 1: x1 -> +(x1,1)",
     {"command": "solve", "solutions": [1], "witnesses": {"1": ["x1 -> +(x1,1)"]}}),
    (["solve", "1/2", "3", "4", "--algebra", "qmul"], "{24}",
     {"command": "solve", "solutions": ["24"]}),
    (["solve", "ab", "b", "a", "--algebra", "word:ab"], "{%e}",
     {"command": "solve", "solutions": ["%e"]}),
    (["solve", "a", "b", "a", "--algebra", "{a2}"], "{b}",
     {"command": "solve", "solutions": ["b"]}),
    (["solve", "a", "b", "a", "--algebra", "{a2}", "--engine", "oracle"], "{b}",
     {"command": "solve", "solutions": ["b"]}),
    (["enumerate", "--algebra", "{a2}"], enumerated(A2_QUADRUPLES),
     {"command": "enumerate", "quadruples": quadruples(A2_QUADRUPLES)}),
    (["enumerate", "--algebra", "{gpair_source}", "--algebra2", "{gpair_target}"],
     enumerated(GPAIR_QUADRUPLES),
     {"command": "enumerate", "quadruples": quadruples(GPAIR_QUADRUPLES)}),
    (["enumerate", "--algebra", "{a2}", "--k", "2", "--l", "1"], enumerated(A2_QUADRUPLES),
     {"command": "enumerate", "quadruples": quadruples(A2_QUADRUPLES)}),
    (["enumerate", "--algebra", "{a3}", "--engine", "oracle"], enumerated(A3_QUADRUPLES),
     {"command": "enumerate", "quadruples": quadruples(A3_QUADRUPLES)}),
]


# the options each subcommand's --help lists (None: the top level), and the
# defaults it shows
QUERY_OPTIONS = ["--algebra", "--algebra2", "--k", "--l", "--engine", "--cap"]
HELP_OPTIONS = {
    None: ["--format"],
    "decide": [*QUERY_OPTIONS, "--tokens", "--allow-empty"],
    "solve": [*QUERY_OPTIONS, "--tokens", "--allow-empty"],
    "enumerate": QUERY_OPTIONS,
    "lgg": [],
    "solve-tree": [],
    "check-tree": [],
    "antiunify": ["--algebra", "--k", "--depth"],
    "check-rule": ["--algebra", "--algebra2", "--full", "--tokens", "--allow-empty"],
}
HELP_DEFAULTS = {"--k": "1", "--engine": "auto", "--cap": "1000000", "--format": "text",
                 "--depth": "2"}


class TestGoldenOutputs:
    def test_text(self, capsys, golden_paths):
        for argv, text, _ in GOLDEN:
            argv = [arg.format(**golden_paths) for arg in argv]
            assert invoke(capsys, *argv) == (0, text + "\n", ""), argv

    def test_json_records(self, capsys, golden_paths):
        for argv, _, record in GOLDEN:
            argv = [arg.format(**golden_paths) for arg in argv]
            assert invoke(capsys, "--format", "json", *argv) == (
                0, json.dumps(record, sort_keys=True) + "\n", ""), argv

    def test_help_of_every_subcommand(self, capsys):
        for name in [None, *COMMANDS]:
            status, out, _ = invoke(capsys, *([name] if name else []), "--help")
            assert status == 0, name
            assert out.startswith("Usage:"), name

    def test_help_lists_every_option_with_its_default(self, capsys):
        for name, options in HELP_OPTIONS.items():
            status, out, err = invoke(capsys, *([name] if name else []), "--help")
            assert (status, err) == (0, ""), name
            text = " ".join(out.split())
            assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) == {*options, "--help"}, name
            for option in options:
                if option in HELP_DEFAULTS:
                    # the default follows the option before any other option
                    shown = rf"{option} (?:(?!--).)*\bdefault: {HELP_DEFAULTS[option]}\b"
                    assert re.search(shown, text), (name, option)

    def test_help_lists_every_subcommand(self, capsys):
        status, out, _ = invoke(capsys, "--help")
        assert status == 0
        for name in HELP_OPTIONS:
            assert name is None or re.search(rf"^ +{name} ", out, re.M), name


class TestLoadAlgebra:
    def test_presets(self):
        assert isinstance(load_algebra("zplus"), IntAddition)
        assert isinstance(load_algebra("nmul"), NaturalMultiplication)
        w = load_algebra("word:xyz", allow_empty=True)
        assert isinstance(w, WordConcatenation) and w.allow_empty

    def test_file_prefix(self, a2_path):
        assert load_algebra("file:" + a2_path).name == "A2"
        assert load_algebra(a2_path).name == "A2"

    def test_missing_table_row_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = algebra_to_json(
            FiniteAlgebra(name="x", carrier=("a", "b"), ops={"f": {("a",): "a", ("b",): "b"}})
        ).replace('"b": "b"\n', "")
        bad.write_text(text.replace('"a": "a",', '"a": "a"'))
        status, _, err = invoke(capsys, "decide", "a", "a", "b", "b", "--algebra", str(bad))
        assert status == 2
        assert "missing table row for f(b)" in err

    def test_term_preset(self, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text('{"symbols": {"f": 1, "a": 0}}')
        alg = load_algebra("term:" + str(sig))
        assert alg.signature.rank("f") == 1


class TestRedirectedStreams:
    def test_streams_are_released(self, a2_path):
        # a caller capturing output through redirected streams must get them
        # back: nothing in run may keep one alive
        calls = [["lgg", "f(a,a)", "f(a,b)"],
                 ["decide", "1", "2", "3", "4", "--algebra", "zmult"],
                 ["decide", "a", "b", "c", "d", "--algebra", a2_path, "--k", "0"]]
        refs = []
        for n in range(200):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                run(calls[n % len(calls)])
            assert out.getvalue() or err.getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [r for r in refs if r() is not None] == []


class TestEntry:
    # the console script as a process: ``anaprop = anaprop.cli:entry``
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ENTRY = "import sys; from anaprop.cli import entry; entry()"

    def process(self, code, *argv, stdout=subprocess.PIPE, flags=()):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.ROOT, "src"))
        return subprocess.run([sys.executable, *flags, "-c", code, *argv], cwd=self.ROOT, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    def test_exit_status_and_streams(self):
        done = self.process(self.ENTRY, "decide", "a", "b", "c", "d",
                            "--algebra", "algebras/a2.json")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("does not hold")
        done = self.process(self.ENTRY, "decide", "a", "b", "c", "--algebra", "algebras/a2.json")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: Missing argument 'D'.\n")

    def test_closed_output_is_no_error(self):
        # the reader went away, as in ``anaprop ... | head``
        read, write = os.pipe()
        os.close(read)
        try:
            done = self.process(self.ENTRY, "lgg", "f(a)", "f(b)", stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")

    def test_help_without_docstrings(self):
        # python -OO strips the docstrings that the help texts quote
        for argv in (["--help"], ["lgg", "--help"]):
            done = self.process(self.ENTRY, *argv, flags=["-OO"])
            assert (done.returncode, done.stderr) == (0, ""), argv
            assert done.stdout.startswith("Usage:"), argv

    def test_imports_no_third_party_parser(self):
        done = self.process("import sys, anaprop.cli; print('click' in sys.modules)")
        assert (done.returncode, done.stdout) == (0, "False\n")
