import contextlib
import gc
import io
import json
import weakref

import pytest

from anaprop.algebras import FiniteAlgebra, algebra_to_json, save_finite_algebra
from anaprop.cli import load_algebra, main, run
from anaprop.oracle import OracleUniverse
from anaprop.algebras import IntAddition, NaturalMultiplication, WordConcatenation


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

    @pytest.mark.parametrize("argv", [["decide", "a", "b", "c", "d"], ["solve", "a", "b", "c"]])
    def test_oracle_has_no_depth_option(self, capsys, a2_path, argv):
        # below the exactness bound the oracle gives wrong verdicts (decide
        # a b c d over a2 holds, all-trivial), so it takes no depth
        status, out, err = invoke(capsys, *argv, "--algebra", a2_path,
                                  "--engine", "oracle", "--depth", "0")
        assert status == 2
        assert out == ""
        assert "No such option" in err and "--depth" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, capsys, a2_path, k):
        status, out, err = invoke(
            capsys, "decide", "a", "b", "c", "d", "--algebra", a2_path, "--k", k
        )
        assert status == 2
        assert out == ""
        assert "--k" in err and "x>=1" in err

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
    return paths


# one call per engine branch of decide and solve: (argv, text stdout, JSON keys);
# "{name}" stands for the path of a golden_paths algebra
DECISION_KEYS = {"command", "holds", "reason", "witness", "counter", "arrow"}
GOLDEN = [
    (["decide", "4", "5", "0", "1", "--algebra", "zplus"],
     "holds (difference proportion: 4-5 = 0-1)", {"command", "holds", "relation", "detail"}),
    (["decide", "2", "4", "3", "6", "--algebra", "zplus"],
     "does not hold (difference proportion: 2-4 != 3-6)",
     {"command", "holds", "relation", "detail"}),
    (["decide", "1/2", "1", "3", "6", "--algebra", "qmul"],
     "holds (geometric proportion: 1/2:1 vs 3:6)", {"command", "holds", "relation", "detail"}),
    (["decide", "20", "4", "30", "6", "--algebra", "nmul"],
     "holds (geometric proportion: 20:4 vs 30:6)", {"command", "holds", "relation", "detail"}),
    (["decide", "ab", "b", "aab", "ab", "--algebra", "word:ab"],
     "holds (factorization ||ab ~ |a|b)", {"command", "holds", "relation", "witness"}),
    (["decide", "ab", "ba", "ba", "ab", "--algebra", "word:ab"],
     "does not hold (no aligned factorization)", {"command", "holds", "relation", "witness"}),
    (["decide", "a", "a", "a", "a", "--algebra", "{a2}"],
     "holds (maximal; witness: x1 -> x1)", DECISION_KEYS),
    (["decide", "a", "b", "b", "b", "--algebra", "{a2}"],
     "does not hold (not-maximal: fourth element b has a strictly larger justification set"
     " (arrow b->b :. b->a))", DECISION_KEYS),
    (["decide", "a", "a", "a", "b", "--algebra", "{a2}"],
     "does not hold (empty-intersection: fourth element a has a strictly larger justification"
     " set (arrow a->a :. a->b))", DECISION_KEYS),
    (["decide", "a", "b", "a", "b", "--algebra", "{a2}", "--engine", "oracle"],
     "holds (maximal; witness: x1 -> f(x1))", DECISION_KEYS),
    (["decide", "a", "b", "p", "q", "--algebra", "{s}", "--algebra2", "{t}"],
     "holds (maximal; witness: x1 -> g(x1))", DECISION_KEYS),
    (["decide", "e1", "e0", "e1", "e0", "--algebra", "{c}"],
     "holds (maximal; witness: x1 -> c1 (arrow e0->e1 :. e0->e1))", DECISION_KEYS),
    (["solve", "20", "4", "30", "--algebra", "nmul"],
     "{6, 9}\nwitness for 6: *(10,x1) -> *(2,x1)\nwitness for 6: *(5,x1) -> x1\n"
     "witness for 9: *(10,x1) -> *(x1,x1)", {"command", "solutions", "witnesses"}),
    (["solve", "20", "4", "30", "--algebra", "nmul", "--l", "1"], "{6}",
     {"command", "solutions"}),
    (["solve", "2", "3", "0", "--algebra", "zplus"], "{1}\nwitness for 1: x1 -> +(x1,1)",
     {"command", "solutions", "witnesses"}),
    (["solve", "1/2", "3", "4", "--algebra", "qmul"], "{24}", {"command", "solutions"}),
    (["solve", "ab", "b", "a", "--algebra", "word:ab"], "{%e}", {"command", "solutions"}),
    (["solve", "a", "b", "a", "--algebra", "{a2}"], "{b}", {"command", "solutions"}),
    (["solve", "a", "b", "a", "--algebra", "{a2}", "--engine", "oracle"], "{b}",
     {"command", "solutions"}),
]


class TestGoldenOutputs:
    def test_text(self, capsys, golden_paths):
        for argv, text, _ in GOLDEN:
            argv = [arg.format(**golden_paths) for arg in argv]
            assert invoke(capsys, *argv) == (0, text + "\n", ""), argv

    def test_json_keys(self, capsys, golden_paths):
        for argv, _, keys in GOLDEN:
            argv = [arg.format(**golden_paths) for arg in argv]
            status, out, _ = invoke(capsys, "--format", "json", *argv)
            assert status == 0, argv
            (record,) = records(out)
            assert set(record) == keys, argv
            assert record["command"] == argv[0]

    def test_help_of_every_subcommand(self, capsys):
        for name in [None, *main.commands]:
            status, out, _ = invoke(capsys, *([name] if name else []), "--help")
            assert status == 0, name
            assert out.startswith("Usage:"), name


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
