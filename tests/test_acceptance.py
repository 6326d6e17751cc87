"""Acceptance suite: one test per criterion, exact values, fixed seeds.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Everything asserted here is either a worked example reproduced
exactly or a property checked at the stated scale.
"""
import json
import random
from dataclasses import replace
from fractions import Fraction

from anaprop.algebras import (
    FiniteAlgebra,
    IntAddition,
    NaturalMultiplication,
    WordConcatenation,
    parse_word_pattern,
)
from anaprop.antiunify import common_gens, mgg, monomial, monomial_gens
from anaprop.closedform import (
    decide_mono_add,
    decide_mono_mul,
    decide_mono_word,
    decide_sy_add,
    decide_sy_word,
    solve_mono_add,
    solve_mono_mul,
    solve_mono_word,
)
from anaprop.cli import run
from anaprop.decider import FragmentDecider, StateCapExceeded, verify_characteristic
from anaprop.oracle import OracleBudgetExceeded, OracleUniverse
from anaprop.terms import RewriteRule, parse_rule
from tests.strategies import random_algebra_pair, random_finite_algebra
from tests.test_decider import oracle_justifications

ZPLUS = IntAddition()
NMUL = NaturalMultiplication()


def a1():
    return FiniteAlgebra(name="A1", carrier=("a", "b", "c", "d"))


def a2():
    return FiniteAlgebra(
        name="A2",
        carrier=("a", "b", "c", "d"),
        ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}},
    )


def a3():
    return FiniteAlgebra(
        name="A3",
        carrier=("a", "b", "c"),
        ops={
            "f": {("a",): "b", ("b",): "b", ("c",): "c"},
            "g": {("a",): "c", ("b",): "b", ("c",): "c"},
        },
    )


def m(coeff, *exps):
    return monomial(coeff, *exps)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example golden tests (exact, zero tolerance)


class TestCriterion1Golden:
    def test_finite_algebra_worked_examples(self):
        dec1 = FragmentDecider(a1(), k=1)
        assert dec1.decide_proportion("a", "b", "c", "d").holds
        assert dec1.decide_proportion("a", "c", "b", "d").holds
        assert not FragmentDecider(a2(), k=1).decide_proportion("a", "b", "c", "d").holds
        assert not FragmentDecider(a3(), k=1).decide_proportion("a", "b", "a", "c").holds
        assert oracle_justifications("a", "a", a1(), k=1, ell=None, depth=3) == {
            parse_rule("x1 -> x1")
        }
        assert oracle_justifications("a", "b", a2(), k=1, ell=None, depth=3) == {
            parse_rule("x1 -> f(x1)"),
            parse_rule("x1 -> f(f(x1))"),
            parse_rule("x1 -> f(f(f(x1)))"),
        }

    def test_monomial_generalization_tables(self, capsys):
        assert monomial_gens(4) == {m(4), m(2, 1), m(1, 1, 1), m(1, 2), m(1, 1)}
        assert monomial_gens(20) == {
            m(20), m(10, 1), m(5, 2), m(4, 1), m(5, 1, 1), m(2, 1, 1),
            m(1, 1, 1, 1), m(2, 1), m(5, 1), m(1, 1, 1), m(1, 2, 1), m(1, 1),
        }
        assert monomial_gens(30) == {
            m(30), m(15, 1), m(10, 1), m(6, 1), m(5, 1, 1), m(2, 1, 1),
            m(3, 1, 1), m(1, 1, 1, 1), m(2, 1), m(5, 1), m(1, 1, 1),
            m(3, 1), m(1, 1),
        }
        assert common_gens(20, 30) == {
            m(10, 1), m(2, 1, 1), m(5, 1, 1), m(1, 1, 1, 1),
            m(2, 1), m(5, 1), m(1, 1, 1), m(1, 1),
        }
        assert mgg(20, 30) == {m(10, 1)}
        status = run(["--format", "json", "solve", "20", "4", "30", "--algebra", "nmul"])
        record = json.loads(capsys.readouterr().out)
        assert status == 0
        assert record["solutions"] == [6, 9]
        assert "*(10,x1) -> *(2,x1)" in record["witnesses"]["6"]
        assert "*(10,x1) -> *(x1,x1)" in record["witnesses"]["9"]

    def test_2_4_3_6_beyond_the_additive_factorization(self):
        assert decide_mono_add(2, 4, 3, 6) is False
        assert decide_sy_add(2, 4, 3, 6) is False
        # the doubling rule witnesses the full-framework proportion additively
        assert verify_characteristic(
            parse_rule("x1 -> +(x1,x1)"), 2, 4, 3, 6, ZPLUS, full=True
        )
        # and multiplicatively the proportion is witnessed over the naturals
        assert verify_characteristic(
            parse_rule("x1 -> *(2,x1)"), 2, 4, 3, 6, NMUL, full=True
        )

    def test_tree_proportion_example(self):
        from anaprop.terms import App, canonical_term, parse_term
        from anaprop.trees import lgg, solve_tree_equation

        f = lambda *args: App("f", tuple(App(x) for x in args))
        solutions = solve_tree_equation(f("a", "a", "a"), f("a", "a", "a"), f("a", "b", "c"))
        assert f("a", "c", "b") in solutions
        assert f("c", "b", "a") in solutions
        assert canonical_term(lgg(f("a", "a", "a"), f("a", "b", "c"))) == parse_term(
            "f(a,x1,x2)"
        )

    def test_word_counterexamples_and_replacement(self):
        assert decide_mono_word("a", "b", "", "ab") is None
        assert decide_mono_word("ab", "ba", "ba", "ab") is None
        words = WordConcatenation("abc", allow_empty=True)
        rule = RewriteRule(
            parse_word_pattern(words, "x1bx2"), parse_word_pattern(words, "x1cx2")
        )
        assert verify_characteristic(rule, "ab", "ac", "bc", "cc", words)
        assert decide_sy_word("ab", "ac", "bc", "cc") is None
        assert decide_sy_word("ab", "ac", "bc", "cc", allow_empty=True) is not None

    def test_homomorphism_example(self):
        source = FiniteAlgebra(
            name="A",
            carrier=("a", "b", "c", "d"),
            ops={"g": {("a",): "b", ("b",): "b", ("c",): "d", ("d",): "d"}},
        )
        target = FiniteAlgebra(
            name="B", carrier=("e", "f"), ops={"g": {("e",): "f", ("f",): "f"}}
        )
        h = {"a": "e", "b": "f", "c": "e", "d": "f"}
        dec = FragmentDecider(source, target, k=1)
        assert dec.decide_arrow("a", "b", h["a"], h["b"]).holds
        assert dec.decide_arrow("c", "d", h["c"], h["d"]).holds
        assert not dec.decide_arrow("a", "d", h["a"], h["d"]).holds
        assert dec.decide_proportion("a", "b", h["a"], h["b"]).holds


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence on >= 200 random finite algebras


class TestCriterion2OracleEquivalence:
    def test_random_suite_200(self):
        rng = random.Random(99)
        cases = 0
        while cases < 200:
            first, second = random_algebra_pair(rng, max_size=4)
            k = rng.choice([1, 2])
            ell = rng.choice([1, None])
            try:
                dec = FragmentDecider(first, second, k=k, ell=ell, cap=60)
            except StateCapExceeded:
                continue
            if dec.state_count == 0:
                continue
            try:
                uni = OracleUniverse(
                    first, second, k=k, ell=ell, depth=dec.state_count, limit=2000
                )
            except OracleBudgetExceeded:
                continue
            cases += 1
            for a in first.carrier:
                for b in first.carrier:
                    for c in second.carrier:
                        for d in second.carrier:
                            mine = dec.decide_proportion(a, b, c, d)
                            ref = uni.decide(a, b, c, d)
                            # every field but the witness, which may be another
                            # least rule of the same shared set
                            assert replace(mine, witness=None) == replace(ref, witness=None), (
                                first, second, k, ell, (a, b, c, d)
                            )
        assert cases == 200


# ---------------------------------------------------------------------------
# Criterion 3: characterization equivalences, >= 10^4 random cases each


class TestCriterion3Equivalences:
    N = 10_000

    def test_difference_proportion(self):
        rng = random.Random(31)
        for _ in range(self.N):
            a, b, c, d = (rng.randint(-10 ** 9, 10 ** 9) for _ in range(4))
            assert decide_mono_add(a, b, c, d) == (a - b == c - d)

    def test_additive_factorization_matches(self):
        rng = random.Random(32)
        for _ in range(self.N):
            a, b, c = (rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
            d = rng.choice([solve_mono_add(a, b, c), rng.randint(-10 ** 6, 10 ** 6)])
            assert decide_sy_add(a, b, c, d) == decide_mono_add(a, b, c, d)

    def test_geometric_proportion(self):
        rng = random.Random(33)
        for _ in range(self.N):
            nums = [
                Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 40))
                for _ in range(4)
            ]
            a, b, c, d = nums
            assert decide_mono_mul(a, b, c, d) == (a * d == b * c)

    def test_word_witness_reconstructs(self):
        rng = random.Random(34)
        present = 0
        for i in range(self.N):
            if i % 2 == 0:
                words = tuple(
                    "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
                    for _ in range(4)
                )
            else:
                a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 3)))
                b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 3)))
                c = "".join(rng.choice("abc") for _ in range(rng.randint(0, 3)))
                ds = solve_mono_word(a, b, c)
                words = (a, b, c, rng.choice(ds)) if ds else (a, b, c, "x" * 0)
            split = decide_mono_word(*words)
            if split is not None:
                present += 1
                assert split.words == words
        assert present >= self.N // 5  # the constructed half guarantees coverage


# ---------------------------------------------------------------------------
# Criterion 4: axiom suites


def _rand_int(rng):
    return rng.randint(-10 ** 6, 10 ** 6)


class TestCriterion4AdditiveAxioms:
    N = 1000

    def test_satisfied_axioms(self):
        rng = random.Random(41)
        for _ in range(self.N):
            a, b, c, e, f, g = (_rand_int(rng) for _ in range(6))
            d = solve_mono_add(a, b, c)
            assert decide_mono_add(a, b, a, b)  # p-reflexivity
            assert decide_mono_add(a, a, c, c)  # inner p-reflexivity
            assert decide_mono_add(c, d, a, b)  # p-symmetry
            assert decide_mono_add(b, a, d, c)  # inner p-symmetry
            assert decide_mono_add(a, c, b, d)  # central permutation
            assert solve_mono_add(a, a, c) == c  # strong inner p-reflexivity
            assert solve_mono_add(a, b, a) == b  # strong p-reflexivity
            assert solve_mono_add(a, a, a) == a  # p-determinism
            h = solve_mono_add(e, f, g)
            # concatenation compatibility and p-transitivity
            assert decide_mono_add(a + e, b + f, c + g, d + h)
            assert decide_mono_add(a, b, e, solve_mono_add(a, b, e))
            f2 = solve_mono_add(b, e, d)
            assert decide_mono_add(a, e, c, f2)  # inner p-transitivity

    def test_commutativity_fails(self):
        assert not decide_mono_add(0, 1, 1, 0)
        assert not decide_mono_add(2, 5, 5, 2)
        assert decide_mono_add(3, 3, 3, 3)


class TestCriterion4MultiplicativeAxioms:
    N = 1000

    def test_satisfied_axioms(self):
        rng = random.Random(42)
        for _ in range(self.N):
            ints = [Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30)) for _ in range(4)]
            a, b, c, e = ints
            (d,) = solve_mono_mul(a, b, c)
            assert decide_mono_mul(a, b, a, b)
            assert decide_mono_mul(a, a, c, c)
            assert decide_mono_mul(c, d, a, b) == True  # p-symmetry
            assert decide_mono_mul(b, a, d, c)  # inner p-symmetry
            assert decide_mono_mul(a, c, b, d)  # central permutation
            assert solve_mono_mul(a, a, c) == {c}  # strong inner p-reflexivity
            assert solve_mono_mul(a, b, a) == {b}  # strong p-reflexivity
            assert solve_mono_mul(a, a, a) == {a}  # p-determinism
            (f,) = solve_mono_mul(c, d, e)
            assert decide_mono_mul(a, b, e, f)  # p-transitivity
            (f2,) = solve_mono_mul(b, e, d)
            assert decide_mono_mul(a, e, c, f2)  # inner p-transitivity
            a2, b2, c2 = (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3))
            (d2,) = solve_mono_mul(a2, b2, c2)
            assert decide_mono_mul(a * a2, b * b2, c * c2, d * d2)  # product compatibility

    def test_commutativity_holds_only_on_squares(self):
        # the ratio form makes a:b::b:a equivalent to a^2 = b^2
        assert not decide_mono_mul(2, 3, 3, 2)
        assert decide_mono_mul(2, 2, 5, 5)
        assert decide_mono_mul(Fraction(2), Fraction(-2), Fraction(-2), Fraction(2))


class TestCriterion4WordAxioms:
    N = 1000

    def test_satisfied_axioms(self):
        rng = random.Random(43)
        count = 0
        while count < self.N:
            a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            c = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            count += 1
            assert decide_mono_word(a, b, a, b) is not None  # p-reflexivity
            assert decide_mono_word(a, a, c, c) is not None  # inner p-reflexivity
            assert solve_mono_word(a, a, a) == [a]  # p-determinism
            for d in solve_mono_word(a, b, a):
                assert d == b  # strong p-reflexivity
            for d in solve_mono_word(a, b, c):
                assert decide_mono_word(c, d, a, b) is not None  # p-symmetry
                assert decide_mono_word(b, a, d, c) is not None  # inner p-symmetry

    def test_central_permutation_fails(self):
        assert decide_mono_word("pqr", "sqt", "pur", "sut") is not None
        assert decide_mono_word("pqr", "pur", "sqt", "sut") is None

    def test_commutativity_fails(self):
        assert decide_mono_word("a", "b", "b", "a") is None

    def test_inner_transitivity_fails(self):
        assert decide_mono_word("m", "mqw", "mqg", "mqgqw") is not None
        assert decide_mono_word("mqw", "cwd", "mqgqw", "cgqwd") is not None
        assert decide_mono_word("m", "cwd", "mqg", "cgqwd") is None

    def test_transitivity_fails(self):
        # refutation of the claimed transitivity: both premises hold, the
        # conclusion does not (all three checked against the factorization form)
        assert decide_mono_word("a", "b", "ab", "bb") is not None
        assert decide_mono_word("ab", "bb", "aab", "bba") is not None
        assert decide_mono_word("a", "b", "aab", "bba") is None

    def test_central_transitivity_fails(self):
        assert decide_mono_word("ba", "bba", "bba", "bbab") is not None
        assert decide_mono_word("bba", "bbab", "bbab", "bbabb") is not None
        assert decide_mono_word("ba", "bba", "bbab", "bbabb") is None

    def test_strong_inner_reflexivity_fails(self):
        # aa : aa :: baa : aab holds through the justification x.aa -> aa.x,
        # so a : a :: c : d does not force d = c over words
        assert decide_mono_word("aa", "aa", "baa", "aab") is not None
        assert "aab" in solve_mono_word("aa", "aa", "baa")


class TestCriterion4DeciderSymmetries:
    def test_symmetry_axioms_on_random_algebras(self):
        rng = random.Random(44)
        checked = 0
        while checked < 25:
            first, second = random_algebra_pair(rng, max_size=3)
            try:
                fwd = FragmentDecider(first, second, k=1, cap=200)
                bwd = FragmentDecider(second, first, k=1, cap=200)
            except StateCapExceeded:
                continue
            checked += 1
            for a in first.carrier:
                for b in first.carrier:
                    assert fwd.decide_proportion(a, b, a, b).holds or second is not first
                    for c in second.carrier:
                        for d in second.carrier:
                            v = fwd.decide_proportion(a, b, c, d).holds
                            assert v == bwd.decide_proportion(c, d, a, b).holds
                            assert v == fwd.decide_proportion(b, a, d, c).holds
            if second is first:
                for a in first.carrier:
                    for b in first.carrier:
                        assert fwd.decide_proportion(a, b, a, b).holds
                        assert fwd.decide_proportion(a, a, b, b).holds


# ---------------------------------------------------------------------------
# Criterion 5: isomorphism invariance


class TestCriterion5Isomorphism:
    def test_transport_on_50_random_algebras(self):
        rng = random.Random(55)
        checked = 0
        while checked < 50:
            alg = random_finite_algebra(rng, max_size=3, name=f"iso{checked}")
            perm = list(alg.carrier)
            rng.shuffle(perm)
            iso = dict(zip(alg.carrier, perm))
            moved = FiniteAlgebra(
                name="moved",
                carrier=alg.carrier,
                constants={sym: iso[e] for sym, e in alg.constants.items()},
                ops={
                    sym: {tuple(iso[x] for x in args): iso[res] for args, res in table.items()}
                    for sym, table in alg.ops.items()
                },
            )
            try:
                dec = FragmentDecider(alg, k=1, cap=200)
                dec2 = FragmentDecider(moved, k=1, cap=200)
            except StateCapExceeded:
                continue
            checked += 1
            for a in alg.carrier:
                for b in alg.carrier:
                    for c in alg.carrier:
                        for d in alg.carrier:
                            assert (
                                dec.decide_proportion(a, b, c, d).holds
                                == dec2.decide_proportion(iso[a], iso[b], iso[c], iso[d]).holds
                            )
        assert checked == 50


# ---------------------------------------------------------------------------
# Criterion 6: desk scale


class TestCriterion6DeskScale:
    def test_suite_is_exact_reproduction_plus_properties(self):
        # worked examples are asserted exactly (zero tolerance) and every
        # property suite above runs at its stated scale; there are no
        # large-scale empirical results to reproduce
        assert TestCriterion3Equivalences.N >= 10_000
        assert TestCriterion4AdditiveAxioms.N >= 1000
        assert TestCriterion4MultiplicativeAxioms.N >= 1000
        assert TestCriterion4WordAxioms.N >= 1000
