from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anaprop.algebras import (
    FiniteAlgebra,
    AlgebraFormatError,
    IntAddition,
    NaturalMultiplication,
    RationalMultiplication,
    TermAlgebra,
    UnsupportedQuery,
    WordConcatenation,
    algebra_from_json,
    algebra_to_json,
    check_homomorphism,
    eval_term,
    in_unity_set,
    is_injective_term,
    linear_form,
    monomial_form,
    parse_word_pattern,
    render_word_term,
    solution_set,
)
from anaprop.terms import App, Signature, Var, parse_term
from tests.strategies import random_finite_algebra

import random

x1, x2 = Var("x1"), Var("x2")

ZPLUS = IntAddition()
QMUL = RationalMultiplication()
NMUL = NaturalMultiplication()


def ex11_a2() -> FiniteAlgebra:
    """Four elements; unary f maps a to b and fixes b, c, d."""
    return FiniteAlgebra(
        name="A2",
        carrier=("a", "b", "c", "d"),
        ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}},
    )


def homomorphism_pair():
    """The two g-algebras with H collapsing {a,c} and {b,d} onto {e,f}."""
    source = FiniteAlgebra(
        name="A",
        carrier=("a", "b", "c", "d"),
        ops={"g": {("a",): "b", ("b",): "b", ("c",): "d", ("d",): "d"}},
    )
    target = FiniteAlgebra(
        name="B",
        carrier=("e", "f"),
        ops={"g": {("e",): "f", ("f",): "f"}},
    )
    h = {"a": "e", "b": "f", "c": "e", "d": "f"}
    return source, target, h


class TestEval:
    def test_doubling_over_integers(self):
        assert eval_term(parse_term("+(x1,x1)"), {"x1": 2}, ZPLUS) == 4

    def test_monomial_over_naturals(self):
        assert eval_term(parse_term("*(10,x1)"), {"x1": 3}, NMUL) == 30

    def test_finite_table_lookup(self):
        alg = ex11_a2()
        assert eval_term(parse_term("f(x1)"), {"x1": "a"}, alg) == "b"

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            eval_term(parse_term("h(x1)"), {"x1": "a"}, ex11_a2())

    def test_unassigned_variable(self):
        with pytest.raises(ValueError):
            eval_term(x1, {}, ZPLUS)

    def test_rational_constants(self):
        assert eval_term(parse_term("*(3/2,x1)"), {"x1": Fraction(4)}, QMUL) == 6

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_translation(self, k, o):
        assert eval_term(parse_term(f"+(x1,{k})"), {"x1": o}, ZPLUS) == o + k


class TestNormalForms:
    def test_linear_form_of_a_mixed_term(self):
        const, coeffs = linear_form(parse_term("+(x2,+(3,+(x1,+(-5,x2))))"))
        assert const == -2
        assert list(coeffs.items()) == [("x2", 2), ("x1", 1)]

    def test_monomial_form_of_a_mixed_term(self):
        coeff, exps = monomial_form(parse_term("*(x2,*(2,*(x1,*(3,x2))))"), int)
        assert coeff == 6
        assert list(exps.items()) == [("x2", 2), ("x1", 1)]
        assert monomial_form(parse_term("*(1/2,*(x1,4))"), Fraction) == (2, {"x1": 1})

    def test_leaves(self):
        assert linear_form(x1) == (0, {"x1": 1})
        assert linear_form(App("7")) == (7, {})
        assert monomial_form(x1, int) == (1, {"x1": 1})
        assert monomial_form(App("7"), int) == (7, {})

    @pytest.mark.parametrize("form, term, message", [
        ("linear", "f(x1)", "unknown symbol 'f' over integer addition"),
        ("linear", "+(x1,*(x1,x1))", "unknown symbol '*' over integer addition"),
        ("linear", "+(x1)", "'+' has rank 2"),
        ("linear", "+(x1,a)", "'a' is not an integer constant"),
        ("monomial", "f(x1)", "unknown symbol 'f' over multiplication"),
        ("monomial", "*(x1,+(x1,x1))", "unknown symbol '+' over multiplication"),
        ("monomial", "*(x1,x1,x1)", "'*' has rank 2"),
    ])
    def test_messages(self, form, term, message):
        normalize = linear_form if form == "linear" else lambda t: monomial_form(t, int)
        with pytest.raises(ValueError) as info:
            normalize(parse_term(term))
        assert str(info.value) == message


class TestSolutionSet:
    def test_variable_equation_is_singleton(self):
        alg = ex11_a2()
        assert solution_set(x1, "c", alg) == [{"x1": "c"}]

    def test_table_scan(self):
        alg = ex11_a2()
        sols = solution_set(parse_term("f(x1)"), "b", alg)
        assert sorted(s["x1"] for s in sols) == ["a", "b"]

    def test_ground(self):
        alg = ex11_a2()
        assert solution_set(parse_term("f(f(x1))"), "b", alg) == solution_set(
            parse_term("f(x1)"), "b", alg
        )
        sols = solution_set(App("f", (App("f", (x1,)),)), "b", alg)
        assert {frozenset(s.items()) for s in sols} == {
            frozenset({("x1", "a")}), frozenset({("x1", "b")})
        }

    def test_nmul_divisor_enumeration(self):
        sols = solution_set(parse_term("*(x1,x2)"), 12, NMUL)
        assert sorted((s["x1"], s["x2"]) for s in sols) == [(2, 6), (3, 4), (4, 3), (6, 2)]

    def test_zplus_single_variable(self):
        assert solution_set(parse_term("+(x1,x1)"), 7, ZPLUS) == []
        assert solution_set(parse_term("+(x1,x1)"), 8, ZPLUS) == [{"x1": 4}]

    def test_zplus_multivariable_unsupported(self):
        with pytest.raises(UnsupportedQuery):
            solution_set(parse_term("+(x1,x2)"), 5, ZPLUS)

    def test_qmul_even_root_gives_both_signs(self):
        sols = solution_set(parse_term("*(x1,x1)"), Fraction(9, 4), QMUL)
        assert sorted(s["x1"] for s in sols) == [Fraction(-3, 2), Fraction(3, 2)]

    def test_word_matching(self):
        w = WordConcatenation("abc")
        pattern = parse_word_pattern(w, "x1bx2")
        sols = solution_set(pattern, "abba", w)
        assert [dict(s) for s in sols] == [{"x1": "a", "x2": "ba"}, {"x1": "ab", "x2": "a"}]

    def test_term_algebra_unique_match(self):
        alg = TermAlgebra(Signature({"f": 1, "a": 0}))
        sols = solution_set(parse_term("f(x1)"), parse_term("f(a)"), alg)
        assert sols == [{"x1": App("a")}]


class TestUnitySet:
    def test_translations_always_unique(self):
        for a in [-7, 0, 13]:
            assert in_unity_set(parse_term("+(x1,5)"), a, ZPLUS)

    def test_product_with_four_factorizations(self):
        assert not in_unity_set(parse_term("*(x1,x2)"), 12, NMUL)

    def test_variable_over_finite(self):
        assert in_unity_set(x1, "a", ex11_a2())

    def test_doubling_needs_divisibility(self):
        assert in_unity_set(parse_term("+(x1,x1)"), 8, ZPLUS)
        assert not in_unity_set(parse_term("+(x1,x1)"), 7, ZPLUS)

    def test_zplus_two_variables_never_unique(self):
        assert not in_unity_set(parse_term("+(x1,x2)"), 5, ZPLUS)

    def test_qmul_square_not_unique(self):
        assert not in_unity_set(parse_term("*(x1,x1)"), Fraction(4), QMUL)

    def test_qmul_impossible_square_product(self):
        # x1^2*x2^2 = 2 has no rational solutions at all
        assert QMUL.solution_count(parse_term("*(*(x1,x1),*(x2,x2))"), Fraction(2)) == 0

    def test_word_unique(self):
        w = WordConcatenation("abc", allow_empty=True)
        pattern = parse_word_pattern(w, "x1bx2")
        assert in_unity_set(pattern, "bc", w)
        assert not in_unity_set(pattern, "abba", w)


class TestInjective:
    def test_translation_injective(self):
        assert is_injective_term(parse_term("+(x1,5)"), ZPLUS)

    def test_single_variable_word_context(self):
        w = WordConcatenation("aef")
        assert is_injective_term(parse_word_pattern(w, "ex1f"), w)

    def test_product_not_injective(self):
        assert not is_injective_term(parse_term("*(x1,x2)"), NMUL)

    def test_two_single_occurrence_word_variables(self):
        w = WordConcatenation("ab")
        assert not is_injective_term(parse_word_pattern(w, "x1bx2"), w)

    def test_word_collision_found_by_search(self):
        w = WordConcatenation("ab")
        # x1 x2 x1 collides: (a, aaaaa) and (aa, aaa) both produce a^7
        assert not is_injective_term(parse_word_pattern(w, "x1x2x1"), w)

    def test_finite_exhaustive(self):
        alg = ex11_a2()
        assert not is_injective_term(parse_term("f(x1)"), alg)
        assert is_injective_term(x1, alg)

    def test_qmul_odd_vs_even_exponent(self):
        assert is_injective_term(parse_term("*(x1,*(x1,x1))"), QMUL)
        assert not is_injective_term(parse_term("*(x1,x1)"), QMUL)

    def test_nmul_single_variable_powers(self):
        assert is_injective_term(parse_term("*(x1,x1)"), NMUL)


class TestHomomorphism:
    def test_identity(self):
        alg = ex11_a2()
        assert check_homomorphism({e: e for e in alg.carrier}, alg, alg)

    def test_collapsing_map(self):
        source, target, h = homomorphism_pair()
        assert check_homomorphism(h, source, target)

    def test_violation_detected(self):
        source, target, h = homomorphism_pair()
        # g(c)=d, so c -> f and d -> e breaks the table row for c.
        bad = dict(h, c="f", d="e")
        assert not check_homomorphism(bad, source, target)

    def test_must_be_total(self):
        source, target, h = homomorphism_pair()
        with pytest.raises(ValueError):
            check_homomorphism({"a": "e"}, source, target)


class TestAlgebraFile:
    def test_round_trip_value(self):
        alg = ex11_a2()
        assert algebra_from_json(algebra_to_json(alg)) == alg

    def test_round_trip_text(self):
        text = algebra_to_json(ex11_a2())
        assert algebra_to_json(algebra_from_json(text)) == text

    def test_random_round_trips(self):
        rng = random.Random(7)
        for i in range(25):
            alg = random_finite_algebra(rng, name=f"r{i}")
            assert algebra_from_json(algebra_to_json(alg)) == alg

    def test_missing_row_is_named(self):
        alg = ex11_a2()
        text = algebra_to_json(alg).replace('"c": "c",\n', "")
        with pytest.raises(AlgebraFormatError, match=r"missing table row for f\(c\)"):
            algebra_from_json(text)

    def test_not_json(self):
        with pytest.raises(AlgebraFormatError, match="JSON"):
            algebra_from_json("carrier: [a]")

    def test_missing_field(self):
        with pytest.raises(AlgebraFormatError, match="carrier"):
            algebra_from_json('{"name": "x"}')


class TestWordPatterns:
    def test_parse_and_render(self):
        w = WordConcatenation("abc")
        t = parse_word_pattern(w, "x1bx12c")
        assert render_word_term(w, t) == "x1bx12c"

    def test_tokens_mode(self):
        w = WordConcatenation("abc")
        assert render_word_term(w, parse_word_pattern(w, "x1 ab x2", tokens=True)) == "x1abx2"

    def test_rejects_foreign_letters(self):
        w = WordConcatenation("ab")
        with pytest.raises(ValueError):
            parse_word_pattern(w, "x1z")

    def test_empty_word_element(self):
        w = WordConcatenation("ab", allow_empty=True)
        assert w.parse_element("%e") == ""
        with pytest.raises(ValueError):
            WordConcatenation("ab").parse_element("%e")


class TestCarrierProperties:
    def test_solution_sets_partition_assignments(self):
        rng = random.Random(3)
        for i in range(15):
            alg = random_finite_algebra(rng, max_size=3, name=f"p{i}")
            sig = alg.signature
            if not sig.ranks:
                continue
            term = _random_term(rng, alg)
            names = sorted(__import__("anaprop.terms", fromlist=["variables"]).variables(term))
            total = sum(len(solution_set(term, a, alg)) for a in alg.carrier)
            assert total == len(alg.carrier) ** len(names)

    def test_unity_matches_solution_count(self):
        rng = random.Random(4)
        for i in range(15):
            alg = random_finite_algebra(rng, max_size=3, name=f"u{i}")
            term = _random_term(rng, alg)
            for a in alg.carrier:
                assert in_unity_set(term, a, alg) == (len(solution_set(term, a, alg)) == 1)

    def test_injective_single_variable_terms_have_unique_ranges(self):
        rng = random.Random(5)
        checked = 0
        for i in range(40):
            alg = random_finite_algebra(rng, max_size=3, name=f"i{i}")
            term = _random_term(rng, alg)
            from anaprop.terms import variables as term_vars

            if len(term_vars(term)) != 1 or not is_injective_term(term, alg):
                continue
            checked += 1
            ranged = {eval_term(term, {v: e}, alg)
                      for v in term_vars(term) for e in alg.carrier}
            for a in ranged:
                assert in_unity_set(term, a, alg)
        assert checked >= 3


def _random_term(rng, alg, depth=2):
    sig = alg.signature
    leaves = [Var("x1"), Var("x2")] + [App(c) for c in sig.constants()]
    functional = [(s, r) for s, r in sig.symbols() if r > 0]
    def build(d):
        if d == 0 or not functional or rng.random() < 0.3:
            return rng.choice(leaves)
        s, r = rng.choice(functional)
        return App(s, tuple(build(d - 1) for _ in range(r)))
    return build(depth)
