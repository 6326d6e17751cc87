import pickle

import pytest
from hypothesis import given

from anaprop.terms import (
    App,
    RewriteRule,
    Signature,
    Var,
    canonical_rule,
    canonical_term,
    count_occurrences,
    fresh_renaming,
    generalizes,
    occurrences,
    parse_rule,
    parse_term,
    render,
    replace_subterm,
    rule_generalizes,
    signature_of,
    substitute,
    term_depth,
    variables,
)
from tests.strategies import terms, instances_of


a = App("a")
b = App("b")
x1, x2 = Var("x1"), Var("x2")


def f(*args):
    return App("f", tuple(args))


class TestVariables:
    def test_variable(self):
        assert variables(x1) == {"x1"}

    def test_application(self):
        assert variables(f(a, x1, x2)) == {"x1", "x2"}

    def test_ground(self):
        assert variables(a) == set()


class TestSubstitute:
    def test_uniform(self):
        assert substitute(f(x1, x1), {"x1": a}) == f(a, a)

    def test_ground_unchanged(self):
        assert substitute(a, {"x1": b}) == a

    def test_variable_to_variable(self):
        assert substitute(f(x1, x2), {"x1": x2}) == f(x2, x2)

    @given(terms())
    def test_identity(self, t):
        assert substitute(t, {}) == t


class TestGeneralizes:
    def test_linear_pattern(self):
        assert generalizes(f(x1, x2), f(a, b)) == {"x1": a, "x2": b}

    def test_conflict(self):
        assert generalizes(f(x1, x1), f(a, b)) is None

    @given(terms())
    def test_reflexive(self, t):
        sigma = generalizes(t, t)
        assert sigma == {v: Var(v) for v in variables(t)}

    @given(instances_of(instances_of(terms())))
    def test_transitive(self, chain):
        t2, t1, t0 = chain
        assert generalizes(t2, t1) is not None
        assert generalizes(t1, t0) is not None
        assert generalizes(t2, t0) is not None

    @given(instances_of(terms()))
    def test_matching_reconstructs(self, pair):
        pattern, subject = pair
        sigma = generalizes(pattern, subject)
        assert sigma is not None
        assert substitute(pattern, sigma) == subject


class TestRuleGeneralizes:
    def test_constant_rule_under_identity(self):
        assert rule_generalizes(RewriteRule(a, a), RewriteRule(x1, x1))

    def test_componentwise_independent(self):
        # a -> b fits under x1 -> x1 because the sides match independently.
        assert rule_generalizes(RewriteRule(a, b), RewriteRule(x1, x1))

    def test_pattern_not_instance_of_ground(self):
        assert not rule_generalizes(RewriteRule(x1, x1), RewriteRule(a, a))


class TestCountOccurrences:
    def test_double(self):
        assert count_occurrences(f(x1, x1), "x1") == 2

    def test_absent(self):
        assert count_occurrences(a, "x1") == 0

    def test_nested(self):
        assert count_occurrences(App("f", (x1, App("g", (x2, x1)))), "x1") == 2

    @given(terms())
    def test_zero_iff_not_occurring(self, t):
        for v in ["x1", "x2", "x3"]:
            assert (count_occurrences(t, v) == 0) == (v not in variables(t))


class TestReplaceSubterm:
    def test_single_occurrence(self):
        two = f(a, a)
        first = occurrences(two, a)[0]
        assert replace_subterm(two, a, b, [first]) == f(b, a)

    def test_empty_positions(self):
        s = f(a, b)
        assert replace_subterm(s, a, b, []) == s

    def test_root(self):
        assert replace_subterm(a, a, b, [()]) == b

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            replace_subterm(f(a, b), a, b, [(1,)])


class TestRewriteRule:
    def test_rejects_unbound_rhs_variables(self):
        with pytest.raises(ValueError):
            RewriteRule(a, x1)

    def test_accepts_subset(self):
        RewriteRule(f(x1, x2), x1)


class TestCanonical:
    def test_term(self):
        assert canonical_term(App("f", (Var("x7"), Var("x7"), Var("x3")))) == App(
            "f", (x1, x1, x2)
        )

    def test_rule_orders_lhs_first(self):
        rule = RewriteRule(App("f", (Var("x9"),)), Var("x9"))
        assert canonical_rule(rule) == RewriteRule(App("f", (x1,)), x1)

    @given(terms(), terms())
    def test_is_fresh_renaming_avoiding_nothing(self, s, t):
        assert canonical_term(s) == substitute(s, fresh_renaming([s], set()))
        rule = RewriteRule(f(t, s), s)
        sigma = fresh_renaming([rule.lhs, rule.rhs], set())
        assert canonical_rule(rule) == RewriteRule(substitute(rule.lhs, sigma),
                                                   substitute(rule.rhs, sigma))


class TestSyntax:
    def test_parse_prefix(self):
        assert parse_term("f(a,x1)") == App("f", (a, x1))

    def test_parse_constant(self):
        assert parse_term("a") == a

    def test_whitespace(self):
        assert parse_term(" f( a , x1 ) ") == App("f", (a, x1))

    def test_rule(self):
        assert parse_rule("f(x1) -> x1") == RewriteRule(App("f", (x1,)), x1)

    def test_rejects_garbage(self):
        for bad in ["f(", "f(a))", "", "f(a b)", "x1 x2"]:
            with pytest.raises(ValueError):
                parse_term(bad)

    @given(terms())
    def test_round_trip(self, t):
        assert parse_term(render(t)) == t

    def test_signature_validation(self):
        sig = Signature({"f": 2, "a": 0})
        parse_term("f(a,a)", sig)
        with pytest.raises(ValueError):
            parse_term("f(a)", sig)
        with pytest.raises(KeyError):
            parse_term("g(a)", sig)


class TestTermContract:
    nested = App("f", (App("g", (x1,)), a, Var("x10")))

    def test_repr(self):
        assert repr(x1) == "Var(name='x1')"
        assert repr(a) == "App(symbol='a', args=())"
        assert repr(self.nested) == (
            "App(symbol='f', args=(App(symbol='g', args=(Var(name='x1'),)), "
            "App(symbol='a', args=()), Var(name='x10')))"
        )

    def test_str(self):
        assert str(x1) == "x1"
        assert str(a) == "a"
        assert str(self.nested) == "f(g(x1),a,x10)"

    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(x1) == hash(("x1",))
        assert hash(a) == hash(("a", ()))
        assert hash(self.nested) == hash(("f", self.nested.args))

    @given(terms())
    def test_hash_and_equality_follow_structure(self, t):
        copy = parse_term(render(t))
        assert copy == t and hash(copy) == hash(t)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            x1.name = "x2"
        with pytest.raises(AttributeError):
            self.nested.symbol = "g"
        with pytest.raises(AttributeError):
            self.nested.args = ()

    def test_keyword_construction_and_default_args(self):
        assert App(symbol="f", args=(x1,)) == App("f", (x1,))
        assert Var(name="x1") == x1
        assert App("a") == App("a", ()) == a

    def test_variable_and_constant_of_one_name_differ(self):
        assert Var("x1") != App("x1")
        assert Var("a") != a
        assert len({Var("x1"), App("x1")}) == 2

    @given(terms())
    def test_pickle_round_trip(self, t):
        back = pickle.loads(pickle.dumps(t))
        assert back == t and type(back) is type(t)


class TestSignature:
    def test_inference(self):
        sig = signature_of([f(a, b, x1)])
        assert sig.rank("f") == 3
        assert sig.constants() == ["a", "b"]

    def test_inconsistent_arity(self):
        with pytest.raises(ValueError):
            signature_of([f(a), App("f", (a, b))])

    def test_rejects_variable_named_symbol(self):
        with pytest.raises(ValueError):
            Signature({"x1": 0})


def test_depth_counts_applications():
    assert term_depth(x1) == 0
    assert term_depth(a) == 0
    assert term_depth(App("g", (App("g", (x1,)),))) == 2
