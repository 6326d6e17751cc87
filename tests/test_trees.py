import pytest
from hypothesis import given, settings, strategies as st

from anaprop.terms import (App, Var, canonical_term, generalizes, parse_term, positions, substitute,
                           variables)
from anaprop.trees import (
    ChiMap,
    check_tree_arrow,
    check_tree_proportion,
    fresh_vars,
    generalization_filter,
    inverse_image,
    lgg,
    solve_tree_equation,
    unique_match,
)
from tests.strategies import terms

a, b, c = App("a"), App("b"), App("c")
x, y = Var("x1"), Var("x2")


def f3(*args):
    return App("f", tuple(args))


class TestLgg:
    def test_shared_head_recurses(self):
        out = lgg(f3(a, a, a), f3(a, b, c))
        assert canonical_term(out) == parse_term("f(a,x1,x2)")

    @given(terms())
    def test_idempotent(self, t):
        assert lgg(t, t) == t

    def test_chi_injectivity_forces_reuse(self):
        out = lgg(App("g", (a, a)), App("g", (b, b)))
        assert canonical_term(out) == parse_term("g(x1,x1)")

    def test_distinct_pairs_get_distinct_variables(self):
        out = lgg(App("g", (a, a)), App("g", (b, c)))
        assert canonical_term(out) == parse_term("g(x1,x2)")

    @given(terms(), terms())
    def test_generalizes_both_arguments(self, p, q):
        w = lgg(p, q)
        assert generalizes(w, p) is not None
        assert generalizes(w, q) is not None

    @given(terms(), terms())
    def test_commutative_up_to_renaming(self, p, q):
        assert canonical_term(lgg(p, q)) == canonical_term(lgg(q, p))

    def test_fresh_variables_avoid_inputs(self):
        out = lgg(f3(x, a, a), f3(x, b, c))
        fresh = variables(out) - {"x1"}
        assert "x1" not in fresh and len(fresh) == 2


class TestFreshVars:
    def test_ground_context(self):
        assert fresh_vars([a, b], f3(a, x, y)) == {"x1", "x2"}

    def test_difference(self):
        assert fresh_vars([App("f", (x, a))], App("f", (x, y))) == {"x2"}

    def test_ground_term(self):
        assert fresh_vars([x], a) == set()


class TestArrowCheck:
    def test_positive_swap(self):
        assert check_tree_arrow(f3(a, a, a), f3(a, a, a), f3(a, b, c), f3(a, c, b))

    @given(terms(), terms())
    def test_reflexive_pairs(self, p, q):
        assert check_tree_arrow(p, q, p, q)

    def test_distinct_constants(self):
        assert not check_tree_arrow(a, b, c, App("d"))

    def test_proportion_requires_equality(self):
        assert check_tree_proportion(f3(a, a, a), f3(a, a, a), f3(a, b, c), f3(a, c, b))
        assert not check_tree_proportion(a, b, c, App("d"))

    @given(terms(), terms())
    def test_inner_reflexivity(self, p, r):
        assert check_tree_proportion(p, p, r, r)

    @given(terms(), terms())
    def test_p_reflexivity(self, p, q):
        assert check_tree_proportion(p, q, p, q)

    @given(terms(), terms(), terms(), terms())
    @settings(max_examples=200)
    def test_compatible_with_term_contexts(self, p, q, r, u):
        wrap = lambda t: App("h", (t, App("k")))
        assert check_tree_proportion(p, q, r, u) == check_tree_proportion(
            wrap(p), wrap(q), wrap(r), wrap(u)
        )


class TestUniqueMatch:
    def test_example(self):
        sigma = unique_match(parse_term("f(a,x1,x2)"), parse_term("f(a,b,c)"))
        assert sigma == {"x1": b, "x2": c}

    @given(terms())
    def test_identity(self, t):
        sigma = unique_match(t, t)
        assert all(sigma[v] == Var(v) for v in sigma)

    def test_variable_pattern(self):
        assert unique_match(x, App("f", (a,))) == {"x1": App("f", (a,))}

    def test_no_match_raises(self):
        with pytest.raises(ValueError):
            unique_match(a, b)


class TestGeneralizationFilter:
    def test_constant(self):
        assert generalization_filter(a) == {a, Var("x1")}

    def test_two_distinct_arguments(self):
        got = generalization_filter(App("f", (a, b)))
        expected = {
            parse_term("f(a,b)"),
            parse_term("f(x1,b)"),
            parse_term("f(a,x1)"),
            parse_term("f(x1,x2)"),
            Var("x1"),
        }
        assert got == expected

    def test_equal_arguments_can_share(self):
        got = generalization_filter(App("f", (a, a)))
        assert parse_term("f(x1,x1)") in got
        assert parse_term("f(x1,x2)") in got

    @given(terms())
    @settings(max_examples=60)
    def test_contains_generator_and_variable(self, w):
        got = generalization_filter(w)
        assert canonical_term(w) in got
        assert Var("x1") in got

    @given(terms())
    @settings(max_examples=40)
    def test_members_generalize_generator(self, w):
        for s in generalization_filter(w):
            assert generalizes(s, w) is not None


class TestInverseImage:
    def test_occurrence_subsets(self):
        got = inverse_image(App("f", (a, a)), {"x1": a})
        assert got == {
            parse_term("f(a,a)"),
            parse_term("f(x1,a)"),
            parse_term("f(a,x1)"),
            parse_term("f(x1,x1)"),
        }

    def test_empty_assignment(self):
        q = parse_term("f(a,b)")
        assert inverse_image(q, {}) == {q}

    def test_image_absent(self):
        assert inverse_image(b, {"x1": a}) == {b}

    def test_shared_image(self):
        got = inverse_image(App("g", (a,)), {"x1": a, "x2": a})
        assert got == {parse_term("g(a)"), parse_term("g(x1)"), parse_term("g(x2)")}

    @given(terms(), st.data())
    @settings(max_examples=200)
    def test_members_substitute_back(self, q, data):
        # one to three variables, the assigned ones possibly among q's own; the
        # images are subterms of q, so candidates finds them, or constants
        images = sorted({sub for _, sub in positions(q)} | {a, b}, key=str)
        names = data.draw(st.lists(st.sampled_from(["x1", "x2", "x3", "x9"]),
                                   min_size=1, max_size=3, unique=True))
        o = {name: data.draw(st.sampled_from(images)) for name in names}
        if len(names) > 1 and data.draw(st.booleans()):
            o[names[1]] = o[names[0]]  # two variables with the same image
        for t in inverse_image(q, o):
            assert substitute(t, o) == q


class TestSolveTreeEquation:
    def test_third_argument_swap(self):
        got = solve_tree_equation(f3(a, a, a), f3(a, a, a), f3(a, b, c))
        assert f3(a, c, b) in got
        assert f3(c, b, a) in got

    def test_equal_p_q_includes_r(self):
        r = f3(a, b, c)
        assert r in solve_tree_equation(f3(a, a, a), f3(a, a, a), r)

    def test_equal_p_r_includes_q(self):
        q = App("g", (a,))
        assert q in solve_tree_equation(a, q, a)

    @given(terms(), terms(), terms())
    @settings(max_examples=40, deadline=None)
    def test_solutions_pass_arrow_check(self, p, q, r):
        for u in solve_tree_equation(p, q, r):
            assert check_tree_arrow(p, q, r, u)

    def test_constants_only(self):
        assert solve_tree_equation(a, b, c) == {b}

    def test_ground_swap_set_is_exact(self):
        got = solve_tree_equation(f3(a, a, a), f3(a, a, a), f3(a, b, c))
        expected = {
            f3(*[{"a": a, "b": b, "c": c}[ch] for ch in word])
            for word in map("".join, __import__("itertools").product("abc", repeat=3))
        }
        assert got == expected


class TestChiSession:
    def test_same_pair_same_variable(self):
        chi = ChiMap()
        assert chi.var_for(a, b) == chi.var_for(a, b)

    def test_distinct_pairs_distinct_variables(self):
        chi = ChiMap()
        assert chi.var_for(a, b) != chi.var_for(b, a)

    def test_identical_variable_maps_to_itself(self):
        chi = ChiMap()
        assert chi.var_for(x, x) == x
