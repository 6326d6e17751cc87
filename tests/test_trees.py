import itertools
import random
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings, strategies as st

from anaprop.terms import (App, Position, Term, Var, canonical_term, fresh_renaming, generalizes,
                           parse_term, positions, replace_at, substitute, subterm_at, term_size,
                           variables)
from anaprop.trees import (
    ChiMap,
    check_tree_arrow,
    check_tree_proportion,
    lgg,
    solve_tree_equation,
)
from tests.strategies import terms

a, b, c = App("a"), App("b"), App("c")
x, y = Var("x1"), Var("x2")


def f3(*args):
    return App("f", tuple(args))


# ---------------------------------------------------------------------------
# The reference: literal copies of the tree solver's generalization walk and of
# the tree check's fresh-variable comparison, which the disagreement pairs of
# lgg replaced in ``anaprop.trees``.


def fresh_vars(context: Iterable[Term], term: Term) -> set[str]:
    """Variables of ``term`` that do not occur in any context term."""
    out = variables(term)
    for t in context:
        out -= variables(t)
    return out


def _reference_fresh_pair(p: Term, q: Term, r: Term, u: Term) -> tuple[set[str], set[str]]:
    """Fresh variables of lgg(p, r) and of lgg(q, u) under one pair-variable map."""
    chi = ChiMap()
    context = [p, q, r, u]
    chi.reserve(context)
    left = lgg(p, r, chi)
    right = lgg(q, u, chi)
    return fresh_vars(context, left), fresh_vars(context, right)


def unique_match(pattern: Term, instance: Term) -> dict[str, Term]:
    """The unique assignment sending ``pattern`` to ``instance``."""
    sigma = generalizes(pattern, instance)
    if sigma is None:
        raise ValueError(f"{pattern} does not generalize {instance}")
    return sigma


def _antichains(t: Term, pos: Position = ()) -> list[frozenset[Position]]:
    """All antichains of positions of ``t`` (pairwise disjoint subtrees)."""
    out = [frozenset(), frozenset([pos])]
    if isinstance(t, App) and t.args:
        children = [_antichains(a, pos + (i,)) for i, a in enumerate(t.args)]
        for combo in itertools.product(*children):
            merged = frozenset().union(*combo)
            if merged:
                out.append(merged)
    return out


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def generalization_filter(w: Term) -> set[Term]:
    """All generalizations of ``w``, canonically renamed.

    A generalization picks an antichain of positions to abstract and groups
    positions holding equal subterms into shared variables, in every
    consistent way.
    """
    out: set[Term] = set()
    seen_antichains: set[frozenset[Position]] = set()
    for antichain in _antichains(w):
        if antichain in seen_antichains:
            continue
        seen_antichains.add(antichain)
        by_subterm: dict[Term, list[Position]] = {}
        for pos in antichain:
            by_subterm.setdefault(subterm_at(w, pos), []).append(pos)
        group_partitions = [
            list(_set_partitions(sorted(posns))) for posns in by_subterm.values()
        ]
        for combo in itertools.product(*group_partitions):
            term = w
            n = 0
            for blocks in combo:
                for block in blocks:
                    n += 1
                    v = Var(f"_g{n}")
                    for pos in block:
                        term = replace_at(term, pos, v)
            out.add(canonical_term(term))
    return out


def inverse_image(q: Term, assignment: dict[str, Term]) -> set[Term]:
    """All terms ``t`` over the assigned variables with ``substitute(t, o) == q``."""

    def candidates(sub: Term) -> list[Term]:
        outs: list[Term] = [Var(x) for x, img in assignment.items() if img == sub]
        if isinstance(sub, Var):
            if sub.name not in assignment:
                outs.append(sub)
        else:
            assert isinstance(sub, App)
            for combo in itertools.product(*(candidates(a) for a in sub.args)):
                outs.append(App(sub.symbol, combo))
        return outs

    return set(candidates(q))


def _reference_solve_tree(p: Term, q: Term, r: Term) -> set[Term]:
    """The solutions of ``p -> q :: r -> x`` by the walk over every
    generalization of lgg(p, r): the inverse images of ``q`` under the match
    with ``p``, instantiated at the match with ``r``."""
    chi = ChiMap()
    chi.reserve([p, q, r])
    avoid = variables(p) | variables(q) | variables(r)
    out: set[Term] = set()
    for s in generalization_filter(lgg(p, r, chi)):
        s = substitute(s, fresh_renaming([s], avoid))
        to_p = unique_match(s, p)
        to_r = unique_match(s, r)
        for t in inverse_image(q, to_p):
            out.add(substitute(t, to_r))
    return out


SWEEP_SYMBOLS = [("f", 2), ("g", 1), ("h", 3)]
# the walk is exponential in lgg(p, r); above this size one triple can take minutes
SWEEP_MAX_LGG_SIZE = 10


def _random_tree(rng: random.Random, depth: int, leaves: list[Term]) -> Term:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)
    symbol, rank = rng.choice(SWEEP_SYMBOLS)
    return App(symbol, tuple(_random_tree(rng, depth - 1, leaves) for _ in range(rank)))


def sweep_triples(seed: int, count: int) -> list[tuple[Term, Term, Term]]:
    """Seeded triples over f/2, g/1, h/3 and a, b, c, of depth at most 2: a
    quarter also use the variables x1 and x2, and a fifth have r = p."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        leaves = [a, b, c] + ([x, y] if rng.random() < 0.25 else [])
        p, q = _random_tree(rng, 2, leaves), _random_tree(rng, 2, leaves)
        r = p if rng.random() < 0.2 else _random_tree(rng, 2, leaves)
        if term_size(lgg(p, r)) <= SWEEP_MAX_LGG_SIZE:
            out.append((p, q, r))
    return out


class TestReference:
    def test_solver_matches_walk_on_sweep(self):
        for p, q, r in sweep_triples(2026, 1500):
            assert solve_tree_equation(p, q, r) == _reference_solve_tree(p, q, r), (p, q, r)

    @given(terms(), terms(), terms())
    @settings(max_examples=150, deadline=None)
    def test_solver_matches_walk(self, p, q, r):
        assert solve_tree_equation(p, q, r) == _reference_solve_tree(p, q, r)

    @given(terms(), terms())
    @settings(max_examples=100, deadline=None)
    def test_solver_matches_walk_with_r_equal_p(self, p, q):
        assert solve_tree_equation(p, q, p) == _reference_solve_tree(p, q, p)

    def test_checks_match_fresh_variables_on_sweep(self):
        rng = random.Random(7)
        held = 0
        for p, q, r in sweep_triples(26, 400):
            # a solution of the arrow half of the time, so that both answers occur
            sols = sorted(_reference_solve_tree(p, q, r), key=str)
            u = rng.choice(sols) if rng.random() < 0.5 else _random_tree(rng, 2, [a, b, c, x])
            left, right = _reference_fresh_pair(p, q, r, u)
            assert check_tree_arrow(p, q, r, u) == (right <= left), (p, q, r, u)
            assert check_tree_proportion(p, q, r, u) == (right == left), (p, q, r, u)
            held += right <= left
        assert 100 < held < 400

    @given(terms(), terms(), terms(), terms())
    @settings(max_examples=200)
    def test_checks_match_fresh_variables(self, p, q, r, u):
        left, right = _reference_fresh_pair(p, q, r, u)
        assert check_tree_arrow(p, q, r, u) == (right <= left)
        assert check_tree_proportion(p, q, r, u) == (right == left)


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

    def test_every_disagreement_subset(self):
        # D(p, r) = {(a, b)}: each of the six a's of q may become b on its own
        fs = [parse_term(t) for t in ("f(a,a)", "f(a,b)", "f(b,a)", "f(b,b)")]
        q = parse_term("h(f(a,a),f(a,a),f(a,a))")
        got = solve_tree_equation(q, q, parse_term("h(f(b,b),f(b,b),f(b,b))"))
        assert got == {App("h", args) for args in itertools.product(fs, repeat=3)}
        assert len(got) == 64

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
