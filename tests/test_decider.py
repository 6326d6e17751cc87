import functools
import itertools
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from anaprop.algebras import (
    FiniteAlgebra,
    IntAddition,
    NaturalMultiplication,
    WordConcatenation,
    eval_term,
    load_finite_algebra,
    parse_word_pattern,
)
from anaprop.decider import (
    BehaviorAutomaton,
    BehaviorState,
    FragmentDecider,
    StateCapExceeded,
    functional_solve,
    verify_characteristic,
)
from anaprop.oracle import (OracleBudgetExceeded, OracleUniverse, count_terms, enumerate_terms,
                            oracle_justifications)
from anaprop.terms import (App, RewriteRule, Var, canonical_rule, parse_rule, parse_term, term_size,
                           variables)
from tests.strategies import random_algebra_pair, random_finite_algebra, shaped_algebra_pair


def alg_a1():
    return FiniteAlgebra(name="A1", carrier=("a", "b", "c", "d"))


def alg_a2():
    return FiniteAlgebra(
        name="A2",
        carrier=("a", "b", "c", "d"),
        ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}},
    )


def alg_a3():
    return FiniteAlgebra(
        name="A3",
        carrier=("a", "b", "c"),
        ops={
            "f": {("a",): "b", ("b",): "b", ("c",): "c"},
            "g": {("a",): "c", ("b",): "b", ("c",): "c"},
        },
    )


def hom_pair():
    source = FiniteAlgebra(
        name="A",
        carrier=("a", "b", "c", "d"),
        ops={"g": {("a",): "b", ("b",): "b", ("c",): "d", ("d",): "d"}},
    )
    target = FiniteAlgebra(
        name="B", carrier=("e", "f"), ops={"g": {("e",): "f", ("f",): "f"}}
    )
    h = {"a": "e", "b": "f", "c": "e", "d": "f"}
    return source, target, h


class TestAutomaton:
    def test_empty_signature_single_state(self):
        auto = BehaviorAutomaton((alg_a1(),), k=1)
        assert auto.state_count == 1
        assert str(auto.witnesses[0]) == "x1"

    def test_unary_chain_closes(self):
        auto = BehaviorAutomaton((alg_a2(),), k=1)
        # x and f(x) behave differently; f is idempotent on its image
        assert auto.state_count == 2

    def test_k0_without_constants_is_empty(self):
        auto = BehaviorAutomaton((alg_a1(),), k=0)
        assert auto.state_count == 0

    def test_occurrence_bound_prunes(self):
        alg = FiniteAlgebra(
            name="pair",
            carrier=("0", "1"),
            ops={"f": {(x, y): "0" for x in "01" for y in "01"}},
        )
        unbounded = BehaviorAutomaton((alg,), k=1, ell=None)
        bounded = BehaviorAutomaton((alg,), k=1, ell=1)
        assert bounded.state_count <= unbounded.state_count

    def test_cap_is_enforced(self):
        with pytest.raises(StateCapExceeded):
            BehaviorAutomaton((alg_a2(),), k=1, cap=1)

    def test_signature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BehaviorAutomaton((alg_a1(), alg_a2()), k=1)


class TestUnaryChainAlgebras:
    def test_a1_distinct_quadruples_hold(self):
        dec = FragmentDecider(alg_a1(), k=1)
        assert dec.decide_proportion("a", "b", "c", "d").holds
        assert dec.decide_proportion("a", "c", "b", "d").holds
        assert dec.decide_proportion("a", "b", "c", "d").reason == "all-trivial"

    def test_a1_determinism_fails(self):
        dec = FragmentDecider(alg_a1(), k=1)
        verdict = dec.decide_proportion("a", "a", "a", "d")
        assert not verdict.holds
        # the shared set is empty while a -> a :. a -> a has x -> x
        assert verdict.reason == "empty-intersection"
        assert verdict.counter == "a"

    def test_a2_proportion_fails(self):
        dec = FragmentDecider(alg_a2(), k=1)
        verdict = dec.decide_proportion("a", "b", "c", "d")
        assert not verdict.holds

    def test_a2_justification_classes_empty(self):
        dec = FragmentDecider(alg_a2(), k=1)
        assert dec.justification_classes("a", "b", "c", "d") == set()

    def test_a3_arrow_not_maximal(self):
        dec = FragmentDecider(alg_a3(), k=1)
        verdict = dec.decide_arrow("a", "b", "a", "c")
        assert not verdict.holds
        assert verdict.counter == "b"
        assert not dec.decide_proportion("a", "b", "a", "c").holds

    def test_reflexive_arrow(self):
        dec = FragmentDecider(alg_a2(), k=1)
        assert dec.decide_arrow("a", "b", "a", "b").holds

    def test_enumerate_all_a1(self):
        dec = FragmentDecider(alg_a1(), k=1)
        every = set(dec.enumerate_all())
        assert ("a", "b", "c", "d") in every
        assert ("a", "a", "a", "d") not in every
        carrier = alg_a1().carrier
        import itertools

        for quad in itertools.permutations(carrier, 4):
            assert quad in every

    def test_one_element_algebra(self):
        one = FiniteAlgebra(name="one", carrier=("e",))
        dec = FragmentDecider(one, k=1)
        assert dec.enumerate_all() == [("e", "e", "e", "e")]


class TestTrivial:
    def test_identity_class_not_trivial(self):
        dec = FragmentDecider(alg_a1(), k=1)
        classes = dec.justification_classes("a", "a", "b", "b")
        assert classes
        for sigma, tau in classes:
            assert not dec.is_trivial_pair(sigma, tau)

    def test_one_element_all_trivial(self):
        one = FiniteAlgebra(name="one", carrier=("e",), constants={"c0": "e"})
        dec = FragmentDecider(one, k=1)
        for sigma, tau in dec.justification_classes("e", "e", "e", "e"):
            assert dec.is_trivial_pair(sigma, tau)


class TestHomomorphismExample:
    def test_mapped_arrows_hold(self):
        source, target, h = hom_pair()
        dec = FragmentDecider(source, target, k=1)
        assert dec.decide_arrow("a", "b", h["a"], h["b"]).holds
        assert dec.decide_arrow("c", "d", h["c"], h["d"]).holds

    def test_premise_violation_case_fails(self):
        source, target, h = hom_pair()
        dec = FragmentDecider(source, target, k=1)
        assert not dec.decide_arrow("a", "d", h["a"], h["d"]).holds

    def test_full_proportion_holds(self):
        source, target, h = hom_pair()
        dec = FragmentDecider(source, target, k=1)
        assert dec.decide_proportion("a", "b", h["a"], h["b"]).holds
        assert dec.decide_proportion("c", "d", h["c"], h["d"]).holds

    def test_solve_maps_through(self):
        source, target, h = hom_pair()
        dec = FragmentDecider(source, target, k=1)
        assert h["b"] in dec.solve("a", "b", h["a"])


class TestVerdictWitness:
    def test_witness_is_shared_justification(self):
        source, target, h = hom_pair()
        dec = FragmentDecider(source, target, k=1)
        verdict = dec.decide_proportion("a", "b", "e", "f")
        assert verdict.witness is not None
        assert verify_characteristic(verdict.witness, "a", "b", "e", "f", source, target)

    def test_witness_of_another_arrow_names_it(self):
        # a -> b :: c -> d holds only vacuously here (no non-trivial class pair
        # sends e1 to e0), so the witness comes from b -> a :: d -> c
        alg = FiniteAlgebra(name="C", carrier=("e0", "e1", "e2"),
                            constants={"c0": "e2", "c1": "e1"})
        dec = FragmentDecider(alg, k=1)
        verdict = dec.decide_proportion("e1", "e0", "e1", "e0")
        assert (verdict.holds, verdict.reason) == (True, "maximal")
        assert str(verdict.witness) == "x1 -> c1"
        assert verdict.arrow == "e0->e1 :. e0->e1"
        images = {(eval_term(verdict.witness.lhs, {"x1": x}, alg),
                   eval_term(verdict.witness.rhs, {"x1": x}, alg)) for x in alg.carrier}
        assert ("e0", "e1") in images  # justifies e0 -> e1, the named arrow
        assert ("e1", "e0") not in images  # and not e1 -> e0

    def test_witness_of_the_proportion_arrow_is_unnamed(self):
        source, target, _ = hom_pair()
        verdict = FragmentDecider(source, target, k=1).decide_proportion("a", "b", "e", "f")
        assert verdict.witness is not None and verdict.arrow is None

    def test_memoised_rules_are_the_canonical_rules(self):
        for alg in (alg_a1(), alg_a2(), alg_a3()):
            dec = FragmentDecider(alg, k=1)
            for quad in _quads(dec):
                dec.decide_proportion(*quad)  # fills the memo along the way
            witnesses = dec.automaton.witnesses
            for pid, (i, j) in enumerate(dec._index[0]):
                fresh = canonical_rule(RewriteRule(witnesses[i], witnesses[j]))
                rule = dec._smallest_rule(frozenset({pid}))
                assert rule == fresh, (alg.name, pid)
                assert rule is dec._smallest_rule(frozenset({pid}))


def _quads(dec):
    first, second = dec.automaton.algebras[0], dec.automaton.algebras[-1]
    return list(itertools.product(first.carrier, first.carrier,
                                  second.carrier, second.carrier))


def _random_draw(seed):
    """A random algebra pair on at most 3 elements, with k in 0..2 and l in {0, 1, 2, inf}."""
    rng = random.Random(seed)
    first, second = random_algebra_pair(rng, max_size=3)
    return first, second, rng.choice([0, 1, 2]), rng.choice([0, 1, 2, None])


def _random_decider(seed):
    first, second, k, ell = _random_draw(seed)
    try:
        return FragmentDecider(first, second, k=k, ell=ell, cap=40)
    except StateCapExceeded:
        return None


class TestBatchAgreesWithDecide:
    """solve and enumerate_all skip the witnesses, and enumerate_all reads arrow
    families; their answers must be those of the per-quadruple sweep."""

    @staticmethod
    def _check(dec):
        holding = [q for q in _quads(dec) if dec.decide_proportion(*q).holds]
        assert dec.enumerate_all() == holding
        first, second = dec.automaton.algebras[0], dec.automaton.algebras[-1]
        for a, b, c in itertools.product(first.carrier, first.carrier, second.carrier):
            assert dec.solve(a, b, c) == [d for d in second.carrier
                                          if (a, b, c, d) in holding]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_solve_and_enumerate_filter_decide(self, seed):
        dec = _random_decider(seed)
        if dec is not None:
            self._check(dec)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_oracle_solve_and_enumerate_filter_decide(self, seed):
        first, second, k, ell = _random_draw(seed)
        try:
            uni = OracleUniverse(first, second, k=k, ell=ell, depth=3, limit=300)
        except OracleBudgetExceeded:
            return
        self._check(uni)

    def test_with_trivial_pairs(self):
        """Draws whose trivial set is often non-empty: one-element algebras, and
        k = 2 over two elements with a binary symbol."""
        rng = random.Random(1616)
        engines = [functools.partial(FragmentDecider, cap=200),
                   functools.partial(OracleUniverse, depth=3, limit=300)]
        with_trivial = 0
        for case in range(40):
            if case % 2:
                first, second = random_algebra_pair(rng, max_size=1)
                k = rng.choice([0, 1, 2])
            else:
                first, second = shaped_algebra_pair(rng, {"h": 2}, 2)
                k = 2
            ell = rng.choice([1, 2, None])
            for engine in engines:
                try:
                    dec = engine(first, second, k=k, ell=ell)
                except (StateCapExceeded, OracleBudgetExceeded):
                    continue
                self._check(dec)
                with_trivial += bool(dec._index[2])
        assert with_trivial > 30

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_maximal_witness_is_smallest(self, seed):
        dec = _random_decider(seed)
        if dec is None:
            return
        auto = dec.automaton
        index = {state: i for i, state in enumerate(auto.states)}

        def size(state):
            return term_size(auto.witnesses[index[state]])

        for a, b, c, d in _quads(dec):
            for quad in ((a, b, c, d), (b, a, d, c)):
                verdict = dec.decide_arrow(*quad)
                if verdict.reason != "maximal":
                    continue
                least, i, j = min((size(s) + size(t), index[s], index[t])
                                  for s, t in dec.justification_classes(*quad)
                                  if not dec.is_trivial_pair(s, t))
                assert term_size(verdict.witness.lhs) + term_size(verdict.witness.rhs) == least
                # ties go to the least class pair (i, j)
                assert verdict.witness == canonical_rule(
                    RewriteRule(auto.witnesses[i], auto.witnesses[j]))
            # decide_proportion's witness is the one of the arrow it names
            proportion = dec.decide_proportion(a, b, c, d)
            inner = f"{b}->{a} :. {d}->{c}"
            if proportion.witness is not None and proportion.arrow in (None, inner):
                named = (a, b, c, d) if proportion.arrow is None else (b, a, d, c)
                assert proportion.witness == dec.decide_arrow(*named).witness


class TestOracleEnumeration:
    def test_variable_only(self):
        from anaprop.terms import Signature

        assert enumerate_terms(Signature({}), 1, None, 5) == [Var("x1")]

    def test_unary_depths(self):
        from anaprop.terms import Signature

        got = enumerate_terms(Signature({"f": 1}), 1, None, 2)
        assert got == [Var("x1"), parse_term("f(x1)"), parse_term("f(f(x1))")]

    def test_ground_constant(self):
        from anaprop.terms import Signature

        assert enumerate_terms(Signature({"a": 0}), 0, None, 1) == [App("a")]

    def test_occurrence_bound(self):
        from anaprop.terms import Signature

        got = enumerate_terms(Signature({"f": 2}), 1, 1, 3)
        assert parse_term("f(x1,x1)") not in got
        assert Var("x1") in got

    def test_budget(self):
        from anaprop.terms import Signature

        with pytest.raises(OracleBudgetExceeded):
            enumerate_terms(Signature({"f": 2, "a": 0}), 2, None, 4, limit=50)

    @staticmethod
    def _product_reference(signature, k, ell, depth, limit):
        """Every child tuple of every level in lexicographic order, dropping the
        tuples with no child from the previous level and the terms over the
        occurrence bound; the budget counts admitted terms only."""
        out, occs = [], []

        def push(term, occ):
            if ell is not None and any(n > ell for n in occ):
                return
            if len(out) >= limit:
                raise OracleBudgetExceeded
            out.append(term)
            occs.append(occ)

        for v in range(k):
            push(Var(f"x{v + 1}"), tuple(1 if i == v else 0 for i in range(k)))
        for sym in signature.constants():
            push(App(sym), (0,) * k)
        level_start = 0
        for _ in range(depth):
            new_start = len(out)
            for sym, rank in signature.symbols():
                if rank == 0:
                    continue
                for combo in itertools.product(range(new_start), repeat=rank):
                    if all(c < level_start for c in combo):
                        continue
                    occ = tuple(sum(occs[c][v] for c in combo) for v in range(k))
                    push(App(sym, tuple(out[c] for c in combo)), occ)
            if new_start == len(out):
                break
            level_start = new_start
        return out

    def test_matches_product_reference(self):
        from anaprop.terms import Signature

        def outcome(enumerate_, *args):
            try:
                return enumerate_(*args)
            except OracleBudgetExceeded:
                return "over budget"

        rng = random.Random(808)
        over = 0
        for case in range(400):
            ranks = {name: rng.randint(1, 3) for name in rng.sample("fgh", rng.randint(1, 2))}
            ranks.update((name, 0) for name in rng.sample("ab", rng.randint(0, 2)))
            signature = Signature(ranks)
            k, ell = rng.choice([0, 1, 2]), rng.choice([0, 1, 2, None])
            depth, limit = rng.randint(1, 20), rng.randint(20, 200)
            want = outcome(self._product_reference, signature, k, ell, depth, limit)
            assert outcome(enumerate_terms, signature, k, ell, depth, limit) == want, (
                case, ranks, k, ell, depth, limit)
            over += want == "over budget"
        assert 100 < over < 300

    def test_count_matches_enumeration(self):
        from anaprop.terms import Signature

        rng = random.Random(818)
        compared = 0
        for case in range(300):
            ranks = {name: rng.randint(1, 3) for name in rng.sample("fgh", rng.randint(0, 2))}
            ranks.update((name, 0) for name in rng.sample("ab", rng.randint(0, 2)))
            signature = Signature(ranks)
            k, ell = rng.choice([0, 1, 2]), rng.choice([0, 1, 2, None])
            depth = rng.randint(0, 12)
            count = count_terms(signature, k, ell, depth, limit=2000)
            if count > 2000:  # counting stopped past the limit: too many to list here
                with pytest.raises(OracleBudgetExceeded):
                    enumerate_terms(signature, k, ell, depth, limit=2000)
                continue
            assert count == len(enumerate_terms(signature, k, ell, depth)), (
                case, ranks, k, ell, depth)
            compared += 1
        assert 150 < compared < 300

    def test_count_edge_cases(self):
        from anaprop.terms import Signature

        constants = Signature({"a": 0, "b": 0})
        assert count_terms(constants, 0, None, 5) == 2
        assert count_terms(constants, 2, 1, 5) == 4
        # l = 0 keeps only ground terms: a; f(a,a); and three with f(a,a) below the root
        assert count_terms(Signature({"f": 2, "a": 0}), 2, 0, 2) == 1 + 1 + 3
        assert count_terms(Signature({"f": 1}), 0, None, 4) == 0
        assert count_terms(Signature({"f": 1}), 2, 1, 0) == 2

    def test_budget_refused_before_building(self):
        from anaprop.terms import Signature

        # a binary symbol with two variables: about 4.4 * 10^12 terms to depth 5
        with pytest.raises(OracleBudgetExceeded, match="exceeds 1000 terms"):
            enumerate_terms(Signature({"f": 2}), 2, None, 5, limit=1000)
        assert len(enumerate_terms(Signature({"f": 2}), 1, None, 2, limit=5)) == 5


# (ranks, carrier size) of the shapes random_algebra_pair never draws: a rank-3
# symbol, a signature of constants only, and 5-element carriers
_SHAPES = [({"h": 3}, 2), ({"h": 3, "c0": 0}, 3), ({"c0": 0, "c1": 0}, 5),
           ({"f": 1, "c0": 0}, 5), ({"f": 1, "g": 2}, 5)]


def _shaped_cases(seed, rounds):
    """``(algebras, k, ell)`` over every shape of ``_SHAPES``, ``rounds`` times."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for ranks, size in _SHAPES:
            first, second = shaped_algebra_pair(rng, ranks, size)
            algebras = (first,) if second is first else (first, second)
            yield algebras, rng.choice([0, 1, 2]), rng.choice([None, 0, 1, 2])


def _table_algebra(rng, name, size, ranks, values=None):
    """A random algebra on e0..e{size-1} with the given symbol ranks (rank 0: a
    constant); its operations take values among the first ``values`` elements."""
    carrier = tuple(f"e{i}" for i in range(size))
    pool = carrier[:values or size]
    return FiniteAlgebra(
        name=name, carrier=carrier,
        constants={sym: rng.choice(carrier) for sym, rank in ranks.items() if rank == 0},
        ops={sym: {args: rng.choice(pool) for args in itertools.product(carrier, repeat=rank)}
             for sym, rank in ranks.items() if rank})


def _kernel_path_cases():
    """``(algebras, k, ell, depth)`` around the sizes where a table stops fitting
    one byte per entry (a carrier over 256 elements) or an operation's argument
    codes stop fitting one byte (n ** rank over 256): a binary operation on 17
    elements, a ternary one on 7 at k = 0, a unary one with a constant on 257
    elements, and pairs whose carriers lie on either side of those sizes."""
    rng = random.Random(3)
    draw = functools.partial(_table_algebra, rng)
    yield (draw("A", 17, {"h": 2}, 2),), 1, None, 3
    yield (draw("A", 7, {"t": 3, "c0": 0}),), 0, None, 3
    yield (draw("A", 257, {"f": 1, "c0": 0}),), 1, None, 6
    yield (draw("A", 257, {"f": 1, "c0": 0}), draw("B", 4, {"f": 1, "c0": 0})), 1, None, 6
    yield (draw("A", 17, {"h": 2}, 2), draw("B", 3, {"h": 2}, 2)), 1, None, 3
    yield (draw("A", 7, {"t": 3, "c0": 0}), draw("B", 5, {"t": 3, "c0": 0})), 0, None, 2


class TestOracleTables:
    """The universe's classes from its children's tables equal those of direct evaluation."""

    @staticmethod
    def _direct(algebras, k, ell, depth, limit):
        """The literal grouping: evaluate every enumerated term from scratch."""
        terms = enumerate_terms(algebras[0].signature, k, ell, depth, limit)
        names = [f"x{i + 1}" for i in range(k)]
        states, witnesses, sizes = [], [], []
        for t in terms:
            used = variables(t)
            state = BehaviorState(
                tuple(tuple(alg.index(eval_term(t, alpha, alg)) for alpha in alg.assignments(names))
                      for alg in algebras),
                tuple(int(name in used) for name in names))
            if state not in states:
                states.append(state)
                witnesses.append(t)
                sizes.append(term_size(t))
        return states, witnesses, sizes

    def test_matches_direct_evaluation(self):
        rng = random.Random(515)
        checked = 0
        for case in range(150):
            first, second = random_algebra_pair(rng, max_size=3)
            algebras = (first,) if second is first else (first, second)
            k, ell = rng.choice([0, 1, 2]), rng.choice([None, 0, 1, 2])
            depth = rng.randint(0, 6)
            try:
                uni = OracleUniverse(first, second, k=k, ell=ell, depth=depth, limit=400)
            except OracleBudgetExceeded:
                continue
            auto = uni.automaton
            assert (auto.states, auto.witnesses, auto.sizes) == self._direct(
                algebras, k, ell, depth, 400), (case, k, ell, depth)
            checked += 1
        assert checked > 100
        shaped = 0
        for case, (algebras, k, ell) in enumerate(_shaped_cases(616, 12)):
            depth = rng.randint(0, 4)
            try:
                uni = OracleUniverse(*algebras, k=k, ell=ell, depth=depth, limit=400)
            except OracleBudgetExceeded:
                continue
            auto = uni.automaton
            assert (auto.states, auto.witnesses, auto.sizes) == self._direct(
                algebras, k, ell, depth, 400), (case, k, ell, depth)
            shaped += 1
        assert shaped > 40
        for case, (algebras, k, ell, depth) in enumerate(_kernel_path_cases()):
            auto = OracleUniverse(*algebras, k=k, ell=ell, depth=depth, limit=2000).automaton
            assert (auto.states, auto.witnesses, auto.sizes) == self._direct(
                algebras, k, ell, depth, 2000), case


class TestNegativeBound:
    def test_automaton(self):
        with pytest.raises(ValueError, match="l must be at least 0"):
            BehaviorAutomaton((alg_a2(),), k=1, ell=-1)

    def test_decider(self):
        with pytest.raises(ValueError, match="l must be at least 0"):
            FragmentDecider(alg_a2(), k=1, ell=-1)

    def test_enumerate_terms(self):
        with pytest.raises(ValueError, match="l must be at least 0"):
            enumerate_terms(alg_a2().signature, 1, -1, 3)

    def test_oracle_universe(self):
        with pytest.raises(ValueError, match="l must be at least 0"):
            OracleUniverse(alg_a2(), k=1, ell=-1, depth=3)


class TestNegativeVariableCount:
    """k = -1 is refused, with or without a constant (one used to give 0 states,
    the other a TypeError)."""

    @staticmethod
    def _algebras():
        return alg_a2(), replace(alg_a2(), constants={"c0": "a"})

    def test_automaton(self):
        for alg in self._algebras():
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                BehaviorAutomaton((alg,), k=-1)

    def test_decider(self):
        for alg in self._algebras():
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                FragmentDecider(alg, k=-1)

    def test_count_and_enumerate_terms(self):
        for alg in self._algebras():
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                count_terms(alg.signature, -1, None, 3)
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                enumerate_terms(alg.signature, -1, None, 3)

    def test_oracle_universe(self):
        for alg in self._algebras():
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                OracleUniverse(alg, k=-1, depth=3)


class TestAutomatonClosure:
    @staticmethod
    def _product_reference(algebras, k, ell, cap):
        """The closure as a product scan: every round visits every child tuple
        over the known states in lexicographic order, drops the tuples with no
        child from the last round's new states, and drops the states over the
        occurrence bound; the cap counts admitted states only."""
        signature = algebras[0].signature
        alphas = [list(itertools.product(range(len(alg.carrier)), repeat=k)) for alg in algebras]
        ops = [{sym: {tuple(alg.index(x) for x in args): alg.index(res)
                      for args, res in table.items()}
                for sym, table in alg.ops.items()} for alg in algebras]
        states, index, witnesses, sizes = [], {}, [], []

        def add(state, witness, children=()):
            if (ell is not None and any(n > ell for n in state.occ)) or state in index:
                return
            if len(states) >= cap:
                raise StateCapExceeded
            index[state] = len(states)
            states.append(state)
            witnesses.append(witness)
            sizes.append(1 + sum(sizes[c] for c in children))

        for v in range(k):
            add(BehaviorState(tuple(tuple(alpha[v] for alpha in rows) for rows in alphas),
                              tuple(int(i == v) for i in range(k))), Var(f"x{v + 1}"))
        for sym in signature.constants():
            add(BehaviorState(tuple(tuple(alg.index(alg.constants[sym]) for _ in rows)
                                    for alg, rows in zip(algebras, alphas)), (0,) * k), App(sym))
        occ_cap = 1 if ell is None else ell + 1
        frontier = set(range(len(states)))
        while frontier:
            old = len(states)
            for sym, rank in signature.symbols():
                if rank == 0:
                    continue
                for combo in itertools.product(range(old), repeat=rank):
                    if frontier.isdisjoint(combo):
                        continue
                    children = [states[c] for c in combo]
                    occ = tuple(min(sum(s.occ[v] for s in children), occ_cap) for v in range(k))
                    tables = tuple(
                        tuple(ops[m][sym][tuple(s.tables[m][j] for s in children)]
                              for j in range(len(alphas[m])))
                        for m in range(len(algebras)))
                    add(BehaviorState(tables, occ), App(sym, tuple(witnesses[c] for c in combo)),
                        combo)
            frontier = set(range(old, len(states)))
        return states, [str(w) for w in witnesses], sizes

    def test_matches_product_reference(self):
        def outcome(build, *args):
            try:
                return build(*args)
            except StateCapExceeded:
                return "over cap"

        def automaton(algebras, k, ell, cap):
            auto = BehaviorAutomaton(algebras, k, ell, cap)
            return auto.states, [str(w) for w in auto.witnesses], auto.sizes

        rng = random.Random(909)
        over = pairs = 0
        for case in range(120):
            first, second = random_algebra_pair(rng, max_size=3)
            algebras = (first,) if second is first else (first, second)
            k, ell = rng.choice([0, 1, 2]), rng.choice([None, 0, 1, 2])
            cap = rng.randint(100, 300)
            want = outcome(self._product_reference, algebras, k, ell, cap)
            assert outcome(automaton, algebras, k, ell, cap) == want, (case, k, ell, cap)
            over += want == "over cap"
            pairs += len(algebras) == 2
        assert 5 < over < 60 and 20 < pairs < 100
        over = 0
        for case, (algebras, k, ell) in enumerate(_shaped_cases(717, 12)):
            cap = rng.randint(20, 120)
            want = outcome(self._product_reference, algebras, k, ell, cap)
            assert outcome(automaton, algebras, k, ell, cap) == want, (case, k, ell, cap)
            over += want == "over cap"
        assert 0 < over < 20
        for case, (algebras, k, ell, _) in enumerate(_kernel_path_cases()):
            want = self._product_reference(algebras, k, ell, 500)
            assert automaton(algebras, k, ell, 500) == want, case


class TestPairIndex:
    @staticmethod
    def _pairwise_reference(dec):
        """The class-pair index pair by pair: each (i, j) with supp j within supp i,
        in that order, gets the next pid and joins the set of every (x, y) it hits
        in each algebra; it is trivial when it hits every (x, y) in every algebra."""
        auto = dec.automaton
        states = auto.states
        supports = [frozenset(v for v, n in enumerate(s.occ) if n) for s in states]
        carriers = [alg.carrier for alg in auto.algebras]
        by_side = [{} for _ in auto.algebras]
        pairs, trivial = [], set()
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if not supports[j] <= supports[i]:
                    continue
                pid = len(pairs)
                pairs.append((i, j))
                hits_all = True
                for m, carrier in enumerate(carriers):
                    hits = set(zip(si.tables[m], sj.tables[m]))
                    for x, y in hits:
                        by_side[m].setdefault((carrier[x], carrier[y]), set()).add(pid)
                    hits_all = hits_all and len(hits) == len(carrier) ** 2
                if hits_all:
                    trivial.add(pid)
        sides = tuple({key: frozenset(v) for key, v in by_side[m].items()} for m in dec.sides)
        return pairs, sides, frozenset(trivial)

    def _check(self, dec):
        assert dec._index == self._pairwise_reference(dec)
        pairs, sides, trivial = dec._index
        states = dec.automaton.states
        assert trivial == {pid for pid, (i, j) in enumerate(pairs)
                           if dec.is_trivial_pair(states[i], states[j])}
        # each pid is one int object, whichever sets hold it
        held = [pid for side in sides for cell in side.values() for pid in cell]
        held += trivial
        assert len({id(pid) for pid in held}) == len(set(held))

    def test_matches_pairwise_reference(self):
        rng = random.Random(1212)
        checked = empty = one_element = universes = 0
        for case in range(150):
            first, second = random_algebra_pair(rng, max_size=3)
            k, ell = rng.choice([0, 1, 2]), rng.choice([None, 0, 1, 2])
            try:
                dec = FragmentDecider(first, second, k=k, ell=ell, cap=60)
            except StateCapExceeded:
                continue
            self._check(dec)
            checked += 1
            empty += dec.state_count == 0
            one_element += min(len(first.carrier), len(second.carrier)) == 1
            if case % 3 == 0:
                try:
                    uni = OracleUniverse(first, second, k=k, ell=ell, depth=3, limit=300)
                except OracleBudgetExceeded:
                    continue
                self._check(uni)
                universes += 1
        assert checked > 100 and empty > 0 and one_element > 0 and universes > 20
        root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "algebras")
        gpair = tuple(load_finite_algebra(os.path.join(root, f"gpair_{side}.json"))
                      for side in ("source", "target"))
        for pair in [(alg_a1(), None), (alg_a2(), None), (alg_a3(), None), gpair]:
            for k, ell in itertools.product([0, 1, 2], [None, 1]):
                self._check(FragmentDecider(*pair, k=k, ell=ell))

    def test_decider_indexes_on_its_first_query(self):
        queries = [lambda dec: dec.justification_classes("a", "b", "c", "d"),
                   lambda dec: dec.decide_arrow("a", "b", "c", "d"),
                   lambda dec: dec.decide_proportion("a", "b", "c", "d"),
                   lambda dec: dec.solve("a", "b", "c"),
                   lambda dec: dec.enumerate_all()]
        for query in queries:
            dec = FragmentDecider(alg_a2(), k=1)
            assert dec.state_count > 0 and "_index" not in vars(dec)
            query(dec)
            assert "_index" in vars(dec)

    def test_oracle_indexes_at_construction(self):
        assert "_index" in vars(OracleUniverse(alg_a2(), k=1, depth=3))


class TestOracleJustifications:
    def test_a2_arrow_a_b(self):
        got = oracle_justifications("a", "b", alg_a2(), k=1, ell=None, depth=3)
        expected = {
            parse_rule("x1 -> f(x1)"),
            parse_rule("x1 -> f(f(x1))"),
            parse_rule("x1 -> f(f(f(x1)))"),
        }
        assert got == expected

    def test_a1_reflexive_arrow(self):
        assert oracle_justifications("a", "a", alg_a1(), k=1, ell=None, depth=3) == {
            parse_rule("x1 -> x1")
        }

    def test_a1_distinct_empty(self):
        assert oracle_justifications("a", "d", alg_a1(), k=1, ell=None, depth=3) == set()

    def test_upward_closed_under_shared_substitution(self):
        # justification sets are principal filters for the ordering where one
        # substitution instantiates both sides of a rule at once
        from anaprop.oracle import enumerate_terms
        from anaprop.terms import RewriteRule, generalizes, variables

        def shared_instance(r1, r2):
            pair1 = App("%pair", (r1.lhs, r1.rhs))
            pair2 = App("%pair", (r2.lhs, r2.rhs))
            return generalizes(pair2, pair1) is not None

        for alg, (a, b) in [(alg_a2(), ("a", "b")), (alg_a3(), ("a", "c"))]:
            justs = oracle_justifications(a, b, alg, k=1, ell=None, depth=3)
            terms = enumerate_terms(alg.signature, 1, None, 3)
            universe = [
                RewriteRule(s, t)
                for s in terms
                for t in terms
                if variables(t) <= variables(s)
            ]
            for rule in justs:
                for other in universe:
                    if shared_instance(rule, other):
                        assert other in justs, (rule, other)

    def test_matches_direct_evaluation(self):
        rng = random.Random(717)
        for case in range(30):
            alg = random_finite_algebra(rng, max_size=3)
            k, ell, depth = rng.choice([0, 1, 2]), rng.choice([None, 1]), rng.randint(1, 2)
            terms = enumerate_terms(alg.signature, k, ell, depth)
            if len(terms) > 80:
                continue
            alphas = list(alg.assignments([f"x{i + 1}" for i in range(k)]))
            values = [[eval_term(t, alpha, alg) for alpha in alphas] for t in terms]
            for a, b in itertools.product(alg.carrier, repeat=2):
                want = {RewriteRule(s, t)
                        for (s, vs), (t, vt) in itertools.product(zip(terms, values), repeat=2)
                        if variables(t) <= variables(s) and (a, b) in zip(vs, vt)}
                assert oracle_justifications(a, b, alg, k, ell, depth) == want, (case, a, b)

    def test_componentwise_order_is_not_upward_closed(self):
        # regression: with independent substitutions per side, upward closure
        # fails (the negation algebra separates the two readings)
        from anaprop.terms import rule_generalizes

        neg = FiniteAlgebra(
            name="neg", carrier=("0", "1"), ops={"f": {("0",): "1", ("1",): "0"}}
        )
        justs = oracle_justifications("0", "0", neg, k=1, ell=None, depth=3)
        inside = parse_rule("f(x1) -> f(x1)")
        outside = parse_rule("f(x1) -> x1")
        assert inside in justs
        assert rule_generalizes(inside, outside)
        assert outside not in justs


class TestOracleDecide:
    def test_matches_decider_on_examples(self):
        for alg, quad in [
            (alg_a1(), ("a", "b", "c", "d")),
            (alg_a1(), ("a", "a", "a", "d")),
            (alg_a2(), ("a", "b", "c", "d")),
            (alg_a3(), ("a", "b", "a", "c")),
        ]:
            dec = FragmentDecider(alg, k=1)
            uni = OracleUniverse(alg, k=1, depth=dec.state_count)
            # every field but the witness, which may be another least rule of the shared set
            mine, ref = dec.decide_proportion(*quad), uni.decide(*quad)
            assert replace(mine, witness=None) == replace(ref, witness=None)


class TestRandomEquivalence:
    def test_small_random_suite(self):
        rng = random.Random(2024)
        cases = 0
        while cases < 12:
            pack = _feasible_case(rng)
            if pack is None:
                continue
            dec, uni = pack
            cases += 1
            first, second = dec.automaton.algebras[0], dec.automaton.algebras[-1]
            for a in first.carrier:
                for b in first.carrier:
                    for c in second.carrier:
                        for d in second.carrier:
                            mine = dec.decide_proportion(a, b, c, d)
                            ref = uni.decide(a, b, c, d)
                            # every field but the witness (see TestOracleDecide)
                            assert replace(mine, witness=None) == replace(ref, witness=None), (
                                first, second, dec.automaton.k, dec.automaton.ell, (a, b, c, d)
                            )


class TestLiteralReference:
    """The arrow definition of Antić, *Analogical proportions* (2022), transcribed
    over explicit sets of rewrite rules; no behavior classes are involved."""

    CASES = 40
    TERM_LIMIT = 300

    @staticmethod
    def _justifications(terms, algebra):
        """Jus(x -> y) of every arrow of ``algebra``, as sets of rules over ``terms``."""
        values = [[eval_term(t, {"x1": x}, algebra) for x in algebra.carrier] for t in terms]
        uses_x1 = ["x1" in variables(t) for t in terms]
        jus = {(x, y): set() for x in algebra.carrier for y in algebra.carrier}
        for i, s in enumerate(terms):
            for j, t in enumerate(terms):
                if uses_x1[j] and not uses_x1[i]:
                    continue
                rule = RewriteRule(s, t)
                for hit in set(zip(values[i], values[j])):
                    jus[hit].add(rule)
        return jus

    @staticmethod
    def _arrow(lhs_jus, rhs_jus, trivial, a, b, c, d, carrier):
        """``(holds, reason, counter, shared)`` of ``a -> b :. c -> d`` by the definition."""
        lhs = lhs_jus[a, b]
        if lhs | rhs_jus[c, d] <= trivial:
            return True, "all-trivial", None, set()
        shared = (lhs & rhs_jus[c, d]) - trivial
        larger = [d2 for d2 in carrier if shared < (lhs & rhs_jus[c, d2]) - trivial]
        counter = larger[0] if larger else None
        if not shared:
            return False, "empty-intersection", counter, shared
        if larger:
            return False, "not-maximal", counter, shared
        return True, "maximal", None, shared

    def test_arrows_match_the_definition(self):
        rng = random.Random(404)
        cases = arrows = 0
        while cases < self.CASES:
            first, second = random_algebra_pair(rng, max_size=3)
            ell = rng.choice([1, None])
            try:
                dec = FragmentDecider(first, second, k=1, ell=ell, cap=300)
                terms = enumerate_terms(first.signature, 1, ell, dec.state_count,
                                        limit=self.TERM_LIMIT)
            except (StateCapExceeded, OracleBudgetExceeded):
                continue
            cases += 1
            jus = [self._justifications(terms, alg) for alg in (first, second)]
            trivial = set.intersection(*(rules for side in jus for rules in side.values()))
            for swap in (False, True):
                left, right = (jus[1], jus[0]) if swap else (jus[0], jus[1])
                lefts, rights = (second, first) if swap else (first, second)
                for a, b in itertools.product(lefts.carrier, repeat=2):
                    for c, d in itertools.product(rights.carrier, repeat=2):
                        *want, shared = self._arrow(left, right, trivial, a, b, c, d,
                                                    rights.carrier)
                        got = dec.decide_arrow(a, b, c, d, swap=swap)
                        assert (got.holds, got.reason, got.counter) == tuple(want), (
                            first, second, ell, swap, (a, b, c, d))
                        if got.reason == "maximal":
                            assert got.witness in shared, (got.witness, (a, b, c, d))
                        arrows += 1
        assert arrows > self.CASES


def _feasible_case(rng, max_states=40, term_limit=1500):
    first, second = random_algebra_pair(rng, max_size=3)
    k = rng.choice([1, 2])
    ell = rng.choice([1, None])
    try:
        dec = FragmentDecider(first, second, k=k, ell=ell, cap=max_states)
    except StateCapExceeded:
        return None
    if dec.state_count == 0:
        return None
    try:
        uni = OracleUniverse(first, second, k=k, ell=ell, depth=dec.state_count,
                             limit=term_limit)
    except OracleBudgetExceeded:
        return None
    return dec, uni


class TestDeciderAxioms:
    def test_symmetry_family(self):
        rng = random.Random(11)
        checked = 0
        while checked < 6:
            first, second = random_algebra_pair(rng, max_size=3)
            try:
                fwd = FragmentDecider(first, second, k=1, cap=300)
                bwd = FragmentDecider(second, first, k=1, cap=300)
            except StateCapExceeded:
                continue
            checked += 1
            for a in first.carrier:
                for b in first.carrier:
                    for c in second.carrier:
                        for d in second.carrier:
                            v = fwd.decide_proportion(a, b, c, d).holds
                            assert v == bwd.decide_proportion(c, d, a, b).holds
                            assert v == fwd.decide_proportion(b, a, d, c).holds

    def test_reflexivity_family(self):
        rng = random.Random(12)
        checked = 0
        while checked < 6:
            first, _ = random_algebra_pair(rng, max_size=3)
            try:
                dec = FragmentDecider(first, k=1, cap=300)
            except StateCapExceeded:
                continue
            checked += 1
            for a in first.carrier:
                for b in first.carrier:
                    assert dec.decide_proportion(a, b, a, b).holds
                    assert dec.decide_proportion(a, a, b, b).holds


class TestIsomorphismInvariance:
    def test_transport_preserves_relation(self):
        rng = random.Random(13)
        checked = 0
        while checked < 5:
            alg, _ = random_algebra_pair(rng, max_size=3)
            perm = list(alg.carrier)
            rng.shuffle(perm)
            iso = dict(zip(alg.carrier, perm))
            other = _transport(alg, iso)
            try:
                dec = FragmentDecider(alg, k=1, cap=300)
                dec2 = FragmentDecider(other, k=1, cap=300)
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


def _transport(alg, iso):
    return FiniteAlgebra(
        name=alg.name + "_iso",
        carrier=alg.carrier,
        constants={sym: iso[e] for sym, e in alg.constants.items()},
        ops={
            sym: {
                tuple(iso[a] for a in args): iso[res] for args, res in table.items()
            }
            for sym, table in alg.ops.items()
        },
    )


class TestMonotonicity:
    def test_adding_operation_preserves_nontrivial_quadruple(self):
        base = alg_a2()
        extended = FiniteAlgebra(
            name="A2x",
            carrier=base.carrier,
            ops=dict(
                base.ops,
                h={(e,): e for e in base.carrier},
            ),
        )
        dec = FragmentDecider(base, k=1)
        dec2 = FragmentDecider(extended, k=1)
        held = [q for q in dec.enumerate_all()
                if dec.decide_proportion(*q).reason == "maximal"]
        assert held
        for quad in held:
            assert dec2.decide_proportion(*quad).holds


class TestVerifyCharacteristic:
    def test_nmul_worked_example_rules(self):
        nmul = NaturalMultiplication()
        assert verify_characteristic(parse_rule("*(10,x1) -> *(2,x1)"), 20, 4, 30, 6, nmul)
        assert verify_characteristic(parse_rule("*(10,x1) -> *(x1,x1)"), 20, 4, 30, 9, nmul)
        assert not verify_characteristic(parse_rule("*(10,x1) -> *(2,x1)"), 20, 4, 30, 9, nmul)

    def test_zplus_doubling(self):
        zplus = IntAddition()
        assert verify_characteristic(parse_rule("x1 -> +(x1,x1)"), 2, 4, 3, 6, zplus, full=True)

    def test_word_replacement(self):
        w = WordConcatenation("abc", allow_empty=True)
        rule = RewriteRule(parse_word_pattern(w, "x1bx2"), parse_word_pattern(w, "x1cx2"))
        assert verify_characteristic(rule, "ab", "ac", "bc", "cc", w)
        # the full four-way uniqueness fails: cc has two matches against x1cx2
        assert not verify_characteristic(rule, "ab", "ac", "bc", "cc", w, full=True)

    def test_identity_rule(self):
        dec_alg = alg_a1()
        assert verify_characteristic(parse_rule("x1 -> x1"), "a", "a", "c", "c", dec_alg)

    def test_finite_matches_decider(self):
        alg = alg_a2()
        rule = parse_rule("x1 -> f(x1)")
        assert verify_characteristic(rule, "a", "b", "a", "b", alg)
        dec = FragmentDecider(alg, k=1)
        assert dec.decide_arrow("a", "b", "a", "b").holds


class TestFunctionalSolve:
    def test_translation(self):
        zplus = IntAddition()
        out = functional_solve(parse_term("+(x1,5)"), 2, 7, zplus)
        assert out is not None
        b, d, rule = out
        assert (b, d) == (7, 12)
        assert str(rule) == "x1 -> +(x1,5)"

    def test_identity(self):
        zplus = IntAddition()
        out = functional_solve(Var("x1"), 3, 9, zplus)
        assert out is not None and out[:2] == (3, 9)

    def test_word_context(self):
        w = WordConcatenation("aefbc")
        out = functional_solve(parse_word_pattern(w, "ex1f"), "a", "cb", w)
        assert out is not None
        b, d, _ = out
        assert (b, d) == ("eaf", "ecbf")

    def test_non_unique_image_fails(self):
        nmul = NaturalMultiplication()
        w = WordConcatenation("abc")
        # a*a over words: x1x1 pattern has unique decomposition, so use a word
        # pattern whose image is ambiguous instead
        out = functional_solve(parse_word_pattern(w, "x1c"), "c", "cc", w)
        # value for a=c is "cc": matches x1="c"; unique -> present
        assert out is not None

    def test_requires_single_variable(self):
        with pytest.raises(ValueError):
            functional_solve(parse_term("+(x1,x2)"), 1, 2, IntAddition())
