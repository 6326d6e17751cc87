import itertools
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
    parse_word_pattern,
)
from anaprop.decider import (
    BehaviorAutomaton,
    FragmentDecider,
    StateCapExceeded,
    behavior_automaton,
    functional_solve,
    verify_characteristic,
)
from anaprop.oracle import OracleBudgetExceeded, OracleUniverse, enumerate_terms, oracle_justifications
from anaprop.terms import (App, RewriteRule, Var, canonical_rule, parse_rule, parse_term, term_size,
                           variables)
from tests.strategies import random_algebra_pair


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
        auto = behavior_automaton(alg_a1(), k=1)
        assert auto.state_count == 1
        assert str(auto.witnesses[0]) == "x1"

    def test_unary_chain_closes(self):
        auto = behavior_automaton(alg_a2(), k=1)
        # x and f(x) behave differently; f is idempotent on its image
        assert auto.state_count == 2

    def test_k0_without_constants_is_empty(self):
        auto = behavior_automaton(alg_a1(), k=0)
        assert auto.state_count == 0

    def test_occurrence_bound_prunes(self):
        alg = FiniteAlgebra(
            name="pair",
            carrier=("0", "1"),
            ops={"f": {(x, y): "0" for x in "01" for y in "01"}},
        )
        unbounded = behavior_automaton(alg, k=1, ell=None)
        bounded = behavior_automaton(alg, k=1, ell=1)
        assert bounded.state_count <= unbounded.state_count

    def test_cap_is_enforced(self):
        with pytest.raises(StateCapExceeded):
            behavior_automaton(alg_a2(), k=1, cap=1)

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


def _quads(dec):
    first, second = dec.automaton.algebras[0], dec.automaton.algebras[-1]
    return list(itertools.product(first.carrier, first.carrier,
                                  second.carrier, second.carrier))


def _random_decider(seed):
    rng = random.Random(seed)
    first, second = random_algebra_pair(rng, max_size=3)
    try:
        return FragmentDecider(first, second, k=rng.choice([1, 2]),
                               ell=rng.choice([1, None]), cap=40)
    except StateCapExceeded:
        return None


class TestBatchAgreesWithDecide:
    """solve and enumerate_all skip the witnesses; their answers must not change."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_solve_and_enumerate_filter_decide(self, seed):
        dec = _random_decider(seed)
        if dec is None:
            return
        holding = [q for q in _quads(dec) if dec.decide_proportion(*q).holds]
        assert dec.enumerate_all() == holding
        first, second = dec.automaton.algebras[0], dec.automaton.algebras[-1]
        for a, b, c in itertools.product(first.carrier, first.carrier, second.carrier):
            assert dec.solve(a, b, c) == [d for d in second.carrier
                                          if (a, b, c, d) in holding]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_maximal_witness_is_smallest(self, seed):
        dec = _random_decider(seed)
        if dec is None:
            return
        auto = dec.automaton

        def size(state):
            return term_size(auto.witnesses[auto.index[state]])

        for a, b, c, d in _quads(dec):
            for quad in ((a, b, c, d), (b, a, d, c)):
                verdict = dec.decide_arrow(*quad)
                if verdict.reason != "maximal":
                    continue
                least, i, j = min((size(s) + size(t), auto.index[s], auto.index[t])
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
