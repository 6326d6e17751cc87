import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from anaprop.algebras import FiniteAlgebra, NaturalMultiplication, eval_term
from anaprop.antiunify import (
    bounded_gens,
    common_gens,
    instance_subset,
    mgg,
    monomial,
    monomial_gens,
    monomial_term,
)
from anaprop.oracle import enumerate_terms
from anaprop.terms import Var, canonical_term, parse_term, variables
from tests.strategies import random_finite_algebra

nats = st.integers(min_value=2, max_value=300)


def m(coeff, *exps):
    return monomial(coeff, *exps)


UP_4 = {m(4), m(2, 1), m(1, 1, 1), m(1, 2), m(1, 1)}

UP_20 = {
    m(20), m(10, 1), m(5, 2),
    m(4, 1), m(5, 1, 1),
    m(2, 1, 1), m(1, 1, 1, 1),
    m(2, 1), m(5, 1), m(1, 1, 1),
    m(1, 2, 1), m(1, 1),
}

UP_30 = {
    m(30), m(15, 1),
    m(10, 1), m(6, 1), m(5, 1, 1),
    m(2, 1, 1), m(3, 1, 1), m(1, 1, 1, 1),
    m(2, 1), m(5, 1), m(1, 1, 1),
    m(3, 1), m(1, 1),
}


class TestMonomialGens:
    def test_table_for_4(self):
        assert monomial_gens(4) == UP_4

    def test_table_for_20(self):
        assert monomial_gens(20) == UP_20
        assert len(UP_20) == 12

    def test_table_for_30(self):
        assert monomial_gens(30) == UP_30

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 17]))
    def test_primes(self, p):
        assert monomial_gens(p) == {m(p), m(1, 1)}

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            monomial_gens(1)

    @given(nats)
    @settings(max_examples=60, deadline=None)
    def test_every_member_evaluates_back(self, n):
        # cross-checked through the algebra-side divisor solver, an
        # independent code path from the enumeration itself
        from anaprop.algebras import solution_set

        alg = NaturalMultiplication()
        for mono in monomial_gens(n):
            term = monomial_term(mono)
            sols = solution_set(term, n, alg)
            assert sols, (n, mono)
            for alpha in sols:
                assert eval_term(term, alpha, alg) == n


class TestCommonGens:
    def test_20_meet_30(self):
        assert common_gens(20, 30) == {
            m(10, 1), m(2, 1, 1), m(5, 1, 1), m(1, 1, 1, 1),
            m(2, 1), m(5, 1), m(1, 1, 1), m(1, 1),
        }

    @given(nats)
    def test_self_intersection(self, a):
        assert common_gens(a, a) == monomial_gens(a)

    def test_4_meet_9(self):
        assert common_gens(4, 9) == {m(1, 1, 1), m(1, 2), m(1, 1)}


class TestInstanceSubset:
    def test_coefficient_refinement(self):
        assert instance_subset(m(10, 1), m(2, 1))
        assert not instance_subset(m(2, 1), m(10, 1))

    @given(st.integers(1, 50), st.integers(0, 3))
    def test_reflexive(self, c, v):
        if c == 1 and v == 0:
            return
        mono = m(c, *([1] * v))
        assert instance_subset(mono, mono)

    def test_variable_count(self):
        assert not instance_subset(m(2, 1), m(2, 1, 1))
        assert instance_subset(m(2, 1, 1), m(2, 1))

    def test_square_into_product(self):
        assert instance_subset(m(1, 2), m(1, 1, 1))
        assert not instance_subset(m(1, 1, 1), m(1, 2))

    def test_ground_membership(self):
        assert instance_subset(m(20), m(10, 1))
        assert not instance_subset(m(20), m(1, 2))

    def test_nothing_below_ground_but_itself(self):
        assert not instance_subset(m(2, 1), m(4))

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=120, deadline=None)
    def test_matches_exact_downset_membership(self, c1, c2, v1, v2):
        if (c1 == 1 and v1 == 0) or (c2 == 1 and v2 == 0):
            return
        _cross_check_inclusion(m(c1, *([1] * v1)), m(c2, *([1] * v2)))

    def test_matches_exact_downset_membership_with_exponents(self):
        candidates = [m(1, 2), m(1, 2, 1), m(2, 2), m(1, 1, 1), m(2, 1), m(4, 1),
                      m(1, 3), m(2, 1, 1), m(6), m(8), m(1, 1)]
        for m1 in candidates:
            for m2 in candidates:
                _cross_check_inclusion(m1, m2)

    def test_transitive_on_examples(self):
        chain = [m(10, 1), m(2, 1), m(1, 1)]
        assert instance_subset(chain[0], chain[1])
        assert instance_subset(chain[1], chain[2])
        assert instance_subset(chain[0], chain[2])


def _in_downset(n, mono):
    """Exact membership of n in the value set of mono (divisor recursion)."""
    from anaprop.antiunify import _realizable

    if n % mono.coeff:
        return False
    return _realizable(n // mono.coeff, mono.exps)


def _cross_check_inclusion(m1, m2, bound=6000):
    """Compare the covering-certificate decision with direct value membership.

    A claimed inclusion is checked on every small value of m1; a claimed
    non-inclusion must exhibit a concrete separating value.
    """
    claimed = instance_subset(m1, m2)
    values1 = [n for n in range(2, bound) if _in_downset(n, m1)]
    if claimed:
        assert all(_in_downset(n, m2) for n in values1), (m1, m2)
    else:
        assert any(not _in_downset(n, m2) for n in values1), (m1, m2)


def _power_products(exps, bound):
    """Every product o1^e1 * ... * ov^ev <= bound with all oi >= 2."""
    out = {1}
    for e in exps:
        grown = set()
        for p in out:
            o = 2
            while p * o ** e <= bound:
                grown.add(p * o ** e)
                o += 1
        out = grown
    return out


class TestRealizable:
    BOUND = 1000

    def test_matches_brute_force(self):
        from anaprop.antiunify import _exponent_multisets, _realizable

        products = {}
        checked = realizable = 0
        for n in range(1, self.BOUND + 1):
            for exps in _exponent_multisets(n):
                if exps not in products:
                    products[exps] = _power_products(exps, self.BOUND)
                assert _realizable(n, exps) == (n in products[exps]), (n, exps)
                checked += 1
                realizable += n in products[exps]
        assert checked > 40000 and 0 < realizable < checked

    def test_no_exponents(self):
        from anaprop.antiunify import _realizable

        assert _realizable(1, ())
        assert not _realizable(2, ())


class TestMgg:
    def test_worked_example(self):
        assert mgg(20, 30) == {m(10, 1)}

    def test_equal_arguments_give_the_constant(self):
        assert mgg(12, 12) == {m(12)}

    def test_4_and_9(self):
        assert mgg(4, 9) == {m(1, 2)}

    @given(nats, nats)
    @settings(max_examples=40, deadline=None)
    def test_antichain(self, a, b):
        out = mgg(a, b)
        assert out
        for p in out:
            for q in out:
                if p != q:
                    assert not (instance_subset(p, q) and not instance_subset(q, p))

    @given(nats, nats)
    @settings(max_examples=40, deadline=None)
    def test_subset_of_common_gens(self, a, b):
        gens = common_gens(a, b)
        assert mgg(a, b) == mgg(a, b, gens) <= gens

    def test_matches_pairwise_minima(self):
        rng = random.Random(19)
        pairs = [(20, 30), (378, 168), (1080, 1512)] + [
            (rng.randint(2, 2000), rng.randint(2, 2000)) for _ in range(25)]
        for a, b in pairs:
            gens = common_gens(a, b)
            minima = {g for g in gens if not any(
                instance_subset(o, g) and not instance_subset(g, o) for o in gens)}
            assert mgg(a, b) == minima, (a, b)


class TestRendering:
    def test_strings(self):
        assert str(m(10, 1)) == "10x"
        assert str(m(1, 1, 1)) == "xy"
        assert str(m(1, 2)) == "x^2"
        assert str(m(1, 2, 1)) == "x^2y"
        assert str(m(20)) == "20"

    def test_term_conversion(self):
        assert str(monomial_term(m(10, 1))) == "*(10,x1)"
        assert str(monomial_term(m(1, 2))) == "*(x1,x1)"


class TestBoundedGens:
    def test_unary_chain(self):
        alg = FiniteAlgebra(
            name="A2",
            carrier=("a", "b", "c", "d"),
            ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}},
        )
        got = bounded_gens(["b"], alg, k=1, depth=2)
        assert got == {
            Var("x1"),
            parse_term("f(x1)"),
            parse_term("f(f(x1))"),
        }

    def test_variable_only_signature(self):
        alg = FiniteAlgebra(name="bare", carrier=("a", "b"))
        assert bounded_gens(["a"], alg, k=1, depth=3) == {Var("x1")}

    def test_depth_zero_not_distinguished(self):
        alg = FiniteAlgebra(name="bare", carrier=("a", "b"), constants={"c0": "b"})
        assert bounded_gens(["a"], alg, k=1, depth=0) == {Var("x1")}

    def test_a_single_string_is_refused(self):
        alg = FiniteAlgebra(name="bare", carrier=("e0", "e1"))
        with pytest.raises(TypeError, match="sequence of values"):
            bounded_gens("e0", alg, k=1, depth=1)
        assert bounded_gens(["e0"], alg, k=1, depth=1) == {Var("x1")}

    def test_matches_direct_evaluation(self):
        rng = random.Random(616)
        for case in range(40):
            alg = random_finite_algebra(rng, max_size=3)
            k, depth = rng.choice([0, 1, 2]), rng.randint(0, 2)
            terms = enumerate_terms(alg.signature, k, None, depth)
            want = {value: {canonical_term(t) for t in terms
                            if any(eval_term(t, alpha, alg) == value
                                   for alpha in alg.assignments(sorted(variables(t))))}
                    for value in alg.carrier}
            for value in alg.carrier:
                assert bounded_gens([value], alg, k, depth) == want[value], (case, k, depth, value)
            # several values: the terms that can reach each of them
            for pair in itertools.product(alg.carrier, repeat=2):
                assert bounded_gens(pair, alg, k, depth) == want[pair[0]] & want[pair[1]], (
                    case, k, depth, pair)
