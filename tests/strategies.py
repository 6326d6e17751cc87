"""Shared hypothesis strategies and random generators for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from anaprop.terms import App, Signature, Term, Var, substitute

DEFAULT_SIG = Signature({"f": 2, "g": 1, "a": 0, "b": 0})


def terms(signature: Signature = DEFAULT_SIG, max_vars: int = 3) -> st.SearchStrategy[Term]:
    names = [f"x{i}" for i in range(1, max_vars + 1)]
    constants = [App(s) for s, r in signature.symbols() if r == 0]
    leaves = st.sampled_from([Var(n) for n in names] + constants)
    functional = [(s, r) for s, r in signature.symbols() if r > 0]

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        return st.sampled_from(functional).flatmap(
            lambda sr: st.tuples(*([children] * sr[1])).map(lambda args: App(sr[0], args))
        )

    return st.recursive(leaves, extend, max_leaves=6)


def substitutions(signature: Signature = DEFAULT_SIG) -> st.SearchStrategy[dict[str, Term]]:
    return st.dictionaries(
        st.sampled_from(["x1", "x2", "x3"]), terms(signature), max_size=3
    )


def instances_of(pattern_strategy: st.SearchStrategy) -> st.SearchStrategy:
    """Pairs/chains (t, t sigma): the result extends the input tuple by one instance."""

    def apply(args):
        prev, sigma = args
        chain = (prev,) if isinstance(prev, Term) else prev
        return chain + (substitute(chain[-1], sigma),)

    return st.tuples(pattern_strategy, substitutions()).map(apply)


# ---------------------------------------------------------------------------
# Random finite algebras (plain `random` based, for the big seeded suites).

def random_finite_algebra(rng: random.Random, max_size: int = 4,
                          max_symbols: int = 2, max_arity: int = 2,
                          name: str = "rand"):
    from anaprop.algebras import FiniteAlgebra

    size = rng.randint(1, max_size)
    carrier = tuple(f"e{i}" for i in range(size))
    n_ops = rng.randint(0, max_symbols)
    ops: dict[str, dict[tuple[str, ...], str]] = {}
    names = iter(["f", "g"])
    for _ in range(n_ops):
        arity = rng.randint(1, max_arity)
        table = {
            args: rng.choice(carrier)
            for args in _tuples(carrier, arity)
        }
        ops[next(names)] = table
    constants = {}
    for cname in ["c0", "c1"][: rng.randint(0, 2)]:
        constants[cname] = rng.choice(carrier)
    return FiniteAlgebra(name=name, carrier=carrier, constants=constants, ops=ops)


def _tuples(carrier, arity):
    import itertools

    return itertools.product(carrier, repeat=arity)


def random_algebra_pair(rng: random.Random, max_size: int = 4,
                        max_symbols: int = 2, max_arity: int = 2):
    """Two random finite algebras over a shared signature (sometimes identical)."""
    from anaprop.algebras import FiniteAlgebra

    first = random_finite_algebra(rng, max_size, max_symbols, max_arity, name="first")
    if rng.random() < 0.4:
        return first, first
    size = rng.randint(1, max_size)
    carrier = tuple(f"f{i}" for i in range(size))
    ops = {
        sym: {
            args: rng.choice(carrier)
            for args in _tuples(carrier, len(next(iter(table))))
        }
        for sym, table in first.ops.items()
    }
    constants = {sym: rng.choice(carrier) for sym in first.constants}
    second = FiniteAlgebra(name="second", carrier=carrier, constants=constants, ops=ops)
    return first, second


def shaped_algebra_pair(rng: random.Random, ranks: dict[str, int], size: int):
    """Two random finite algebras with the given symbol ranks (rank 0: a constant);
    the first has ``size`` elements, the second (when not the first) at most that."""
    from anaprop.algebras import FiniteAlgebra

    def draw(name: str, carrier: tuple[str, ...]):
        return FiniteAlgebra(
            name=name, carrier=carrier,
            constants={sym: rng.choice(carrier) for sym, rank in ranks.items() if rank == 0},
            ops={sym: {args: rng.choice(carrier) for args in _tuples(carrier, rank)}
                 for sym, rank in ranks.items() if rank})

    first = draw("first", tuple(f"e{i}" for i in range(size)))
    if rng.random() < 0.4:
        return first, first
    return first, draw("second", tuple(f"f{i}" for i in range(rng.randint(1, size))))


def words(alphabet: str = "ab", max_len: int = 5) -> st.SearchStrategy[str]:
    return st.text(alphabet=alphabet, min_size=0, max_size=max_len)


def nonzero_fractions() -> st.SearchStrategy[Fraction]:
    ints = st.integers(min_value=-30, max_value=30)
    return st.builds(
        lambda n, d: Fraction(n if n else 1, d if d else 1), ints, ints
    )
