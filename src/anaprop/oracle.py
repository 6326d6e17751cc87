"""Brute-force reference for the behavior classes of the finite-algebra decider.

Enumerates every term of the fragment up to a depth bound, evaluates each one
directly under every assignment, and groups the terms by the observed value
tables and variable sets.  Those observation classes replace the behavior
automaton's states; the class-pair index and the arrow decision are the
decider's own.  So the oracle checks the automaton's classes by direct term
evaluation, not the decision code; the literal transcription of the arrow
definition over sets of rules lives in the test suite (``tests/test_decider.py``,
``TestLiteralReference``).  With the depth set to at least the number of
reachable behavior states, every behavior class is realized within the bound,
so the oracle is exact.  It is allowed to be exponential.
"""
from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Optional

from .algebras import FiniteAlgebra, eval_term
from .decider import BehaviorState, FragmentDecider
from .terms import App, RewriteRule, Signature, Term, Var, term_size, variables


class OracleBudgetExceeded(Exception):
    """The enumerated term universe outgrew the configured limit."""


def enumerate_terms(signature: Signature, k: int, ell: Optional[int],
                    depth: int, limit: Optional[int] = None) -> list[Term]:
    """Every term over x1..xk within ``depth``, respecting the occurrence bound.

    Complete and duplicate-free; ordered by depth, then by construction order.
    """
    out: list[Term] = []
    occs: list[tuple[int, ...]] = []  # occurrence vector of each term of out, by index

    def push(term: Term, occ: tuple[int, ...]) -> None:
        if ell is not None and any(n > ell for n in occ):
            return
        if limit is not None and len(out) >= limit:
            raise OracleBudgetExceeded(f"term universe exceeds {limit} terms")
        out.append(term)
        occs.append(occ)

    for v in range(k):
        push(Var(f"x{v + 1}"), tuple(1 if i == v else 0 for i in range(k)))
    for sym in signature.constants():
        push(App(sym), (0,) * k)
    level_start = 0  # where the terms of the previous level begin
    for _ in range(depth):
        new_start = len(out)  # children come from the terms known before this level
        for sym, rank in signature.symbols():
            if rank == 0:
                continue
            for combo in itertools.product(range(new_start), repeat=rank):
                if all(c < level_start for c in combo):
                    continue  # no child from the previous level: depth not reached
                occ = tuple(sum(occs[c][v] for c in combo) for v in range(k))
                push(App(sym, tuple(out[c] for c in combo)), occ)
        if new_start == len(out):
            break
        level_start = new_start
    return out


def oracle_justifications(a: str, b: str, algebra: FiniteAlgebra, k: int,
                          ell: Optional[int], depth: int) -> set[RewriteRule]:
    """All in-fragment rules s -> t with a shared assignment sending s, t to a, b."""
    terms = enumerate_terms(algebra.signature, k, ell, depth)
    assignments = list(algebra.assignments([f"x{i + 1}" for i in range(k)]))
    vectors = [tuple(eval_term(t, alpha, algebra) for alpha in assignments) for t in terms]
    masks = [variables(t) for t in terms]
    out: set[RewriteRule] = set()
    for i, s in enumerate(terms):
        for j, t in enumerate(terms):
            if not masks[j] <= masks[i]:
                continue
            if any(x == a and y == b for x, y in zip(vectors[i], vectors[j])):
                out.add(RewriteRule(s, t))
    return out


class OracleUniverse(FragmentDecider):
    """The bounded term universe of an algebra pair, grouped by observed behavior.

    Terms with identical value tables (in each algebra) and identical
    variable sets are interchangeable in every membership and comparison the
    proportion definition makes, so each such observation class becomes one
    behavior state and the decision is the decider's over these classes.
    """

    def __init__(self, first: FiniteAlgebra, second: Optional[FiniteAlgebra] = None,
                 k: int = 1, ell: Optional[int] = None, depth: int = 3,
                 limit: Optional[int] = None):
        algebras = self._set_pair(first, second)
        if self.second.signature.ranks != first.signature.ranks:
            raise ValueError("the two algebras must share a signature")
        terms = enumerate_terms(first.signature, k, ell, depth, limit)
        names = [f"x{i + 1}" for i in range(k)]
        assignments = [list(alg.assignments(names)) for alg in algebras]
        self.automaton = SimpleNamespace(algebras=algebras, states=[], witnesses=[], sizes=[])
        seen: set[BehaviorState] = set()
        for t in terms:
            used = variables(t)
            state = BehaviorState(
                tuple(
                    tuple(alg.index(eval_term(t, alpha, alg)) for alpha in alphas)
                    for alg, alphas in zip(algebras, assignments)
                ),
                tuple(int(name in used) for name in names),
            )
            if state not in seen:
                seen.add(state)
                self.automaton.states.append(state)
                self.automaton.witnesses.append(t)
                self.automaton.sizes.append(term_size(t))
        self.class_reps = self.automaton.witnesses
        self._build_pairs()  # an oracle is built to be queried: index it with its terms

    # the oracle's name for decide_proportion; an alias, not a wrapper, so
    # tracing (perfbench/tracing.py) sees one call per decision
    decide = FragmentDecider.decide_proportion

