"""Tree proportions in the free term algebra.

Least general generalizations are computed with the classic pairwise
anti-unification recursion (Plotkin, "A note on inductive generalization",
Machine Intelligence 5, 1970); the pair-to-variable map can be shared within
a session.  Where that recursion stops, at roots that differ, it leaves a
disagreement pair.  The arrow check is a sufficient syntactic condition on
the disagreement pairs of lgg(p, r) and lgg(q, u).  The equation solver
returns the exact, finite solution set of ``p -> q :: r -> x``: the terms
built from ``q`` by replacing disjoint subterms with their partners in the
disagreement pairs of lgg(p, r).
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .terms import App, Term, Var, variables


class ChiMap:
    """Injective map from ordered term pairs to fresh variables.

    Stable within a session: the same pair always yields the same variable.
    Identical variable pairs map to the variable itself, so that the
    generalization of a term with itself is the term.  Not safe for unshared
    concurrent use.
    """

    def __init__(self) -> None:
        self._pairs: dict[tuple[Term, Term], Var] = {}
        self._used: set[str] = set()
        self._next = 1

    def reserve(self, terms: Iterable[Term]) -> None:
        """Keep the variables of ``terms`` out of the fresh-name pool."""
        for t in terms:
            self._used.update(variables(t))

    def var_for(self, p: Term, q: Term) -> Var:
        if p == q and isinstance(p, Var):
            return p
        got = self._pairs.get((p, q))
        if got is None:
            while f"x{self._next}" in self._used:
                self._next += 1
            got = Var(f"x{self._next}")
            self._used.add(got.name)
            self._pairs[(p, q)] = got
        return got


def lgg(p: Term, q: Term, chi: Optional[ChiMap] = None) -> Term:
    """Least general generalization of two terms (pairwise anti-unification)."""
    if chi is None:
        chi = ChiMap()
        chi.reserve([p, q])

    def go(p: Term, q: Term) -> Term:
        if (
            isinstance(p, App)
            and isinstance(q, App)
            and p.symbol == q.symbol
            and len(p.args) == len(q.args)
        ):
            return App(p.symbol, tuple(go(a, b) for a, b in zip(p.args, q.args)))
        return chi.var_for(p, q)

    return go(p, q)


def disagreements(p: Term, r: Term) -> dict[Term, set[Term]]:
    """The disagreement pairs of lgg(p, r), as a map from each left term to its partners.

    The pairs are (p|pi, r|pi) at the variable positions of lgg(p, r): the
    descent of :func:`lgg` stops where the roots differ in symbol or arity.
    An identical variable pair is no disagreement, as ``ChiMap`` keeps it.
    """
    out: dict[Term, set[Term]] = {}
    stack = [(p, r)]
    while stack:
        s, t = stack.pop()
        if (
            isinstance(s, App)
            and isinstance(t, App)
            and s.symbol == t.symbol
            and len(s.args) == len(t.args)
        ):
            stack.extend(zip(s.args, t.args))
        elif s != t:
            out.setdefault(s, set()).add(t)
    return out


def check_tree_arrow(p: Term, q: Term, r: Term, u: Term) -> bool:
    """Sufficient condition for the arrow proportion ``p -> q :: r -> u``.

    Holds when every disagreement pair of lgg(q, u) is one of lgg(p, r): then
    lgg(p, r) -> lgg(q, u), under one pair-variable map, is a rule justifying
    both arrows.  True establishes the arrow; False means the arrow is not
    established by this check, not that it is refuted.
    """
    left = disagreements(p, r)
    return all(t in left and ys <= left[t] for t, ys in disagreements(q, u).items())


def check_tree_proportion(p: Term, q: Term, r: Term, u: Term) -> bool:
    """Sufficient condition for the full proportion ``p : q :: r : u``: lgg(p, r)
    and lgg(q, u) have the same disagreement pairs."""
    return disagreements(q, u) == disagreements(p, r)


def solve_tree_equation(p: Term, q: Term, r: Term) -> set[Term]:
    """The exact solution set of the arrow equation ``p -> q :: r -> x``.

    Every solution is ``q`` with some disjoint subterms ``v`` each replaced by
    a partner ``y``, where ``(v, y)`` is a disagreement pair of the least
    general generalization of ``p`` and ``r`` (Plotkin, "A note on inductive
    generalization", Machine Intelligence 5, 1970): refining each left-hand
    variable of a justifying rule to lgg(p|rho, r|rho) keeps the arrow and
    breaks every replacement into such pairs.  The solutions of each distinct
    subterm of ``q`` are built once, from those of its arguments.
    """
    partners = disagreements(p, r)
    memo: dict[Term, set[Term]] = {}

    def sols(v: Term) -> set[Term]:
        got = memo.get(v)
        if got is None:
            got = set(partners.get(v, ()))
            if isinstance(v, App) and v.args:
                got.update(App(v.symbol, args)
                           for args in itertools.product(*map(sols, v.args)))
            else:
                got.add(v)
            memo[v] = got
        return got

    return sols(q)
