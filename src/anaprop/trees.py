"""Tree proportions in the free term algebra.

Least general generalizations are computed with the classic pairwise
anti-unification recursion; the pair-to-variable map is shared within a
session so that the variable sets of two generalizations can be compared.
The arrow check is a sufficient syntactic condition; the equation solver
returns the exact, finite solution set of ``p -> q :: r -> x`` by ranging
over generalizations of the left-hand anti-unifier.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .terms import (
    App,
    Position,
    Term,
    Var,
    canonical_term,
    fresh_renaming,
    generalizes,
    replace_at,
    substitute,
    subterm_at,
    variables,
)


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


def fresh_vars(context: Iterable[Term], term: Term) -> set[str]:
    """Variables of ``term`` that do not occur in any context term."""
    out = variables(term)
    for t in context:
        out -= variables(t)
    return out


def _fresh_pair(p: Term, q: Term, r: Term, u: Term) -> tuple[set[str], set[str]]:
    """Fresh variables of lgg(p, r) and of lgg(q, u) under one pair-variable map."""
    chi = ChiMap()
    context = [p, q, r, u]
    chi.reserve(context)
    left = lgg(p, r, chi)
    right = lgg(q, u, chi)
    return fresh_vars(context, left), fresh_vars(context, right)


def check_tree_arrow(p: Term, q: Term, r: Term, u: Term) -> bool:
    """Sufficient condition for the arrow proportion ``p -> q :: r -> u``.

    Compares the fresh variables of the two anti-unifiers under a shared
    pair-variable map.  True establishes the arrow; False means the arrow is
    not established by this check, not that it is refuted.
    """
    left, right = _fresh_pair(p, q, r, u)
    return right <= left


def check_tree_proportion(p: Term, q: Term, r: Term, u: Term) -> bool:
    """Sufficient condition for the full proportion ``p : q :: r : u``."""
    left, right = _fresh_pair(p, q, r, u)
    return right == left


def unique_match(pattern: Term, instance: Term) -> dict[str, Term]:
    """The unique assignment sending ``pattern`` to ``instance``."""
    sigma = generalizes(pattern, instance)
    if sigma is None:
        raise ValueError(f"{pattern} does not generalize {instance}")
    return sigma


# ---------------------------------------------------------------------------
# Principal filters of generalizations, modulo renaming


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


def solve_tree_equation(p: Term, q: Term, r: Term) -> set[Term]:
    """The exact solution set of the arrow equation ``p -> q :: r -> x``.

    Ranges over all generalizations of the anti-unifier of ``p`` and ``r``;
    for each, the candidate right-hand sides are the inverse images of ``q``
    under the match with ``p``, instantiated at the match with ``r``.
    """
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
