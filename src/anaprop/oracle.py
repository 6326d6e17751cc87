"""Brute-force reference for the behavior classes of the finite-algebra decider.

Enumerates every term of the fragment up to a depth bound, evaluates each one
under every assignment (from its children's values, through the operation
tables), and groups the terms by the observed value tables and variable sets.
Those observation classes replace the behavior automaton's states; the
class-pair index and the arrow decision are the decider's own.  So the oracle
checks the automaton's classes by evaluating concrete terms, not the decision
code; the literal transcription of the arrow definition over sets of rules
lives in the test suite (``tests/test_decider.py``, ``TestLiteralReference``).
With the depth set to at least the number of reachable behavior states, every
behavior class is realized within the bound, so the oracle is exact.  It is
allowed to be exponential; a budget on the number of terms is checked by
counting them (``count_terms``) before any is built.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter
from types import SimpleNamespace
from typing import Optional

from .algebras import FiniteAlgebra
from .decider import (BehaviorState, FragmentDecider, TableKernel, check_fragment,
                      check_same_signature, child_tuples, leaves)
from .terms import App, Signature, Term


class OracleBudgetExceeded(Exception):
    """The enumerated term universe outgrew the configured limit."""


def count_terms(signature: Signature, k: int, ell: Optional[int], depth: int,
                limit: Optional[int] = None) -> int:
    """The number of terms ``enumerate_terms`` lists, counted with no term
    above the leaves built.

    Counts level by level, and under a finite ``ell`` by occurrence vector:
    a level's terms of one symbol are its child tuples over the terms known
    before the level, less those over the terms known before the previous
    level.  Stops once the count passes ``limit`` and returns it as it stands.
    """
    check_fragment(k, ell)
    dims = 0 if ell is None else k  # occurrences matter only under a bound

    def combine(x: dict, y: dict) -> dict:
        out: dict[tuple[int, ...], int] = {}
        for u, m in x.items():
            for w, n in y.items():
                key = tuple(p + q for p, q in zip(u, w))
                if ell is None or all(c <= ell for c in key):
                    out[key] = out.get(key, 0) + m * n
        return out

    def tuples(terms: dict, rank: int) -> dict:
        out = {(0,) * dims: 1}
        for _ in range(rank):
            out = combine(out, terms)
        return out

    # the previous level's terms, by occurrence vector
    level = Counter(occ[:dims] for _, occ in leaves(signature, k, ell))
    ranks = Counter(rank for _, rank in signature.symbols() if rank)  # rank -> its symbols
    total = sum(level.values())
    known: dict[tuple[int, ...], int] = {}  # the terms before the previous level
    older = {rank: {} for rank in ranks}  # their child tuples, by rank
    for _ in range(depth):
        if not level or (limit is not None and total > limit):
            break
        for key, n in level.items():
            known[key] = known.get(key, 0) + n
        level = {}
        for rank, symbols in ranks.items():
            fresh = tuples(known, rank)
            for key, n in fresh.items():
                n -= older[rank].get(key, 0)
                if n:
                    level[key] = level.get(key, 0) + symbols * n
            older[rank] = fresh
        total += sum(level.values())
    return total


_Batch = tuple[str, tuple[int, ...], list[int]]  # (symbol, leading children, last children)


def enumerate_fragment(signature: Signature, k: int, ell: Optional[int], depth: int,
                       limit: Optional[int] = None
                       ) -> tuple[list[Term], list[_Batch], list[tuple[int, ...]]]:
    """The terms of ``enumerate_terms``, the batches they were built in, and
    each term's occurrence vector.

    The leaves come first; every later term is one of a batch ``(symbol,
    leading children, last children)`` of ``child_tuples``, the batches listed
    in term order.  With a ``limit``, the terms are counted first (``count_terms``), and a
    universe of more terms raises OracleBudgetExceeded before any is built.
    """
    check_fragment(k, ell)
    if limit is not None and count_terms(signature, k, ell, depth, limit) > limit:
        raise OracleBudgetExceeded(f"term universe exceeds {limit} terms")
    base = leaves(signature, k, ell)
    terms: list[Term] = [term for term, _ in base]
    batches: list[_Batch] = []
    occs: list[tuple[int, ...]] = [occ for _, occ in base]
    level_start = 0  # where the terms of the previous level begin
    for _ in range(depth):
        new_start = len(terms)  # children come from the terms known before this level
        for sym, lead, last in child_tuples(signature, k, ell, occs[:new_start], level_start):
            head = tuple(map(terms.__getitem__, lead))
            lead_occ = tuple(map(sum, zip(*map(occs.__getitem__, lead), (0,) * k)))
            batches.append((sym, lead, last))
            for c in last:
                terms.append(App(sym, (*head, terms[c])))
                occs.append(tuple(map(operator.add, lead_occ, occs[c])))
        if new_start == len(terms):
            break
        level_start = new_start
    return terms, batches, occs


def enumerate_terms(signature: Signature, k: int, ell: Optional[int],
                    depth: int, limit: Optional[int] = None) -> list[Term]:
    """Every term over x1..xk within ``depth``, respecting the occurrence bound.

    Complete and duplicate-free; ordered by depth, then by symbol, then by the
    child index tuple in lexicographic order; only the admissible tuples of
    ``child_tuples`` are visited.  ``limit`` bounds the number of terms; a
    universe of more raises OracleBudgetExceeded.
    """
    return enumerate_fragment(signature, k, ell, depth, limit)[0]


def term_tables(algebra: FiniteAlgebra, k: int, terms: list[Term],
                batches: list[_Batch]) -> list:
    """Each term's values under every assignment of x1..xk, as carrier indices.

    Assignments are in the order of ``algebra.assignments``; a table is
    ``bytes``, or a tuple over more than 256 elements (``TableKernel``).
    ``terms`` and ``batches`` are ``enumerate_fragment``'s: the leaves, then
    the terms of each batch, composed one batch at a time from earlier tables.
    """
    kernel = TableKernel(algebra, k)
    kernel.add(map(kernel.leaf, terms[:len(terms) - sum(len(last) for _, _, last in batches)]))
    for batch in batches:
        kernel.add(kernel.compose(*batch))
    return kernel.tables


class OracleUniverse(FragmentDecider):
    """The bounded term universe of an algebra pair, grouped by observed behavior.

    Terms with identical value tables (in each algebra) and identical
    variable sets are interchangeable in every membership and comparison the
    proportion definition makes, so each such observation class becomes one
    behavior state and the decision is the decider's over these classes.
    The classes are exact when ``depth`` is at least the behavior automaton's
    state count, since every behavior class then has a term within the depth.
    """

    def __init__(self, first: FiniteAlgebra, second: Optional[FiniteAlgebra] = None,
                 k: int = 1, ell: Optional[int] = None, *, depth: int,
                 limit: Optional[int] = None):
        algebras = self._set_pair(first, second)
        check_same_signature(first, self.second)
        terms, batches, occs = enumerate_fragment(first.signature, k, ell, depth, limit)
        tables = [term_tables(alg, k, terms, batches) for alg in algebras]
        # term_size of every term, from its children's
        sizes = [1] * (len(terms) - sum(len(last) for _, _, last in batches))
        for _, lead, last in batches:
            head = 1 + sum(map(sizes.__getitem__, lead))
            sizes.extend(map(head.__add__, map(sizes.__getitem__, last)))
        classes: dict[tuple, int] = {}  # (tables, support) of each class -> its first term
        supports = (tuple(map(min, occ, itertools.repeat(1))) for occ in occs)
        for i, key in enumerate(zip(zip(*tables), supports)):
            classes.setdefault(key, i)
        self.automaton = SimpleNamespace(
            algebras=algebras,
            states=[BehaviorState(tuple(map(tuple, tabs)), support) for tabs, support in classes],
            witnesses=[terms[i] for i in classes.values()],
            sizes=[sizes[i] for i in classes.values()])
        self.class_reps = self.automaton.witnesses
        self._index  # an oracle is built to be queried: index it with its terms

    # the oracle's name for decide_proportion; an alias, not a wrapper, so
    # tracing (perfbench/tracing.py) sees one call per decision
    decide = FragmentDecider.decide_proportion

