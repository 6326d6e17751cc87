"""Exact decision of analogical proportions over finite algebras.

A term with at most k variables is classified by its behavior: the full
evaluation table over all |A|^k assignments in each algebra of the pair,
together with the set of occurring variables and (for finite occurrence
bounds) saturated per-variable occurrence counts.  Behaviors form the states
of a deterministic frontier-to-root automaton; two terms with the same state
are interchangeable in every justification set, so justification sets become
finite unions of disjoint class rectangles and the maximality comparisons of
the proportion definition become finite set comparisons.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import antiunify  # by module: tracing wraps antiunify.common_gens in place
from .algebras import (
    Algebra,
    FiniteAlgebra,
    NaturalMultiplication,
    eval_term,
    in_unity_set,
    solution_set,
)
from .terms import App, RewriteRule, Term, Var, canonical_rule, variables


class StateCapExceeded(Exception):
    """The reachable behavior-state space outgrew the configured cap."""


@dataclass(frozen=True)
class BehaviorState:
    """Evaluation tables (one per algebra) plus saturated occurrence counts."""

    tables: tuple[tuple[int, ...], ...]
    occ: tuple[int, ...]

    @property
    def used_vars(self) -> frozenset[int]:
        return frozenset(i for i, n in enumerate(self.occ) if n)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    reason: str  # all-trivial | maximal | not-maximal | empty-intersection
    witness: Optional[RewriteRule] = None
    counter: Optional[str] = None  # a fourth element with strictly larger class set
    arrow: Optional[str] = None  # the arrow this verdict speaks about


def _arrow_label(a: str, b: str, c: str, d: str) -> str:
    return f"{a}->{b} :. {c}->{d}"


class BehaviorAutomaton:
    """Reachable joint behavior states of one or more same-signature algebras."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], k: int,
                 ell: Optional[int] = None, cap: int = 10 ** 6):
        if not algebras:
            raise ValueError("need at least one algebra")
        sig = algebras[0].signature
        for other in algebras[1:]:
            if other.signature.ranks != sig.ranks:
                raise ValueError(
                    f"algebras {algebras[0].name!r} and {other.name!r} have different signatures"
                )
        self.algebras = algebras
        self.signature = sig
        self.k = k
        self.ell = ell
        self.cap = cap
        self._occ_cap = 1 if ell is None else ell + 1
        self.assignments = [
            list(itertools.product(range(len(alg.carrier)), repeat=k))
            for alg in algebras
        ]
        self.states: list[BehaviorState] = []
        self.index: dict[BehaviorState, int] = {}
        self.witnesses: list[Term] = []
        self.sizes: list[int] = []  # term_size of each state's witness
        self._op_tables = [
            {
                sym: {
                    tuple(alg.index(x) for x in args): alg.index(res)
                    for args, res in table.items()
                }
                for sym, table in alg.ops.items()
            }
            for alg in algebras
        ]
        self._build()

    def _add(self, state: BehaviorState, witness: Term,
             children: tuple[int, ...] = ()) -> Optional[int]:
        if self.ell is not None and any(n > self.ell for n in state.occ):
            return None
        got = self.index.get(state)
        if got is not None:
            return got
        if len(self.states) >= self.cap:
            raise StateCapExceeded(
                f"behavior state space exceeds the cap of {self.cap} states"
            )
        idx = len(self.states)
        self.index[state] = idx
        self.states.append(state)
        self.witnesses.append(witness)
        self.sizes.append(1 + sum(self.sizes[c] for c in children))
        return idx

    def _leaf_states(self) -> None:
        for v in range(self.k):
            tables = tuple(
                tuple(alpha[v] for alpha in self.assignments[m])
                for m in range(len(self.algebras))
            )
            occ = tuple(1 if i == v else 0 for i in range(self.k))
            self._add(BehaviorState(tables, occ), Var(f"x{v + 1}"))
        for sym in self.signature.constants():
            tables = tuple(
                tuple(alg.index(alg.constants[sym]) for _ in self.assignments[m])
                for m, alg in enumerate(self.algebras)
            )
            self._add(BehaviorState(tables, (0,) * self.k), App(sym))

    def _combine(self, symbol: str, children: tuple[int, ...]) -> Optional[int]:
        states = [self.states[c] for c in children]
        occ = tuple(
            min(sum(s.occ[v] for s in states), self._occ_cap) for v in range(self.k)
        )
        if self.ell is not None and any(n > self.ell for n in occ):
            return None
        tables = tuple(
            tuple(
                self._op_tables[m][symbol][tuple(s.tables[m][j] for s in states)]
                for j in range(len(self.assignments[m]))
            )
            for m in range(len(self.algebras))
        )
        witness = App(symbol, tuple(self.witnesses[c] for c in children))
        return self._add(BehaviorState(tables, occ), witness, children)

    def _build(self) -> None:
        self._leaf_states()
        frontier = set(range(len(self.states)))
        while frontier:
            old = len(self.states)
            known = range(old)
            for sym, rank in self.signature.symbols():
                if rank == 0:
                    continue
                for combo in itertools.product(known, repeat=rank):
                    if frontier.isdisjoint(combo):
                        continue
                    self._combine(sym, combo)
            frontier = set(range(old, len(self.states)))

    @property
    def state_count(self) -> int:
        return len(self.states)


def behavior_automaton(algebra: FiniteAlgebra, k: int, ell: Optional[int] = None,
                       cap: int = 10 ** 6) -> BehaviorAutomaton:
    """The behavior automaton of a single algebra."""
    return BehaviorAutomaton((algebra,), k, ell, cap)


class FragmentDecider:
    """Decides the (k, ell)-proportion relation over a pair of finite algebras.

    The behavior classes are read from ``self.automaton``, only through its
    ``algebras``, ``states``, ``witnesses`` and ``sizes``.
    """

    def __init__(self, first: FiniteAlgebra, second: Optional[FiniteAlgebra] = None,
                 k: int = 1, ell: Optional[int] = None, cap: int = 10 ** 6):
        self.automaton = BehaviorAutomaton(self._set_pair(first, second), k, ell, cap)

    def _set_pair(self, first: FiniteAlgebra, second: Optional[FiniteAlgebra]
                  ) -> tuple[FiniteAlgebra, ...]:
        """Record the algebra pair and return the algebras that the classes evaluate in."""
        self.first = first
        self.second = second if second is not None else first
        same = second is None or second is first
        self.sides = (0, 0) if same else (0, 1)
        self._pairs_built = False
        self._valid_pairs: list[tuple[int, int]] = []
        self._by_side: list[dict[tuple[str, str], frozenset[int]]] = []
        self._trivial: frozenset[int] = frozenset()
        return (first,) if same else (first, self.second)

    # -- class-pair universe ------------------------------------------------

    def _build_pairs(self) -> None:
        if self._pairs_built:
            return
        auto = self.automaton
        states = auto.states
        supports = [s.used_vars for s in states]
        carriers = [alg.carrier for alg in auto.algebras]
        by_side: list[dict[tuple[str, str], set[int]]] = [
            {} for _ in auto.algebras
        ]
        trivial: set[int] = set()
        pair_ids: list[tuple[int, int]] = []
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if not supports[j] <= supports[i]:
                    continue
                pid = len(pair_ids)
                pair_ids.append((i, j))
                is_trivial = True
                for m, carrier in enumerate(carriers):
                    hits = set(zip(si.tables[m], sj.tables[m]))
                    for x, y in hits:
                        by_side[m].setdefault((carrier[x], carrier[y]), set()).add(pid)
                    if len(hits) != len(carrier) ** 2:
                        is_trivial = False
                if is_trivial:
                    trivial.add(pid)
        self._valid_pairs = pair_ids
        self._by_side = [
            {key: frozenset(v) for key, v in side.items()} for side in by_side
        ]
        self._trivial = frozenset(trivial)
        self._pairs_built = True

    def _side_set(self, side: int, a: str, b: str) -> frozenset[int]:
        return self._by_side[self.sides[side]].get((a, b), frozenset())

    def _carrier(self, side: int) -> tuple[str, ...]:
        return self.automaton.algebras[self.sides[side]].carrier

    def _rule_for(self, pid: int) -> RewriteRule:
        i, j = self._valid_pairs[pid]
        return canonical_rule(
            RewriteRule(self.automaton.witnesses[i], self.automaton.witnesses[j])
        )

    def _smallest_rule(self, pids: frozenset[int]) -> RewriteRule:
        """The rule of the pair with the least witness size, then the least (i, j)."""
        sizes, pairs = self.automaton.sizes, self._valid_pairs
        best = min(pids, key=lambda pid: (sizes[pairs[pid][0]] + sizes[pairs[pid][1]], pid))
        return self._rule_for(best)

    # -- spec surface ---------------------------------------------------------

    def justification_classes(self, a: str, b: str, c: str, d: str
                              ) -> set[tuple[BehaviorState, BehaviorState]]:
        """The class pairs representing the shared justification set."""
        self._build_pairs()
        pids = self._side_set(0, a, b) & self._side_set(1, c, d)
        return {
            (self.automaton.states[i], self.automaton.states[j])
            for i, j in (self._valid_pairs[p] for p in pids)
        }

    def is_trivial_pair(self, sigma: BehaviorState, tau: BehaviorState) -> bool:
        """True iff rules of this class justify every arrow proportion of the pair."""
        for m, alg in enumerate(self.automaton.algebras):
            hits = set(zip(sigma.tables[m], tau.tables[m]))
            if len(hits) != len(alg.carrier) ** 2:
                return False
        return True

    def _arrow_status(self, left: int, right: int, a: str, b: str, c: str, d: str
                      ) -> tuple[bool, str, Optional[str], frozenset[int]]:
        """``(holds, reason, counter, shared)`` of ``a -> b`` in side ``left``
        against ``c -> d`` in side ``right``; ``shared`` is the set of
        non-trivial class pairs justifying both, from which a witness is chosen.

        The counter is the first d2 whose shared set strictly contains
        ``shared``; for an empty ``shared`` that is the first non-empty one."""
        lhs = self._side_set(left, a, b)
        rhs = self._side_set(right, c, d)
        if lhs <= self._trivial and rhs <= self._trivial:
            return True, "all-trivial", None, frozenset()
        lhs = lhs - self._trivial
        shared = lhs & rhs
        reason = "not-maximal" if shared else "empty-intersection"
        for d2 in self._carrier(right):
            if shared < lhs & self._side_set(right, c, d2):
                return False, reason, d2, shared
        if not shared:
            return False, reason, None, shared
        return True, "maximal", None, shared

    @staticmethod
    def _arrows(a: str, b: str, c: str, d: str) -> tuple[tuple, ...]:
        """The four arrows defining a : b :: c : d, as ``(left, right, a, b, c, d)``."""
        return ((0, 1, a, b, c, d), (0, 1, b, a, d, c),
                (1, 0, c, d, a, b), (1, 0, d, c, b, a))

    def _holds(self, a: str, b: str, c: str, d: str) -> bool:
        return all(self._arrow_status(*arrow)[0] for arrow in self._arrows(a, b, c, d))

    def decide_arrow(self, a: str, b: str, c: str, d: str,
                     swap: bool = False) -> Verdict:
        """Decide ``a -> b :: c -> d`` (in the swapped pair when ``swap``)."""
        self._build_pairs()
        left, right = (1, 0) if swap else (0, 1)
        holds, reason, counter, shared = self._arrow_status(left, right, a, b, c, d)
        witness = self._smallest_rule(shared) if reason == "maximal" else None
        return Verdict(holds, reason, witness=witness, counter=counter,
                       arrow=_arrow_label(a, b, c, d))

    def decide_proportion(self, a: str, b: str, c: str, d: str) -> Verdict:
        """Conjunction of the four arrow proportions defining a : b :: c : d.

        A failing verdict names its arrow.  A holding verdict carries the
        witness of the first maximal arrow, and names that arrow when it is
        not ``a -> b :: c -> d`` itself.
        """
        self._build_pairs()
        first_maximal = None
        for n, (left, right, *quad) in enumerate(self._arrows(a, b, c, d)):
            holds, reason, counter, shared = self._arrow_status(left, right, *quad)
            if not holds:
                return Verdict(False, reason, counter=counter, arrow=_arrow_label(*quad))
            if reason == "maximal" and first_maximal is None:
                first_maximal = (n, quad, shared)
        if first_maximal is None:
            return Verdict(True, "all-trivial")
        n, quad, shared = first_maximal
        return Verdict(True, "maximal", witness=self._smallest_rule(shared),
                       arrow=_arrow_label(*quad) if n else None)

    def solve(self, a: str, b: str, c: str) -> list[str]:
        """All d with a : b :: c : d, in carrier order of the second algebra."""
        self._build_pairs()
        return [d for d in self._carrier(1) if self._holds(a, b, c, d)]

    def enumerate_all(self) -> list[tuple[str, str, str, str]]:
        """Every holding quadruple over the carrier pair."""
        self._build_pairs()
        first, second = self._carrier(0), self._carrier(1)
        return [
            (a, b, c, d)
            for a in first
            for b in first
            for c in second
            for d in second
            if self._holds(a, b, c, d)
        ]

    @property
    def state_count(self) -> int:
        return len(self.automaton.states)


# ---------------------------------------------------------------------------
# Justification verification through uniqueness conditions, and functional solutions


def _joint_member(rule: RewriteRule, a, b, algebra: Algebra) -> bool:
    """Membership of the rule in the justifications of a -> b: shared solution."""
    sols = solution_set(rule.lhs, a, algebra)
    return any(eval_term(rule.rhs, sol, algebra) == b for sol in sols)


def verify_characteristic(rule: RewriteRule, a, b, c, d,
                          first: Algebra, second: Optional[Algebra] = None,
                          full: bool = False) -> bool:
    """Check that ``rule`` characteristically justifies ``a -> b :: c -> d``.

    The rule must justify both arrows (shared-solution membership on each
    side) and the third element must determine the fourth through a unique
    left-hand solution.  With ``full=True`` all four uniqueness side
    conditions are required and both sides must use the same variables (so
    the mirrored rule justifies the reversed arrows), which pins the entire
    proportion rather than the single arrow.
    """
    second = second if second is not None else first
    if not _joint_member(rule, a, b, first) or not _joint_member(rule, c, d, second):
        return False
    if not in_unity_set(rule.lhs, c, second):
        return False
    if full:
        return (
            variables(rule.lhs) == variables(rule.rhs)
            and in_unity_set(rule.lhs, a, first)
            and in_unity_set(rule.rhs, b, first)
            and in_unity_set(rule.rhs, d, second)
        )
    return True


def natural_solve(a: int, b: int, c: int, max_vars: int = 2
                  ) -> dict[int, set[RewriteRule]]:
    """Full-framework solutions of a : b :: c : x over the naturals >= 2.

    Bounded search over monomial rules: left-hand sides are shared monomial
    generalizations of a and c with a unique solution at c; right-hand sides
    reuse the same variables with coefficients dividing b.  Every candidate is
    verified as a full characteristic justification, so the result is sound;
    completeness is empirical at this bound.
    """
    nmul = NaturalMultiplication()
    out: dict[int, set[RewriteRule]] = {}
    for mono in sorted(antiunify.common_gens(a, c)):
        if not 1 <= mono.nvars <= max_vars:
            continue
        names = [f"x{i + 1}" for i in range(mono.nvars)]
        lhs = antiunify.monomial_term(mono)
        sols_c = solution_set(lhs, c, nmul)
        if len(sols_c) != 1:
            continue
        for o_a in solution_set(lhs, a, nmul):
            for rhs in _monomial_rhs_candidates(b, o_a, names):
                rule = RewriteRule(lhs, rhs)
                d = eval_term(rhs, sols_c[0], nmul)
                if d >= 2 and verify_characteristic(rule, a, b, c, d, nmul, full=True):
                    out.setdefault(d, set()).add(rule)
    return out


def _monomial_rhs_candidates(b: int, assignment: dict[str, int],
                             names: list[str]) -> Iterator[Term]:
    """Monomials over all of ``names`` whose value at ``assignment`` is b."""
    def build(i: int, rest: int, exps: dict[str, int]):
        if i == len(names):
            if rest >= 1:
                yield antiunify.monomial_over(rest, exps)
            return
        name = names[i]
        value = assignment[name]
        e = 1
        power = value
        while power <= rest:
            if rest % power == 0:
                exps[name] = e
                yield from build(i + 1, rest // power, exps)
                del exps[name]
            e += 1
            power *= value
    yield from build(0, b, {})


def functional_solve(term: Term, a, c, first: Algebra,
                     second: Optional[Algebra] = None
                     ) -> Optional[tuple[object, object, RewriteRule]]:
    """Functional solution: a : t(a) :: c : t(c) when t's images determine inputs.

    Requires ``term`` to use exactly one variable; returns (t(a), t(c)) with
    the characteristic rule x -> t(x), or None when the uniqueness conditions
    fail.
    """
    second = second if second is not None else first
    names = sorted(variables(term))
    if len(names) != 1:
        raise ValueError("functional solving needs a term with exactly one variable")
    v = names[0]
    b = eval_term(term, {v: a}, first)
    d = eval_term(term, {v: c}, second)
    if not in_unity_set(term, b, first) or not in_unity_set(term, d, second):
        return None
    return b, d, canonical_rule(RewriteRule(Var(v), term))
