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

import bisect
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Optional

from . import antiunify  # by module: tracing wraps antiunify.common_gens in place
from .algebras import (
    Algebra,
    FiniteAlgebra,
    NaturalMultiplication,
    eval_term,
    in_unity_set,
    solution_set,
)
from .terms import App, RewriteRule, Signature, Term, Var, canonical_rule, variables


_EMPTY: frozenset[int] = frozenset()
_NO_PAIR = -1  # stands for the pid of an invalid pair while the index is built
_Side = dict[tuple[str, str], frozenset[int]]  # (x, y) -> the pids of the pairs justifying x -> y


class StateCapExceeded(Exception):
    """The reachable behavior-state space outgrew the configured cap."""


@dataclass(frozen=True)
class BehaviorState:
    """Evaluation tables (one per algebra) plus saturated occurrence counts."""

    tables: tuple[tuple[int, ...], ...]
    occ: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    holds: bool
    reason: str  # all-trivial | maximal | not-maximal | empty-intersection
    witness: Optional[RewriteRule] = None
    counter: Optional[str] = None  # a fourth element with strictly larger class set
    arrow: Optional[str] = None  # the arrow this verdict speaks about


def _arrow_label(a: str, b: str, c: str, d: str) -> str:
    return f"{a}->{b} :. {c}->{d}"


def check_same_signature(first: FiniteAlgebra, *others: FiniteAlgebra) -> None:
    """Refuse algebras whose signature differs from the first one's."""
    for other in others:
        if other.signature.ranks != first.signature.ranks:
            raise ValueError(
                f"algebras {first.name!r} and {other.name!r} have different signatures")


def check_fragment(k: int, ell: Optional[int]) -> None:
    """Refuse a negative number of variables or occurrence bound: no term has
    fewer than 0 of either."""
    if k < 0:
        raise ValueError(f"the number of variables k must be at least 0, got {k}")
    if ell is not None and ell < 0:
        raise ValueError(f"the occurrence bound l must be at least 0, got {ell}")


def leaves(signature: Signature, k: int, ell: Optional[int]) -> list[tuple[Term, tuple[int, ...]]]:
    """The fragment's leaves with their occurrence vectors: x1..xk, unless
    ``ell`` leaves no room for a variable, then the constants."""
    out = [(Var(f"x{v + 1}"), tuple(int(i == v) for i in range(k)))
           for v in range(k if ell is None or ell >= 1 else 0)]
    out += [(App(sym), (0,) * k) for sym in signature.constants()]
    return out


class TableKernel:
    """One algebra's term tables over the n ** k assignments of x1..xk, each
    composed from the tables of its children.

    A table is ``bytes`` when the carrier has at most 256 elements, else a tuple
    of carrier indices.  ``add`` records the tables of the next child indices.
    Where an operation's argument codes fit one byte (``FiniteAlgebra.byte_tables``),
    a composite is its children's mixed-radix code, one byte per assignment,
    passed through the operation's 256-byte table; elsewhere the operation's
    index table is looked up assignment by assignment.
    """

    def __init__(self, algebra: FiniteAlgebra, k: int):
        self.algebra = algebra
        self.k = k
        self.n = len(algebra.carrier)
        self.translations = algebra.byte_tables
        self.ops = algebra.index_tables
        self.length = self.n ** k  # the number of assignments
        self.pack = bytes if self.n <= 256 else tuple
        self.to_bytes = operator.methodcaller("to_bytes", self.length, "big")
        self.tables: list = []
        self.codes: list[int] = []  # each byte table read as one big-endian int

    def add(self, tables: Iterable) -> None:
        for table in tables:
            self.tables.append(table)
            if self.pack is bytes:
                self.codes.append(int.from_bytes(table, "big"))

    def leaf(self, leaf: Term):
        """A leaf's table, with the assignments in ``itertools.product`` order."""
        if isinstance(leaf, Var):
            v = int(leaf.name[1:]) - 1
            return self.pack(alpha[v] for alpha in itertools.product(range(self.n), repeat=self.k))
        value = self.algebra.index(self.algebra.constants[leaf.symbol])
        return self.pack((value,) * self.length)

    def compose(self, symbol: str, lead: tuple[int, ...], last: Iterable[int]) -> Iterator:
        """The tables of ``symbol`` over the children ``lead`` then each of ``last``."""
        translation = self.translations.get(symbol)
        if translation is None:
            op = self.ops[symbol]
            leading = [self.tables[c] for c in lead]
            return (self.pack(map(op.__getitem__, zip(*leading, self.tables[c]))) for c in last)
        code = 0  # the leading children's digits, each byte below n ** rank: no carries
        for c in lead:
            code = (code + self.codes[c]) * self.n
        codes = map(code.__add__, map(self.codes.__getitem__, last))
        return map(bytes.translate, map(self.to_bytes, codes), itertools.repeat(translation))


def child_tuples(signature: Signature, k: int, ell: Optional[int],
                 occs: list[tuple[int, ...]], level_start: int
                 ) -> Iterator[tuple[str, tuple[int, ...], list[int]]]:
    """The admissible child tuples of one level, as ``(symbol, leading
    children, candidates for the last child)``; by symbol, then
    lexicographically, the last child varying fastest.

    Children index ``occs``, the occurrence vectors of the terms known before
    the level.  Only admissible tuples are visited: child p is drawn from the
    terms whose occurrences fit within ``ell`` next to the children before it,
    and the last child from the previous level (at or past ``level_start``)
    when no earlier one is.  Callers must not change the candidate lists.
    """
    # occurrences still free per variable (None: unbounded) -> indices of the terms that fit
    fitting: dict[Optional[tuple[int, ...]], list[int]] = {}
    lasts: dict[tuple[Optional[tuple[int, ...]], bool], list[int]] = {}

    def fit(room: Optional[tuple[int, ...]]) -> list[int]:
        if room not in fitting:
            fitting[room] = [i for i, occ in enumerate(occs)
                             if room is None or all(n <= r for n, r in zip(occ, room))]
        return fitting[room]

    def last(room: Optional[tuple[int, ...]], fresh: bool) -> list[int]:
        if (room, fresh) not in lasts:
            candidates = fit(room)
            lasts[room, fresh] = (candidates if fresh else
                                  candidates[bisect.bisect_left(candidates, level_start):])
        return lasts[room, fresh]

    def leads(count: int, room: Optional[tuple[int, ...]], fresh: bool):
        """The first ``count`` children, with the room and freshness they leave."""
        if not count:
            yield (), room, fresh
            return
        for c in fit(room):
            rest = None if room is None else tuple(r - n for r, n in zip(room, occs[c]))
            for lead, left, later in leads(count - 1, rest, fresh or c >= level_start):
                yield (c, *lead), left, later

    room = None if ell is None else (ell,) * k
    for sym, rank in signature.symbols():
        if rank:
            for lead, left, fresh in leads(rank - 1, room, False):
                if last(left, fresh):
                    yield sym, lead, last(left, fresh)


class BehaviorAutomaton:
    """Reachable joint behavior states of one or more same-signature algebras,
    closed round by round over the child tuples of ``child_tuples``."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], k: int,
                 ell: Optional[int] = None, cap: int = 10 ** 6):
        if not algebras:
            raise ValueError("need at least one algebra")
        check_same_signature(*algebras)
        check_fragment(k, ell)
        self.algebras = algebras
        self.signature = algebras[0].signature
        self.k = k
        self.ell = ell
        self.cap = cap
        self.states: list[BehaviorState] = []
        self.witnesses: list[Term] = []
        self.sizes: list[int] = []  # term_size of each state's witness
        self._build()

    def _build(self) -> None:
        """Close the states round by round, one batch of last children per
        leading child tuple; a witness and its size are built only for a state
        not seen before.

        Inside the closure a state is its ``TableKernel`` tables and an
        occurrence code: the support as a bitmask when l is unbounded (so a
        bitwise or saturates the counts at 1), else the counts as digits in
        base l + 1, which add without carry because every child tuple fits
        within l."""
        states, witnesses, sizes = self.states, self.witnesses, self.sizes
        k, ell = self.k, self.ell
        kernels = [TableKernel(alg, k) for alg in self.algebras]
        base = 2 if ell is None else ell + 1
        join = operator.or_ if ell is None else operator.add
        occ_codes: list[int] = []
        occ_vectors: dict[int, tuple[int, ...]] = {}  # occurrence code -> its vector
        seen: set[tuple] = set()  # (table per algebra..., occurrence code) of each state

        def admit(key: tuple, witness: Term, size: int) -> None:
            if len(states) >= self.cap:
                raise StateCapExceeded(
                    f"behavior state space exceeds the cap of {self.cap} states"
                )
            tables, occ = key[:-1], key[-1]
            if occ not in occ_vectors:
                occ_vectors[occ] = tuple(occ // base ** v % base for v in range(k))
            states.append(BehaviorState(tuple(map(tuple, tables)), occ_vectors[occ]))
            seen.add(key)
            witnesses.append(witness)
            sizes.append(size)
            for kernel, table in zip(kernels, tables):
                kernel.add((table,))
            occ_codes.append(occ)

        for leaf, occ in leaves(self.signature, k, ell):
            key = (*(kernel.leaf(leaf) for kernel in kernels),
                   sum(n * base ** v for v, n in enumerate(occ)))
            if key not in seen:
                admit(key, leaf, 1)
        level_start = 0
        while level_start < len(states):
            occs = [s.occ for s in states]
            for sym, lead, last in child_tuples(self.signature, k, ell, occs, level_start):
                last_occs = map(occ_codes.__getitem__, last)
                if lead:
                    last_occs = map(join, itertools.repeat(
                        reduce(join, map(occ_codes.__getitem__, lead))), last_occs)
                keys = zip(*[kernel.compose(sym, lead, last) for kernel in kernels], last_occs)
                for c, key in zip(last, keys):
                    if key not in seen:
                        combo = (*lead, c)
                        admit(key, App(sym, tuple(map(witnesses.__getitem__, combo))),
                              1 + sum(map(sizes.__getitem__, combo)))
            level_start = len(occs)

    @property
    def state_count(self) -> int:
        return len(self.states)


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
        self._rules: dict[int, RewriteRule] = {}  # canonical rule of each pair asked for
        return (first,) if same else (first, self.second)

    # -- class-pair universe ------------------------------------------------

    @cached_property
    def _index(self) -> tuple[list[tuple[int, int]], tuple[_Side, _Side], frozenset[int]]:
        """The class-pair index ``(pairs, sides, trivial)``, built on first use.

        ``pairs`` lists the class pairs (i, j) with supp j within supp i, by i,
        then j; a pair's id (pid) is its position.  ``sides`` holds a ``_Side`` per
        side of the proportion, and ``trivial`` the pids that lie in every
        J(x, y) of every algebra.  Built column by column: at each assignment
        t, the states j are grouped by their value y, and state i adds its
        pairs with one group to J(T_i[t], y) in one ``set.update``.
        """
        auto = self.automaton
        states = auto.states
        # each state's support, as a bitmask of its occurring variables
        supports = [sum(1 << v for v, n in enumerate(s.occ) if n) for s in states]
        within: dict[int, list[int]] = {}  # support -> the states within it
        pair_ids: list[tuple[int, int]] = []
        # per state i, the pid of (i, j) at j, or _NO_PAIR where supp j is not within
        # supp i; each pid is one int object, shared by every set that holds it
        pid_rows: list[list[int]] = []
        for i, support in enumerate(supports):
            js = within.get(support)
            if js is None:
                js = within[support] = [j for j, s in enumerate(supports) if not s & ~support]
            start = len(pair_ids)
            pair_ids.extend([(i, j) for j in js])
            row = [_NO_PAIR] * len(states)
            for j, pid in zip(js, range(start, len(pair_ids))):
                row[j] = pid
            pid_rows.append(row)
        sides: list[_Side] = []
        for m, alg in enumerate(auto.algebras):
            carrier = alg.carrier
            hits: list[defaultdict[int, set[int]]] = [defaultdict(set) for _ in carrier]
            columns = []  # per assignment t: the states j grouped by y = T_j[t]
            for column in zip(*[s.tables[m] for s in states]):
                groups: dict[int, list[int]] = {}
                for j, y in enumerate(column):
                    if y in groups:
                        groups[y].append(j)
                    else:
                        groups[y] = [j]
                columns.append(groups.items())
            for state, row in zip(states, pid_rows):
                pid_at = row.__getitem__
                for x, groups in zip(state.tables[m], columns):
                    hit = hits[x]
                    for y, js in groups:
                        hit[y].update(map(pid_at, js))
            side = {}
            for x, hit in enumerate(hits):
                for y, cell in hit.items():
                    cell.discard(_NO_PAIR)
                    if cell:
                        side[carrier[x], carrier[y]] = frozenset(cell)
            sides.append(side)
        full = all(len(side) == len(alg.carrier) ** 2 for side, alg in zip(sides, auto.algebras))
        cells = [cell for side in sides for cell in side.values()]
        trivial = cells[0].intersection(*cells[1:]) if full else _EMPTY
        return pair_ids, tuple(sides[m] for m in self.sides), trivial

    def _carrier(self, side: int) -> tuple[str, ...]:
        return self.automaton.algebras[self.sides[side]].carrier

    def _smallest_rule(self, pids: frozenset[int]) -> RewriteRule:
        """The canonical rule of the pair with the least witness size, then the
        least (i, j); each pair's rule is built once."""
        sizes, pairs = self.automaton.sizes, self._index[0]
        best = min(pids, key=lambda pid: (sizes[pairs[pid][0]] + sizes[pairs[pid][1]], pid))
        rule = self._rules.get(best)
        if rule is None:
            i, j = pairs[best]
            witnesses = self.automaton.witnesses
            rule = self._rules[best] = canonical_rule(RewriteRule(witnesses[i], witnesses[j]))
        return rule

    # -- spec surface ---------------------------------------------------------

    def justification_classes(self, a: str, b: str, c: str, d: str
                              ) -> set[tuple[BehaviorState, BehaviorState]]:
        """The class pairs representing the shared justification set."""
        pairs, (left, right), _ = self._index
        pids = left.get((a, b), _EMPTY) & right.get((c, d), _EMPTY)
        return {
            (self.automaton.states[i], self.automaton.states[j])
            for i, j in (pairs[p] for p in pids)
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
        _, sides, trivial = self._index
        lhs = sides[left].get((a, b), _EMPTY)
        rhs = sides[right].get((c, d), _EMPTY)
        if lhs <= trivial and rhs <= trivial:
            return True, "all-trivial", None, frozenset()
        lhs = lhs - trivial
        shared = lhs & rhs
        reason = "not-maximal" if shared else "empty-intersection"
        for d2 in self._carrier(right):
            if shared < lhs & sides[right].get((c, d2), _EMPTY):
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
        arrows = self._arrows(a, b, c, d)
        first_maximal = None
        for arrow in arrows:
            holds, reason, counter, shared = self._arrow_status(*arrow)
            if not holds:
                return Verdict(False, reason, counter=counter, arrow=_arrow_label(*arrow[2:]))
            if reason == "maximal" and first_maximal is None:
                first_maximal = arrow, shared
        if first_maximal is None:
            return Verdict(True, "all-trivial")
        arrow, shared = first_maximal
        return Verdict(True, "maximal", witness=self._smallest_rule(shared),
                       arrow=None if arrow is arrows[0] else _arrow_label(*arrow[2:]))

    def solve(self, a: str, b: str, c: str) -> list[str]:
        """All d with a : b :: c : d, in carrier order of the second algebra."""
        return [d for d in self._carrier(1) if self._holds(a, b, c, d)]

    def _fourths(self, left: int, right: int, a: str, b: str, c: str) -> list[str]:
        """The arrow family of ``a -> b`` in side ``left`` and c in side ``right``:
        every d, in carrier order, for which ``a -> b :. c -> d`` holds.

        ``_arrow_status``'s rule for all d at once.  J(a -> b) less the trivial
        pairs meets each J(c -> d) once.  An arrow holds when both cells are
        all-trivial, or when its shared set is non-empty and no other d's shared
        set strictly contains it."""
        _, sides, trivial = self._index
        carrier, row = self._carrier(right), sides[right]
        lhs = sides[left].get((a, b), _EMPTY)
        cells = [row.get((c, d), _EMPTY) for d in carrier]
        if lhs <= trivial:  # every shared set is empty
            return [d for d, cell in zip(carrier, cells) if cell <= trivial]
        lhs = lhs - trivial
        shared = [lhs & cell for cell in cells]
        return [d for d, s in zip(carrier, shared) if s and not any(s < t for t in shared)]

    def enumerate_all(self) -> list[tuple[str, str, str, str]]:
        """Every holding quadruple over the carrier pair, read from arrow families.

        With F01(a, b, c) and F10(c, d, a) the families ``_fourths`` lists for
        the sides (0, 1) and (1, 0), a : b :: c : d holds iff d is in F01(a, b, c),
        c in F01(b, a, d), b in F10(c, d, a) and a in F10(d, c, b).  Over one
        algebra F10 is F01, so one table serves.  The tables live for the call.
        """
        first, second = self._carrier(0), self._carrier(1)
        f01 = {(a, b, c): self._fourths(0, 1, a, b, c)
               for a in first for b in first for c in second}
        f10 = f01 if self.sides == (0, 0) else {
            (c, d, a): self._fourths(1, 0, c, d, a)
            for c in second for d in second for a in first}
        return [(a, b, c, d) for (a, b, c), fourths in f01.items() for d in fourths
                if c in f01[b, a, d] and b in f10[c, d, a] and a in f10[d, c, b]]

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


# Variables a left-hand side of natural_solve may use
NATURAL_SOLVE_MAX_VARS = 2


def natural_solve(a: int, b: int, c: int) -> dict[int, set[RewriteRule]]:
    """Full-framework solutions of a : b :: c : x over the naturals >= 2.

    Bounded search over monomial rules: left-hand sides are shared monomial
    generalizations of a and c with one to NATURAL_SOLVE_MAX_VARS (2)
    variables and a unique solution at c; right-hand sides reuse the same
    variables with coefficients dividing b.  Every candidate is verified as a
    full characteristic justification, so the result is sound; completeness
    is empirical at this bound.
    """
    nmul = NaturalMultiplication()
    out: dict[int, set[RewriteRule]] = {}
    for mono in sorted(antiunify.common_gens(a, c)):
        if not 1 <= mono.nvars <= NATURAL_SOLVE_MAX_VARS:
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
