"""Closed-form deciders and solvers for monolinear proportions.

Monolinear means justifications use at most one occurrence of a single
variable.  Over the additive integers the relation is the difference
proportion a - b = c - d; over the multiplicative rationals it is the
geometric proportion a/b = c/d (with a factorization form over the naturals);
over words it is characterized by an aligned three-way factorization.  The
segment-alignment (SY) relations are decided through explicit factorization
search and come with witness-rule construction for the letterwise word case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .algebras import divisors, word_pattern_term
from .terms import App, RewriteRule, Term, Var


# ---------------------------------------------------------------------------
# Additive integer proportions


def decide_mono_add(a: int, b: int, c: int, d: int) -> bool:
    """Difference proportion: a - b = c - d."""
    return a - b == c - d


def solve_mono_add(a: int, b: int, c: int) -> int:
    """The unique solution d of a : b :: c : d over the additive integers."""
    return c + b - a


def mono_add_rule(a: int, b: int) -> RewriteRule:
    """The characteristic justification x -> x + (b - a)."""
    return RewriteRule(Var("x1"), App("+", (Var("x1"), App(str(b - a)))))


# The additive four-way factorization a=k+o, b=l+o, c=k+u, d=l+u has the
# canonical witness o = 0, k = a, l = b, u = c - a, so it holds exactly when
# d = b + c - a: the difference proportion.
decide_sy_add = decide_mono_add


# ---------------------------------------------------------------------------
# Multiplicative proportions over Q and over N2 = {2, 3, ...}


def _nat_factorizations(a: int, b: int, c: int, d: Optional[int]) -> Iterator[tuple[int, int, int, int]]:
    """All (k, l, o, u) over positive naturals with a=ko, b=lo, c=ku (and d=lu)."""
    for k in divisors(math.gcd(a, c)):
        o = a // k
        if b % o:
            continue
        l = b // o
        u = c // k
        if d is None or l * u == d:
            yield (k, l, o, u)


def decide_mono_mul(a, b, c, d, domain: str = "q") -> bool:
    """Geometric proportion.

    Over the rationals (``domain='q'``): a/b = c/d with all inputs nonzero.
    Over the naturals >= 2 (``domain='n2'``): the four-way factorization
    a=ko, b=lo, c=ku, d=lu with positive natural factors, decided by divisor
    enumeration.
    """
    if domain == "n2":
        _require_n2(a, b, c, d)
        return next(_nat_factorizations(a, b, c, d), None) is not None
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if 0 in (a, b, c, d):
        raise ValueError("the ratio form requires nonzero rationals")
    return a / b == c / d


def solve_mono_mul(a, b, c, domain: str = "q") -> set:
    """Solutions d of a : b :: c : d in the geometric reading."""
    if domain == "n2":
        _require_n2(a, b, c)
        return {l * u for _, l, _, u in _nat_factorizations(a, b, c, None) if l * u >= 2}
    a, b, c = (Fraction(v) for v in (a, b, c))
    if a == 0:
        raise ValueError("solving requires a nonzero first element")
    return {b * c / a}


def _require_n2(*values) -> None:
    for v in values:
        if not isinstance(v, int) or v < 2:
            raise ValueError(f"{v!r} is not a natural number >= 2")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def decide_prime_mono(p: int, q: int, p2: int, q2: int) -> bool:
    """For primes: p : q :: p2 : q2 iff (p=q and p2=q2) or (p=p2 and q=q2)."""
    for v in (p, q, p2, q2):
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
    return (p == q and p2 == q2) or (p == p2 and q == q2)


# ---------------------------------------------------------------------------
# Monolinear word proportions


@dataclass(frozen=True)
class WordFactorization:
    """A witness split: a = a1 a2 a3, b = b1 a2 b3, c = a1 b2 a3, d = b1 b2 b3."""

    a1: str
    a2: str
    a3: str
    b1: str
    b2: str
    b3: str

    @property
    def words(self) -> tuple[str, str, str, str]:
        return (
            self.a1 + self.a2 + self.a3,
            self.b1 + self.a2 + self.b3,
            self.a1 + self.b2 + self.a3,
            self.b1 + self.b2 + self.b3,
        )


def _word_splits(a: str, b: str, c: str) -> Iterator[WordFactorization]:
    """All factorizations consistent with the first three words."""
    for i in range(len(a) + 1):
        for j in range(i, len(a) + 1):
            a1, a2, a3 = a[:i], a[i:j], a[j:]
            if not (c.startswith(a1) and c.endswith(a3) and len(c) >= len(a1) + len(a3)):
                continue
            b2 = c[len(a1) : len(c) - len(a3)]
            start = 0
            while True:
                k = b.find(a2, start)
                if k < 0:
                    break
                start = k + 1
                yield WordFactorization(a1, a2, a3, b[:k], b2, b[k + len(a2) :])


def decide_mono_word(a: str, b: str, c: str, d: str) -> Optional[WordFactorization]:
    """A witnessing factorization of the monolinear word proportion, if any."""
    for split in _word_splits(a, b, c):
        if split.words[3] == d:
            return split
    return None


def solve_mono_word(a: str, b: str, c: str) -> list[str]:
    """All solutions d of a : b :: c : d, sorted lexicographically."""
    return sorted({split.words[3] for split in _word_splits(a, b, c)})


# ---------------------------------------------------------------------------
# Segment-alignment (SY) word proportions


@dataclass(frozen=True)
class SYFactorization:
    """Aligned factor sequences: per index, (a_i=b_i and c_i=d_i) or (a_i=c_i and b_i=d_i)."""

    a_factors: tuple[str, ...]
    b_factors: tuple[str, ...]
    c_factors: tuple[str, ...]
    d_factors: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.a_factors)

    @property
    def words(self) -> tuple[str, str, str, str]:
        return (
            "".join(self.a_factors),
            "".join(self.b_factors),
            "".join(self.c_factors),
            "".join(self.d_factors),
        )

    def valid(self) -> bool:
        rows = (self.a_factors, self.b_factors, self.c_factors, self.d_factors)
        if len({len(r) for r in rows}) != 1:
            return False
        for ai, bi, ci, di in zip(*rows):
            if not ((ai == bi and ci == di) or (ai == ci and bi == di)):
                return False
        return True


def decide_sy_word(a: str, b: str, c: str, d: str,
                   allow_empty: bool = False) -> Optional[SYFactorization]:
    """Search an aligned factorization witnessing the SY word relation.

    Factors are non-empty words unless ``allow_empty`` is set.  The search runs
    over consumption states (i, j, k) of the first three words; the fourth
    position is pinned by the length invariant i + l = j + k.
    """
    if len(a) + len(d) != len(b) + len(c):
        return None
    lo = 0 if allow_empty else 1
    goal = (len(a), len(b), len(c))
    start = (0, 0, 0)
    if start == goal and len(d) == 0:
        return SYFactorization((), (), (), ())
    parents: dict[tuple[int, int, int], tuple] = {start: ()}
    queue = [start]
    while queue and goal not in parents:
        state = queue.pop()
        i, j, k = state
        l = j + k - i
        if l < 0 or l > len(d):
            continue
        # pattern 1: a_t = b_t = u, c_t = d_t = v
        for p in range(lo, len(a) - i + 1):
            u = a[i : i + p]
            if b[j : j + p] != u:
                break
            for q in range(lo, len(c) - k + 1):
                if p == q == 0:
                    continue
                v = c[k : k + q]
                if d[l : l + q] != v:
                    break
                _advance(parents, queue, state, (i + p, j + p, k + q), (u, u, v, v), len(d))
        # pattern 2: a_t = c_t = u, b_t = d_t = v
        for p in range(lo, len(a) - i + 1):
            u = a[i : i + p]
            if c[k : k + p] != u:
                break
            for q in range(lo, len(b) - j + 1):
                if p == q == 0:
                    continue
                v = b[j : j + q]
                if d[l : l + q] != v:
                    break
                _advance(parents, queue, state, (i + p, j + q, k + p), (u, v, u, v), len(d))
    if goal not in parents:
        return None
    factors: list[tuple[str, str, str, str]] = []
    state = goal
    while state != start:
        prev, quad = parents[state]
        factors.append(quad)
        state = prev
    factors.reverse()
    fact = SYFactorization(*map(tuple, zip(*factors))) if factors else SYFactorization((), (), (), ())
    assert fact.valid() and fact.words == (a, b, c, d)
    return fact


def _advance(parents, queue, state, nxt, quad, dlen) -> None:
    i, j, k = nxt
    l = j + k - i
    if l < 0 or l > dlen or nxt in parents:
        return
    parents[nxt] = (state, quad)
    queue.append(nxt)


def sy_witness_rule(a: str, b: str, c: str, d: str) -> RewriteRule:
    """Witness rule from a letterwise SY factorization.

    Positions where the left pair differs from the right pair become shared
    variables; the rule maps a's remaining letters to b's.  Requires all four
    words to have equal length and to satisfy the letterwise condition.
    """
    n = len(a)
    if not (len(b) == len(c) == len(d) == n):
        raise ValueError("the letterwise construction requires words of equal length")
    lhs: list[Term] = []
    rhs: list[Term] = []
    m = 0
    for i in range(n):
        first = a[i] == b[i] and c[i] == d[i]
        second = a[i] == c[i] and b[i] == d[i]
        if not (first or second):
            raise ValueError(f"position {i + 1} violates the letterwise condition")
        if a[i] != c[i]:
            m += 1
            lhs.append(Var(f"x{m}"))
            rhs.append(Var(f"x{m}"))
        else:
            lhs.append(App(a[i]))
            rhs.append(App(b[i]))
    if m == 0:
        return RewriteRule(App(a) if a else App("%e"), App(b) if b else App("%e"))
    return RewriteRule(word_pattern_term(lhs), word_pattern_term(rhs))
