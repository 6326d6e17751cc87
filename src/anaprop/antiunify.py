"""Algebraic anti-unification over the multiplicative naturals.

A generalization of a number n >= 2 is a monomial c * x1^e1 * ... * xv^ev
that evaluates to n under some assignment of values >= 2.  Minimally general
generalizations are the minima of the instance ordering: m1 is below m2 when
every value reachable by m1 is reachable by m2 (downset inclusion), which is
decided exactly through a small covering search over exponent patterns.

A depth-bounded generic fallback covers arbitrary finite algebras.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .algebras import FiniteAlgebra, divisors, power_tuples
from .terms import App, Term, Var, canonical_term, right_nested

_VAR_LETTERS = "xyzvwpqrst"


@dataclass(frozen=True, order=True)
class Monomial:
    """Canonical monomial: positive coefficient and descending exponent tuple."""

    coeff: int
    exps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.coeff < 1:
            raise ValueError("coefficient must be positive")
        if self.coeff == 1 and not self.exps:
            raise ValueError("the bare unit is not a monomial over the naturals >= 2")
        if any(e < 1 for e in self.exps):
            raise ValueError("exponents must be positive")
        if tuple(sorted(self.exps, reverse=True)) != self.exps:
            raise ValueError("exponents must be sorted in descending order")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def __str__(self) -> str:
        parts = [] if self.coeff == 1 and self.exps else [str(self.coeff)]
        for letter, e in zip(_VAR_LETTERS, self.exps):
            parts.append(letter if e == 1 else f"{letter}^{e}")
        return "".join(parts)


def monomial(coeff: int, *exps: int) -> Monomial:
    return Monomial(coeff, tuple(sorted(exps, reverse=True)))


def monomial_term(m: Monomial) -> Term:
    """The monomial as a term over {*, constants}, variables x1, x2, ..."""
    return monomial_over(m.coeff, {f"x{i}": e for i, e in enumerate(m.exps, start=1)})


def monomial_over(coeff: int, exps: dict[str, int]) -> Term:
    """The term coeff * v1^e1 * ... as nested products, variables in the order of ``exps``."""
    factors: list[Term] = [App(str(coeff))] if coeff != 1 else []
    for name, e in exps.items():
        factors.extend([Var(name)] * e)
    if not factors:
        raise ValueError("empty monomial")
    return right_nested("*", factors)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def _realizable(n: int, exps: tuple[int, ...]) -> bool:
    """Can n be written as a product o1^e1 * ... * ov^ev with all oi >= 2?"""
    return bool(power_tuples(n, exps))


def _exponent_multisets(limit: int) -> Iterable[tuple[int, ...]]:
    """Non-empty descending exponent tuples with 2^(sum) within limit."""
    budget = limit.bit_length() - 1

    def build(prefix: tuple[int, ...], cap: int, left: int):
        for e in range(min(cap, left), 0, -1):
            ext = prefix + (e,)
            yield ext
            yield from build(ext, e, left - e)

    yield from build((), budget, budget)


def monomial_gens(n: int) -> set[Monomial]:
    """All monomial generalizations of n over the multiplicative naturals."""
    if n < 2:
        raise ValueError("generalization sets are defined for n >= 2")
    out = {Monomial(n)}
    for c in divisors(n):
        rest = n // c
        if rest == 1:
            continue
        for exps in _exponent_multisets(rest):
            if _realizable(rest, exps):
                out.add(Monomial(c, exps))
    return out


def common_gens(a: int, b: int) -> set[Monomial]:
    """Shared generalizations of two naturals."""
    return monomial_gens(a) & monomial_gens(b)


# ---------------------------------------------------------------------------
# Downset inclusion


def _completions(total: int, weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All nonnegative integer tuples m with sum(w_j * m_j) == total."""
    out: list[tuple[int, ...]] = []

    def build(i: int, left: int, acc: tuple[int, ...]):
        if i == len(weights):
            if left == 0:
                out.append(acc)
            return
        w = weights[i]
        for m in range(left // w + 1):
            build(i + 1, left - w * m, acc + (m,))

    build(0, total, ())
    return out


def _masks(total: int, weights: tuple[int, ...]) -> Optional[set[int]]:
    """Activation masks achievable by completions of ``total``; None if none exist."""
    sols = _completions(total, weights)
    if not sols:
        return None
    return {
        sum(1 << j for j, m in enumerate(sol) if m) for sol in sols
    }


def instance_subset(m1: Monomial, m2: Monomial) -> bool:
    """Downset inclusion: every value of m1 is a value of m2.

    Writing m1 = c1 * prod xi^ei and m2 = c2 * prod yj^fj, inclusion holds
    exactly when c2 divides c1 and the exponent pattern of m1 (plus the prime
    exponents of c1/c2) can be covered by the pattern of m2 with every m2
    variable receiving something; decided by a small mask-union search.
    """
    return _instance_subset(m1, m2, _masks)


def _instance_subset(m1: Monomial, m2: Monomial,
                     masks_of: Callable[[int, tuple[int, ...]], Optional[set[int]]]) -> bool:
    """instance_subset, with ``masks_of`` in place of _masks (a memo of it, say)."""
    if m1 == m2:
        return True
    if not m1.exps:
        # singleton downset {c1}: membership test in m2's downset
        if m1.coeff % m2.coeff:
            return False
        return _realizable(m1.coeff // m2.coeff, m2.exps)
    if not m2.exps:
        return False
    if m1.coeff % m2.coeff:
        return False
    r = m1.coeff // m2.coeff
    weights = m2.exps
    full = (1 << len(weights)) - 1
    mask_sources: list[set[int]] = []
    for e in m1.exps:
        masks = masks_of(e, weights)
        if masks is None:
            return False
        mask_sources.append(masks)
    for prime_exp in _factorize(r).values():
        masks = masks_of(prime_exp, weights)
        if masks is None:
            return False
        mask_sources.append(masks)
    reachable = {0}
    for masks in mask_sources:
        reachable = {u | m for u in reachable for m in masks}
    return any(u == full for u in reachable)


def mgg(a: int, b: int, gens: Optional[set[Monomial]] = None) -> set[Monomial]:
    """Minimally general generalizations: minima of the instance ordering.

    ``gens`` is common_gens(a, b), for a caller that has computed it already.
    One pass keeps the minima of the generalizations seen so far: a new one is
    dropped when a kept one lies strictly below it, and otherwise it drops the
    kept ones strictly above it.  As instance_subset is a preorder, an element
    strictly below the new one would have a kept one strictly below it too.
    """
    if gens is None:
        gens = common_gens(a, b)
    masks_of = cache(_masks)  # the pairs repeat the same few patterns; kept for this call
    minima: list[Monomial] = []
    for g in gens:
        kept = []
        for m in minima:
            m_below, g_below = _instance_subset(m, g, masks_of), _instance_subset(g, m, masks_of)
            if m_below and not g_below:
                break
            if m_below or not g_below:
                kept.append(m)
        else:
            kept.append(g)
            minima = kept
    return set(minima)


# ---------------------------------------------------------------------------
# Generic depth-bounded fallback for finite algebras


def bounded_gens(values: Sequence, algebra: FiniteAlgebra, k: int, depth: int) -> set[Term]:
    """All terms to the given depth with <= k variables that can evaluate to
    each of ``values``, the fragment enumerated once for all of them.  A bare
    string is refused rather than read as a sequence of one-character values."""
    from .oracle import enumerate_fragment, term_tables

    if isinstance(values, str):
        raise TypeError(f"bounded_gens takes a sequence of values, not the string {values!r}")
    terms, batches, _ = enumerate_fragment(algebra.signature, k, None, depth)
    if any(value not in algebra.carrier for value in values):
        return set()
    targets = [algebra.index(value) for value in values]
    return {canonical_term(term)
            for term, table in zip(terms, term_tables(algebra, k, terms, batches))
            if all(target in table for target in targets)}
