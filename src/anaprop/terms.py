"""First-order terms, signatures, matching, and rewrite rules.

Variables are canonically named ``x1, x2, ...``; anything matching ``x<digits>``
parses as a variable, every other token as a function symbol.  All values are
immutable and safe to share between threads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

VAR_RE = re.compile(r"x[0-9]+\Z")


def is_var_name(name: str) -> bool:
    return VAR_RE.match(name) is not None


class Term:
    """Base class; concrete terms are :class:`Var` or :class:`App`."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...] = ()


# A substitution is a plain mapping from variable names to terms.
Substitution = Mapping[str, Term]


@dataclass(frozen=True)
class Signature:
    """Ranked alphabet: each function symbol has a fixed arity (rank 0 = constant)."""

    ranks: Mapping[str, int]

    def __post_init__(self) -> None:
        for name, rank in self.ranks.items():
            if rank < 0:
                raise ValueError(f"negative rank for symbol {name!r}")
            if is_var_name(name):
                raise ValueError(f"symbol name {name!r} collides with variable syntax")

    def rank(self, symbol: str) -> int:
        try:
            return self.ranks[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def symbols(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.ranks.items()))

    def constants(self) -> list[str]:
        return sorted(s for s, r in self.ranks.items() if r == 0)

    def validate(self, term: Term) -> None:
        """Check arities and symbol membership throughout ``term``."""
        if isinstance(term, Var):
            return
        assert isinstance(term, App)
        rank = self.rank(term.symbol)
        if rank != len(term.args):
            raise ValueError(
                f"symbol {term.symbol!r} has rank {rank}, got {len(term.args)} arguments"
            )
        for arg in term.args:
            self.validate(arg)


@dataclass(frozen=True)
class RewriteRule:
    """A justification ``lhs -> rhs``; every rhs variable must occur in the lhs."""

    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        extra = variables(self.rhs) - variables(self.lhs)
        if extra:
            raise ValueError(
                f"rewrite rule has unbound right-hand variables: {sorted(extra)}"
            )

    def __str__(self) -> str:
        return f"{render(self.lhs)} -> {render(self.rhs)}"


def variables(term: Term) -> set[str]:
    """The set of variable names occurring in ``term``."""
    out: set[str] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.name)
        else:
            assert isinstance(t, App)
            stack.extend(t.args)
    return out


def count_occurrences(term: Term, name: str) -> int:
    """Number of leaf positions of ``term`` labelled with the variable ``name``."""
    if isinstance(term, Var):
        return 1 if term.name == name else 0
    assert isinstance(term, App)
    return sum(count_occurrences(a, name) for a in term.args)


def substitute(term: Term, sigma: Substitution) -> Term:
    """Replace every occurrence of each mapped variable simultaneously."""
    if isinstance(term, Var):
        return sigma.get(term.name, term)
    assert isinstance(term, App)
    if not term.args:
        return term
    return App(term.symbol, tuple(substitute(a, sigma) for a in term.args))


def generalizes(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching: a substitution sigma with ``subject == pattern sigma``.

    Returns None when no match exists; each pattern variable binds to exactly
    one subterm, and conflicting bindings fail.
    """
    binding: dict[str, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            seen = binding.get(p.name)
            if seen is None:
                binding[p.name] = s
            elif seen != s:
                return None
        else:
            assert isinstance(p, App)
            if not isinstance(s, App) or s.symbol != p.symbol or len(s.args) != len(p.args):
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def rule_generalizes(r1: RewriteRule, r2: RewriteRule) -> bool:
    """Componentwise generalization order on rules: each side matches independently."""
    return generalizes(r2.lhs, r1.lhs) is not None and generalizes(r2.rhs, r1.rhs) is not None


Position = tuple[int, ...]


def positions(term: Term) -> Iterator[tuple[Position, Term]]:
    """All (Dewey path, subterm) pairs of ``term`` in preorder."""
    stack: list[tuple[Position, Term]] = [((), term)]
    while stack:
        pos, t = stack.pop()
        yield pos, t
        if isinstance(t, App):
            for i in reversed(range(len(t.args))):
                stack.append((pos + (i,), t.args[i]))


def subterm_at(term: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(term, App) or i >= len(term.args):
            raise ValueError(f"invalid position {pos}")
        term = term.args[i]
    return term


def occurrences(term: Term, sub: Term) -> list[Position]:
    """Dewey paths of every occurrence of ``sub`` inside ``term``."""
    return [pos for pos, t in positions(term) if t == sub]


def replace_at(term: Term, pos: Position, replacement: Term) -> Term:
    if not pos:
        return replacement
    if not isinstance(term, App) or pos[0] >= len(term.args):
        raise ValueError(f"invalid position {pos}")
    i = pos[0]
    args = list(term.args)
    args[i] = replace_at(args[i], pos[1:], replacement)
    return App(term.symbol, tuple(args))


def replace_subterm(term: Term, sub: Term, replacement: Term,
                    at: Iterable[Position]) -> Term:
    """Replace the given occurrences of ``sub`` in ``term`` by ``replacement``.

    The empty position set returns ``term`` unchanged.  Raises ValueError when a
    listed position is not an occurrence of ``sub``.
    """
    out = term
    for pos in sorted(at, reverse=True):
        if subterm_at(term, pos) != sub:
            raise ValueError(f"position {pos} does not hold an occurrence of {sub}")
        out = replace_at(out, pos, replacement)
    return out


# ---------------------------------------------------------------------------
# Renaming and building

def _preorder_vars(term: Term) -> Iterator[str]:
    if isinstance(term, Var):
        yield term.name
    else:
        assert isinstance(term, App)
        for a in term.args:
            yield from _preorder_vars(a)


def fresh_renaming(terms: Iterable[Term], avoid: Iterable[str] = ()) -> dict[str, Term]:
    """Rename the variables of ``terms`` to x1, x2, ... by first occurrence in
    preorder, skipping the names in ``avoid``."""
    used = set(avoid)
    renaming: dict[str, Term] = {}
    n = 0
    for term in terms:
        for name in _preorder_vars(term):
            if name in renaming:
                continue
            n += 1
            while f"x{n}" in used:
                n += 1
            renaming[name] = Var(f"x{n}")
            used.add(f"x{n}")
    return renaming


def canonical_term(term: Term) -> Term:
    return substitute(term, fresh_renaming([term]))


def canonical_rule(rule: RewriteRule) -> RewriteRule:
    sigma = fresh_renaming([rule.lhs, rule.rhs])
    return RewriteRule(substitute(rule.lhs, sigma), substitute(rule.rhs, sigma))


def right_nested(symbol: str, items: Sequence[Term]) -> Term:
    """``symbol(i1, symbol(i2, ... symbol(i(n-1), in)))`` over non-empty ``items``."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = App(symbol, (item, out))
    return out


# ---------------------------------------------------------------------------
# Surface syntax: prefix notation `f(a,x1)`, rules `lhs -> rhs`.

class TermSyntaxError(ValueError):
    pass


_TOKEN_RE = re.compile(r"\s*([(),]|[^\s(),]+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            break
        tokens.append(m.group(1))
        i = m.end()
    if text[i:].strip():
        raise TermSyntaxError(f"cannot tokenize {text[i:]!r}")
    return tokens


def parse_term(text: str, signature: Optional[Signature] = None) -> Term:
    """Parse prefix syntax, e.g. ``f(a,x1)``; bare tokens are constants or variables."""
    tokens = _tokenize(text)
    pos = 0

    def parse() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise TermSyntaxError(f"unexpected end of input in {text!r}")
        tok = tokens[pos]
        if tok in "(),":
            raise TermSyntaxError(f"unexpected {tok!r} in {text!r}")
        pos += 1
        if is_var_name(tok):
            return Var(tok)
        args: tuple[Term, ...] = ()
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            if pos >= len(tokens):
                raise TermSyntaxError(f"missing ')' in {text!r}")
            items = []
            if tokens[pos] != ")":
                items.append(parse())
                while pos < len(tokens) and tokens[pos] == ",":
                    pos += 1
                    items.append(parse())
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TermSyntaxError(f"missing ')' in {text!r}")
            pos += 1
            args = tuple(items)
        return App(tok, args)

    term = parse()
    if pos != len(tokens):
        raise TermSyntaxError(f"trailing input {' '.join(tokens[pos:])!r} in {text!r}")
    if signature is not None:
        signature.validate(term)
    return term


def split_rule(text: str) -> tuple[str, str]:
    """The two sides of ``s -> t``, unparsed."""
    parts = text.split("->")
    if len(parts) != 2:
        raise TermSyntaxError(f"a rule must have the form 's -> t', got {text!r}")
    return parts[0], parts[1]


def parse_rule(text: str, signature: Optional[Signature] = None) -> RewriteRule:
    lhs, rhs = split_rule(text)
    return RewriteRule(parse_term(lhs, signature), parse_term(rhs, signature))


def render(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    assert isinstance(term, App)
    if not term.args:
        return term.symbol
    return f"{term.symbol}({','.join(render(a) for a in term.args)})"


def signature_of(terms: Iterable[Term]) -> Signature:
    """Infer the smallest signature under which all ``terms`` are well-formed."""
    ranks: dict[str, int] = {}
    def visit(t: Term) -> None:
        if isinstance(t, Var):
            return
        assert isinstance(t, App)
        seen = ranks.get(t.symbol)
        if seen is not None and seen != len(t.args):
            raise ValueError(f"symbol {t.symbol!r} used with ranks {seen} and {len(t.args)}")
        ranks[t.symbol] = len(t.args)
        for a in t.args:
            visit(a)
    for t in terms:
        visit(t)
    return Signature(ranks)


def term_size(term: Term) -> int:
    if isinstance(term, Var):
        return 1
    assert isinstance(term, App)
    return 1 + sum(term_size(a) for a in term.args)


def term_depth(term: Term) -> int:
    """Leaves (variables and constants) have depth 0."""
    if isinstance(term, Var) or not term.args:
        return 0
    assert isinstance(term, App)
    return 1 + max(term_depth(a) for a in term.args)
