"""Algebras: evaluation of terms, solution sets, uniqueness and injectivity.

A term ``s`` with variables ``x1..xn`` induces a function on an algebra; the
solution set ``solution_set(s, a)`` collects the assignments mapping the term
to ``a``.  Finite algebras answer every query exhaustively; the built-in
infinite algebras (integers with addition, rationals/naturals with
multiplication, words with concatenation, the term algebra) answer through
per-domain solving rules and raise :class:`UnsupportedQuery` for shapes they
cannot list.
"""
from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional

from .terms import (
    App,
    Signature,
    Term,
    TermSyntaxError,
    Var,
    generalizes,
    is_var_name,
    parse_term,
    right_nested,
    variables,
)

Element = Any
Assignment = dict[str, Element]


class UnsupportedQuery(Exception):
    """Raised when a built-in algebra cannot decide a query for this term shape."""


class UnlistableSolutions(UnsupportedQuery):
    """Raised instead of listing a solution set that is empty or infinite, so
    it never has exactly one assignment."""


class AlgebraFormatError(ValueError):
    """Raised on malformed finite-algebra files, with field diagnostics."""


class Algebra:
    """Common interface; values are immutable after construction.

    Subclasses set ``name`` (used in error messages and the CLI).
    """

    is_finite = False

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    def solutions(self, term: Term, value: Element) -> Iterable[Assignment]:
        """The assignments sending ``term`` to ``value``: a list, or a generator
        when stopping early saves work.  The one solution method an algebra
        writes; ``solution_set`` and ``in_unity_set`` read it."""
        raise UnsupportedQuery(
            f"solution sets are not enumerable over {self.name} for {term}"
        )

    def injective(self, term: Term) -> bool:
        raise UnsupportedQuery(f"injectivity undecided over {self.name} for {term}")


def eval_term(term: Term, assignment: Assignment, algebra: Algebra) -> Element:
    """Value of the function induced by ``term`` at ``assignment``."""
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise ValueError(f"unassigned variable {term.name}") from None
    assert isinstance(term, App)
    return algebra.apply(term.symbol, tuple(eval_term(a, assignment, algebra) for a in term.args))


def solution_set(term: Term, value: Element, algebra: Algebra) -> list[Assignment]:
    """All assignments over the term's variables evaluating it to ``value``."""
    return list(algebra.solutions(term, value))


def in_unity_set(term: Term, value: Element, algebra: Algebra) -> bool:
    """True iff the equation ``term = value`` has exactly one solution; the
    solutions are counted up to two."""
    try:
        return len(list(itertools.islice(algebra.solutions(term, value), 2))) == 1
    except UnlistableSolutions:
        return False


def is_injective_term(term: Term, algebra: Algebra) -> bool:
    return algebra.injective(term)


# ---------------------------------------------------------------------------
# Finite algebras


@dataclass(frozen=True)
class FiniteAlgebra(Algebra):
    """Finite carrier with total operation tables and distinguished elements."""

    name: str
    carrier: tuple[str, ...]
    constants: dict[str, str] = field(default_factory=dict)
    ops: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)

    is_finite = True

    def __post_init__(self) -> None:
        if not self.carrier:
            raise AlgebraFormatError(f"algebra {self.name!r}: empty carrier")
        if len(set(self.carrier)) != len(self.carrier):
            raise AlgebraFormatError(f"algebra {self.name!r}: duplicate carrier labels")
        members = set(self.carrier)
        # a saved table row joins its argument labels with ',' (algebra_to_json)
        for label in self.carrier:
            if "," in label:
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: carrier label {label!r} contains ','"
                )
        for sym, elem in self.constants.items():
            if elem not in members:
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: constant {sym!r} maps outside the carrier"
                )
        for sym, table in self.ops.items():
            if sym in self.constants:
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: symbol {sym!r} is both constant and operation"
                )
            arities = {len(args) for args in table}
            if len(arities) != 1:
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: inconsistent arities in table for {sym!r}"
                )
            arity = arities.pop()
            if arity == 0:
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: rank-0 symbol {sym!r} belongs in constants"
                )
            if arity == 1 and "" in members:  # its saved row would be the empty key
                raise AlgebraFormatError(
                    f"algebra {self.name!r}: carrier label '' cannot be the argument "
                    f"of unary symbol {sym!r}"
                )
            for args in itertools.product(self.carrier, repeat=arity):
                if args not in table:
                    pretty = ",".join(args)
                    raise AlgebraFormatError(
                        f"algebra {self.name!r}: missing table row for {sym}({pretty})"
                    )
            for args, result in table.items():
                if result not in members or any(a not in members for a in args):
                    raise AlgebraFormatError(
                        f"algebra {self.name!r}: table for {sym!r} leaves the carrier "
                        f"at row {args!r}"
                    )

    @cached_property
    def signature(self) -> Signature:
        ranks = {sym: 0 for sym in self.constants}
        for sym, table in self.ops.items():
            ranks[sym] = len(next(iter(table)))
        return Signature(ranks)

    @cached_property
    def index_tables(self) -> dict[str, dict[tuple[int, ...], int]]:
        """Each operation's table over carrier indices."""
        return {
            sym: {tuple(self.index(x) for x in args): self.index(res)
                  for args, res in table.items()}
            for sym, table in self.ops.items()
        }

    @cached_property
    def byte_tables(self) -> dict[str, bytes]:
        """Each operation whose argument codes fit one byte, n ** rank <= 256 for
        n elements, as a 256-byte table: the byte at code
        ``sum(args[p] * n ** (rank - 1 - p))`` is the value's index at those
        argument indices."""
        n = len(self.carrier)
        out = {}
        for sym, table in self.index_tables.items():
            rank = len(next(iter(table)))
            if n ** rank <= 256:
                codes = itertools.product(range(n), repeat=rank)
                out[sym] = bytes(map(table.__getitem__, codes)).ljust(256, b"\0")
        return out

    def index(self, element: str) -> int:
        return self.carrier.index(element)

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        if not args:
            try:
                return self.constants[symbol]
            except KeyError:
                raise ValueError(f"unknown constant {symbol!r} in {self.name}") from None
        table = self.ops.get(symbol)
        if table is None:
            raise ValueError(f"unknown operation {symbol!r} in {self.name}")
        try:
            return table[args]
        except KeyError:
            raise ValueError(
                f"arity mismatch for {symbol!r} in {self.name}: {args!r}"
            ) from None

    def parse_element(self, text: str) -> Element:
        if text not in self.carrier:
            raise ValueError(f"{text!r} is not an element of {self.name}")
        return text

    def assignments(self, names: list[str]) -> Iterator[Assignment]:
        for values in itertools.product(self.carrier, repeat=len(names)):
            yield dict(zip(names, values))

    def _values(self, term: Term) -> Iterator[tuple[Assignment, Element]]:
        """Each assignment of the term's variables, with the term's value under it."""
        for alpha in self.assignments(sorted(variables(term))):
            yield alpha, eval_term(term, alpha, self)

    def solutions(self, term: Term, value: Element) -> Iterator[Assignment]:
        return (alpha for alpha, v in self._values(term) if v == value)

    def injective(self, term: Term) -> bool:
        seen = set()
        for _, v in self._values(term):
            if v in seen:
                return False
            seen.add(v)
        return True


def check_homomorphism(h: dict[str, str], source: FiniteAlgebra,
                       target: FiniteAlgebra) -> bool:
    """True iff ``h`` commutes with every operation table and constant."""
    if set(h) != set(source.carrier):
        raise ValueError("homomorphism must be total on the source carrier")
    if any(v not in target.carrier for v in h.values()):
        raise ValueError("homomorphism must map into the target carrier")
    for sym, elem in source.constants.items():
        if h[elem] != target.constants.get(sym):
            return False
    for sym, table in source.ops.items():
        target_table = target.ops.get(sym)
        if target_table is None:
            return False
        for args, result in table.items():
            if target_table[tuple(h[a] for a in args)] != h[result]:
                return False
    return True


# ---------------------------------------------------------------------------
# Finite-algebra file format (canonical JSON, loadable back bit-exactly)


def algebra_to_json(algebra: FiniteAlgebra) -> str:
    doc = {
        "name": algebra.name,
        "carrier": list(algebra.carrier),
        "constants": {s: algebra.constants[s] for s in sorted(algebra.constants)},
        "ops": [
            {
                "symbol": sym,
                "arity": len(next(iter(algebra.ops[sym]))),
                "table": {
                    ",".join(args): algebra.ops[sym][args]
                    for args in sorted(algebra.ops[sym])
                },
            }
            for sym in sorted(algebra.ops)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def algebra_from_json(text: str) -> FiniteAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise AlgebraFormatError("top level must be an object")
    for fld in ["name", "carrier"]:
        if fld not in doc:
            raise AlgebraFormatError(f"missing field {fld!r}")
    carrier = doc["carrier"]
    if not isinstance(carrier, list) or not all(isinstance(e, str) for e in carrier):
        raise AlgebraFormatError("field 'carrier' must be a list of labels")
    constants = doc.get("constants", {})
    if not isinstance(constants, dict):
        raise AlgebraFormatError("field 'constants' must be a map symbol -> label")
    op_docs = doc.get("ops", [])
    if not isinstance(op_docs, list):
        raise AlgebraFormatError("field 'ops' must be a list of operation objects")
    ops: dict[str, dict[tuple[str, ...], str]] = {}
    for i, op in enumerate(op_docs):
        context = f"ops[{i}]"
        if not isinstance(op, dict):
            raise AlgebraFormatError(f"{context}: an operation must be an object "
                                     f"with fields 'symbol', 'arity' and 'table'")
        for fld in ["symbol", "arity", "table"]:
            if fld not in op:
                raise AlgebraFormatError(f"{context}: missing field {fld!r}")
        symbol, arity, table = op["symbol"], op["arity"], op["table"]
        if not isinstance(symbol, str):
            raise AlgebraFormatError(f"{context}: field 'symbol' must be a string")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise AlgebraFormatError(f"{context}: arity must be a positive integer")
        if not isinstance(table, dict):
            raise AlgebraFormatError(
                f"{context}: field 'table' must map argument rows to labels")
        parsed: dict[tuple[str, ...], str] = {}
        for key, result in table.items():
            if not isinstance(result, str):
                raise AlgebraFormatError(
                    f"{context}: table row {key!r} must map to a label, got {json.dumps(result)}")
            args = tuple(key.split(",")) if key else ()
            if len(args) != arity:
                raise AlgebraFormatError(
                    f"{context}: table row {key!r} does not have arity {arity}"
                )
            parsed[args] = result
        ops[symbol] = parsed
    try:
        return FiniteAlgebra(
            name=doc["name"], carrier=tuple(carrier), constants=dict(constants), ops=ops
        )
    except AlgebraFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise AlgebraFormatError(str(exc)) from None


def load_finite_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return algebra_from_json(text)
    except AlgebraFormatError as exc:
        raise AlgebraFormatError(f"algebra file {path!r}: {exc}") from None


def load_signature(path: str) -> Signature:
    """The signature in a term-algebra file: ``{"symbols": {symbol: rank, ...}}``."""
    def malformed(problem: str) -> AlgebraFormatError:
        return AlgebraFormatError(f"signature file {path!r}: {problem}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise malformed(f"not valid JSON: {exc}") from None
    symbols = doc.get("symbols") if isinstance(doc, dict) else None
    if not isinstance(symbols, dict):
        raise malformed('expected an object whose "symbols" maps each symbol to its rank')
    for symbol, rank in symbols.items():
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise malformed(f"the rank of symbol {symbol!r} must be a non-negative integer, "
                            f"got {json.dumps(rank)}")
    try:
        return Signature(dict(symbols))
    except ValueError as exc:  # a symbol named like a variable
        raise malformed(str(exc)) from None


def save_finite_algebra(algebra: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_to_json(algebra))


# ---------------------------------------------------------------------------
# Linear / monomial normal forms shared by the numeric built-ins


def _fold_form(term: Term, symbol: str, unit, parse_const, combine, domain: str
               ) -> tuple[Any, dict[str, int]]:
    """Fold a term over {symbol, constants} to a constant and per-variable counts."""
    if isinstance(term, Var):
        return unit, {term.name: 1}
    assert isinstance(term, App)
    if not term.args:
        return parse_const(term.symbol), {}
    if term.symbol != symbol:
        raise ValueError(f"unknown symbol {term.symbol!r} over {domain}")
    if len(term.args) != 2:
        raise ValueError(f"{symbol!r} has rank 2")
    const = unit
    counts: dict[str, int] = {}
    for arg in term.args:
        c, cs = _fold_form(arg, symbol, unit, parse_const, combine, domain)
        const = combine(const, c)
        for v, m in cs.items():
            counts[v] = counts.get(v, 0) + m
    return const, counts


def linear_form(term: Term) -> tuple[int, dict[str, int]]:
    """Normalize a term over {+, integer constants} to constant + coefficients."""
    return _fold_form(term, "+", 0, _parse_int, operator.add, "integer addition")


def monomial_form(term: Term, parse_const) -> tuple[Any, dict[str, int]]:
    """Normalize a term over {*, constants} to coefficient * product of powers."""
    return _fold_form(term, "*", 1, parse_const, operator.mul, "multiplication")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer constant") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a rational constant") from None


def _nth_root(n: int, e: int) -> Optional[int]:
    """Exact nonnegative e-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    if n in (0, 1) or e == 1:
        return n
    if n.bit_length() <= 52:  # the float root is within one of the exact one
        r = round(n ** (1.0 / e))
    else:  # integer Newton iteration from above, to the floor of the root
        r = 1 << -(-n.bit_length() // e)
        while (s := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
            r = s
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** e == n:
            return cand
    return None


def _fraction_root(v: Fraction, e: int) -> Optional[Fraction]:
    """A rational e-th root of ``v`` (the positive one for even ``e``), or None."""
    if v == 0:
        return Fraction(0)
    if v < 0:
        if e % 2 == 0:
            return None
        r = _fraction_root(-v, e)
        return -r if r is not None else None
    num = _nth_root(v.numerator, e)
    den = _nth_root(v.denominator, e)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def power_tuples(rest: int, exps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every tuple (o1, ..., ov) of naturals >= 2 with o1^e1 * ... * ov^ev = rest
    for ``exps`` = (e1, ..., ev), in lexicographic order."""
    if not exps:
        return [()] if rest == 1 else []
    last = len(exps) - 1
    out: list[tuple[int, ...]] = []

    def descend(i: int, rest: int, acc: tuple[int, ...]) -> None:
        e = exps[i]
        if i == last:  # the last value is forced: the e-th root of what is left
            o = _nth_root(rest, e)
            if o is not None and o >= 2:
                out.append((*acc, o))
            return
        bound = rest >> sum(exps[i + 1:])  # every later value is at least 2
        o = 2
        while (p := o ** e) <= bound:
            if rest % p == 0:
                descend(i + 1, rest // p, (*acc, o))
            o += 1

    descend(0, rest, ())
    return out


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Built-in algebras


class IntAddition(Algebra):
    """(Z, +, Z): integers under addition, every integer distinguished."""

    name = "zplus"

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        if not args:
            return _parse_int(symbol)
        if symbol != "+" or len(args) != 2:
            raise ValueError(f"unknown symbol {symbol!r}/{len(args)} over zplus")
        return args[0] + args[1]

    def parse_element(self, text: str) -> Element:
        return _parse_int(text)

    def solutions(self, term: Term, value: int) -> list[Assignment]:
        const, coeffs = linear_form(term)
        if not coeffs:
            return [{}] if const == value else []
        if len(coeffs) == 1:
            ((name, m),) = coeffs.items()
            if (value - const) % m == 0:
                return [{name: (value - const) // m}]
            return []
        raise UnlistableSolutions(
            "solution sets over zplus are empty or infinite for terms with several variables"
        )

    def injective(self, term: Term) -> bool:
        _, coeffs = linear_form(term)
        return len(coeffs) <= 1


class RationalMultiplication(Algebra):
    """(Q, *, Q): rationals under multiplication, every rational distinguished."""

    name = "qmul"

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        if not args:
            return _parse_fraction(symbol)
        if symbol != "*" or len(args) != 2:
            raise ValueError(f"unknown symbol {symbol!r}/{len(args)} over qmul")
        return args[0] * args[1]

    def parse_element(self, text: str) -> Element:
        return _parse_fraction(text)

    def _form(self, term: Term):
        coeff, exps = monomial_form(term, _parse_fraction)
        return Fraction(coeff), exps

    def solutions(self, term: Term, value) -> list[Assignment]:
        value = Fraction(value)
        coeff, exps = self._form(term)
        if not exps:
            return [{}] if coeff == value else []
        if len(exps) == 1:
            ((name, e),) = exps.items()
            if coeff == 0:
                raise UnlistableSolutions(
                    "zero-coefficient equations have empty or infinite solution sets")
            root = _fraction_root(value / coeff, e)
            if root is None:
                return []
            if e % 2 == 0 and root != 0:
                return [{name: root}, {name: -root}]
            return [{name: root}]
        raise UnlistableSolutions(
            "solution sets over qmul are empty or infinite for terms with several variables"
        )

    def injective(self, term: Term) -> bool:
        coeff, exps = self._form(term)
        if not exps:
            return True
        if coeff == 0 or len(exps) > 1:
            return False
        ((_, e),) = exps.items()
        return e % 2 == 1


class NaturalMultiplication(Algebra):
    """(N2, *, N2) with N2 = {2, 3, ...}: naturals >= 2 under multiplication."""

    name = "nmul"

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        if not args:
            return self.parse_element(symbol)
        if symbol != "*" or len(args) != 2:
            raise ValueError(f"unknown symbol {symbol!r}/{len(args)} over nmul")
        return args[0] * args[1]

    def parse_element(self, text: str) -> Element:
        n = _parse_int(text)
        if n < 2:
            raise ValueError(f"{n} is not an element of nmul (needs n >= 2)")
        return n

    def solutions(self, term: Term, value: int) -> list[Assignment]:
        coeff, exps = monomial_form(term, _parse_int)
        if not exps:
            return [{}] if coeff == value else []
        if value % coeff:
            return []
        names = sorted(exps)
        powers = power_tuples(value // coeff, tuple(exps[n] for n in names))
        return [dict(zip(names, values)) for values in powers]

    def injective(self, term: Term) -> bool:
        _, exps = monomial_form(term, _parse_int)
        return len(exps) <= 1


class WordConcatenation(Algebra):
    """Words over a finite alphabet under concatenation.

    The default carrier excludes the empty word; ``allow_empty=True`` admits it
    (both for elements and for values of variables).
    """

    def __init__(self, alphabet: str, allow_empty: bool = False):
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be a non-empty set of distinct letters")
        self.alphabet = alphabet
        self.allow_empty = allow_empty
        self.name = f"word:{alphabet}" + ("*" if allow_empty else "")

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        if not args:
            return self.parse_element(symbol)
        if symbol != "concat" or len(args) != 2:
            raise ValueError(f"unknown symbol {symbol!r}/{len(args)} over words")
        return args[0] + args[1]

    def parse_element(self, text: str) -> Element:
        word = "" if text == "%e" else text
        self._check_word(word)
        return word

    def _check_word(self, word: str) -> None:
        if not word and not self.allow_empty:
            raise ValueError("the empty word is excluded (use the empty-word flag)")
        bad = set(word) - set(self.alphabet)
        if bad:
            raise ValueError(f"letters {sorted(bad)} are outside alphabet {self.alphabet!r}")

    # Pattern view: a word term flattens to a sequence of letters and variables.

    def pattern(self, term: Term) -> list[Term]:
        items: list[Term] = []

        def flatten(t: Term) -> None:
            if isinstance(t, Var):
                items.append(t)
                return
            assert isinstance(t, App)
            if not t.args:
                word = "" if t.symbol == "%e" else t.symbol
                if word:
                    self._check_word(word)
                items.extend(App(ch) for ch in word)
                return
            if t.symbol != "concat":
                raise ValueError(f"unknown symbol {t.symbol!r} over words")
            for a in t.args:
                flatten(a)

        flatten(term)
        return items

    def _matches(self, items: list[Term], word: str) -> Iterator[Assignment]:
        """Each split of ``word`` along the pattern ``items``: depth first, each
        variable's value shortest first."""
        min_len = 0 if self.allow_empty else 1

        def descend(i: int, pos: int, binding: Assignment) -> Iterator[Assignment]:
            if i == len(items):
                if pos == len(word):
                    yield dict(binding)
                return
            item = items[i]
            if isinstance(item, App):
                if word.startswith(item.symbol, pos):
                    yield from descend(i + 1, pos + len(item.symbol), binding)
                return
            bound = binding.get(item.name)
            if bound is not None:
                if word.startswith(bound, pos):
                    yield from descend(i + 1, pos + len(bound), binding)
                return
            for ln in range(min_len, len(word) - pos + 1):
                binding[item.name] = word[pos : pos + ln]
                yield from descend(i + 1, pos + ln, binding)
                del binding[item.name]

        return descend(0, 0, {})

    def solutions(self, term: Term, value: str) -> Iterator[Assignment]:
        return self._matches(self.pattern(term), value)

    def injective(self, term: Term) -> bool:
        items = self.pattern(term)
        occ: dict[str, int] = {}
        for it in items:
            if isinstance(it, Var):
                occ[it.name] = occ.get(it.name, 0) + 1
        if len(occ) <= 1:
            return True
        # Two distinct single-occurrence variables always admit a boundary-shift
        # collision around the fixed material separating them.
        if sum(1 for n in occ.values() if n == 1) >= 2:
            return False
        return self._collision_search(items, occ)

    def _collision_search(self, items: list[Term], occ: dict[str, int]) -> bool:
        letters = self.alphabet[: min(2, len(self.alphabet))]
        names = sorted(occ)
        max_len = 6 if len(names) <= 2 else 3
        lengths = range(0 if self.allow_empty else 1, max_len + 1)
        seen: dict[str, tuple] = {}
        for combo in itertools.product(
            ["".join(c) for ln in lengths for c in itertools.product(letters, repeat=ln)],
            repeat=len(names),
        ):
            binding = dict(zip(names, combo))
            value = "".join(
                binding[it.name] if isinstance(it, Var) else it.symbol for it in items
            )
            key = tuple(binding[n] for n in names)
            if value in seen and seen[value] != key:
                return False
            seen[value] = key
        raise UnsupportedQuery(
            "injectivity undecided for this word pattern (no collision found in bounded search)"
        )


class TermAlgebra(Algebra):
    """The free term algebra over a signature; elements are terms themselves."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self.name = "term"

    def apply(self, symbol: str, args: tuple[Element, ...]) -> Element:
        rank = self.signature.rank(symbol)
        if rank != len(args):
            raise ValueError(f"symbol {symbol!r} has rank {rank}, got {len(args)}")
        return App(symbol, tuple(args))

    def parse_element(self, text: str) -> Element:
        return parse_term(text, self.signature)

    def solutions(self, term: Term, value: Term) -> list[Assignment]:
        sigma = generalizes(term, value)
        return [] if sigma is None else [dict(sigma)]

    def injective(self, term: Term) -> bool:
        return True


def word_pattern_term(items: list[Term]) -> Term:
    """Build a word term (right-nested concatenation) from pattern items."""
    return right_nested("concat", items) if items else App("%e")


def parse_word_pattern(algebra: WordConcatenation, text: str,
                       tokens: bool = False) -> Term:
    """Parse a word pattern such as ``x1bx2`` (or ``x1 b x2`` with tokens=True)."""
    items: list[Term] = []
    if tokens:
        for tok in text.split():
            if is_var_name(tok):
                items.append(Var(tok))
            else:
                algebra._check_word(tok)
                items.extend(App(ch) for ch in tok)
    else:
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "x" and i + 1 < len(text) and text[i + 1].isdigit():
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                items.append(Var(text[i:j]))
                i = j
            elif ch == " ":
                i += 1
            else:
                if ch not in algebra.alphabet:
                    raise TermSyntaxError(
                        f"letter {ch!r} is outside alphabet {algebra.alphabet!r}"
                    )
                items.append(App(ch))
                i += 1
    return word_pattern_term(items)


def render_word_term(algebra: WordConcatenation, term: Term) -> str:
    parts = []
    for item in algebra.pattern(term):
        parts.append(item.name if isinstance(item, Var) else item.symbol)
    return "".join(parts) if parts else "%e"
