"""Command-line front end.

Subcommands: decide, solve, enumerate, lgg, solve-tree, check-tree,
antiunify, check-rule.  Algebras are selected by preset name (zplus, qmul,
nmul, word:<alphabet>, term:<sigfile>) or by a finite-algebra JSON file.
Output is plain text by default; ``--format json`` emits one JSON record per
line.  Exit status is 0 for every successfully executed query regardless of
the verdict, and 2 for input errors and malformed command lines, each
reported as one ``error: <message>`` line on stderr.

The command line is read with argparse: one parser per subcommand and one for
the top level, each built once at import from the subcommand's ``Option``
table, so ``run`` only parses and dispatches.  argparse recognizes the options
and separates them from the operands; the operand counts, the value checks,
the messages and the ``--help`` texts are this module's own, so they read the
same under every Python version.

decide, solve and enumerate resolve their engine once per query, from the
algebra: behavior automata over finite algebras (the brute-force oracle with
``--engine oracle``), the full-framework rule search for solve over nmul
without ``--l 1``, and otherwise the algebra's ``MONOLINEAR`` closed form,
where a left-out ``--l`` means 1 and ``--l inf`` is an input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import antiunify
from .algebras import (
    Algebra,
    AlgebraFormatError,
    FiniteAlgebra,
    IntAddition,
    NaturalMultiplication,
    RationalMultiplication,
    TermAlgebra,
    UnsupportedQuery,
    WordConcatenation,
    load_finite_algebra,
    parse_word_pattern,
)
from .closedform import (
    decide_mono_add,
    decide_mono_mul,
    decide_mono_word,
    mono_add_rule,
    solve_mono_add,
    solve_mono_mul,
    solve_mono_word,
)
from .decider import (
    FragmentDecider,
    StateCapExceeded,
    check_same_signature,
    natural_solve,
    verify_characteristic,
)
from .oracle import OracleBudgetExceeded, OracleUniverse
from .terms import (
    RewriteRule,
    Signature,
    TermSyntaxError,
    canonical_term,
    parse_rule,
    parse_term,
    render,
    signature_of,
    split_rule,
)
from .trees import check_tree_proportion, lgg, solve_tree_equation


class UsageError(Exception):
    """A malformed command line."""


INPUT_ERRORS = (
    UsageError,
    ValueError,
    KeyError,
    AlgebraFormatError,
    TermSyntaxError,
    UnsupportedQuery,
    StateCapExceeded,
    OracleBudgetExceeded,
    OSError,
)

# Terms the oracle engine may enumerate before it gives up with
# OracleBudgetExceeded.  On a 2-core x86-64 machine, reaching the limit took
# about a second and 60 MB, and evaluating an accepted universe of 80,000
# terms took 3 s; with no limit, one two-element algebra ran out of memory.
ORACLE_TERM_LIMIT = 200_000


class Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict, text: str) -> None:
        print(json.dumps(record, sort_keys=True) if self.fmt == "json" else text)


def load_algebra(spec: str, allow_empty: bool = False) -> Algebra:
    """Resolve a preset name or a finite-algebra file path."""
    if spec == "zplus":
        return IntAddition()
    if spec == "qmul":
        return RationalMultiplication()
    if spec == "nmul":
        return NaturalMultiplication()
    if spec.startswith("word:"):
        return WordConcatenation(spec[len("word:"):], allow_empty=allow_empty)
    if spec.startswith("term:"):
        with open(spec[len("term:"):], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return TermAlgebra(Signature(dict(doc["symbols"])))
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    if os.path.exists(path):
        return load_finite_algebra(path)
    raise ValueError(
        f"unknown algebra {spec!r}: expected a preset "
        f"(zplus, qmul, nmul, word:<alphabet>, term:<sigfile>) or an algebra file"
    )


def _parse_ell(value: Optional[str]) -> Optional[int]:
    if value is None or value == "inf":
        return None
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"--l expects an integer or 'inf', got {value!r}") from None
    if n < 1:
        raise ValueError("--l must be at least 1")
    return n


class Option(NamedTuple):
    """A command-line option, passed to its subcommand as the keyword ``dest``.

    An option with a ``minimum`` takes an integer of at least that, one with
    ``choices`` one of them, a ``flag`` no value, and any other a string.
    """

    name: str
    dest: str
    help: str = ""
    default: object = None
    required: bool = False
    minimum: Optional[int] = None
    choices: tuple[str, ...] = ()
    flag: bool = False

    def value(self, given):
        """The value passed on: the default when left out (``given`` is None)."""
        if self.flag:
            return given
        if given is None:
            if self.required:
                raise UsageError(f"Missing option {self.name!r}.")
            return self.default
        if self.choices and given not in self.choices:
            raise UsageError(f"Invalid value for {self.name!r}: {given!r} is not one of "
                             f"{', '.join(map(repr, self.choices))}.")
        if self.minimum is None:
            return given
        try:
            number = int(given)
        except ValueError:
            raise UsageError(f"Invalid value for {self.name!r}: {given!r} is not a valid "
                             f"integer range.") from None
        if number < self.minimum:
            raise UsageError(f"Invalid value for {self.name!r}: {number} is not in the range "
                             f"x>={self.minimum}.")
        return number

    def row(self) -> tuple[str, str]:
        """The option's line of --help: how to give it, and what it does."""
        notes = [] if self.flag or self.default is None else [f"default: {self.default}"]
        if self.minimum is not None:
            metavar, notes = " INTEGER RANGE", notes + [f"x>={self.minimum}"]
        elif self.choices:
            metavar = f" [{'|'.join(self.choices)}]"
        else:
            metavar = "" if self.flag else " TEXT"
        if self.required:
            notes.append("required")
        text = "  ".join(filter(None, [self.help, notes and f"[{'; '.join(notes)}]"]))
        return self.name + metavar, text


HELP = Option("--help", "help", "Show this message and exit.", flag=True)
FORMAT = Option("--format", "fmt", default="text", choices=("text", "json"))
ALGEBRA = Option("--algebra", "algebra_spec", "preset name or finite-algebra file",
                 required=True)
ALGEBRA2 = Option("--algebra2", "algebra2_spec",
                  "second algebra of the pair (defaults to the first)")
K = Option("--k", "k", "number of distinct variables in justifications", default=1, minimum=1)
ELL = Option("--l", "ell", "occurrence bound per variable (integer or 'inf')")
ENGINE = Option("--engine", "engine", default="auto", choices=("auto", "oracle"))
CAP = Option("--cap", "cap", "behavior-state cap for the automata engine", default=10 ** 6,
             minimum=1)
TOKENS = Option("--tokens", "tokens", "read words as space-separated multi-character symbols",
                flag=True)
ALLOW_EMPTY = Option("--allow-empty", "allow_empty", "admit the empty word in word algebras",
                     flag=True)
DEPTH = Option("--depth", "depth", "term depth for finite algebras", default=2, minimum=0)
FULL = Option("--full", "full",
              "require all four uniqueness conditions (pins the full proportion)", flag=True)
QUERY_OPTIONS = (ALGEBRA, ALGEBRA2, K, ELL, ENGINE, CAP)


def _parser(options: tuple[Option, ...]) -> argparse.ArgumentParser:
    """A parser of ``options``; what it leaves are operands and unknown options."""
    parser = argparse.ArgumentParser(prog="anaprop", add_help=False, allow_abbrev=False,
                                     exit_on_error=False)
    for option in options:
        if option.flag:
            parser.add_argument(option.name, dest=option.dest, action="store_true")
        else:
            parser.add_argument(option.name, dest=option.dest)
    return parser


def _read(parser: argparse.ArgumentParser, options: tuple[Option, ...],
          args: list[str]) -> tuple[dict, list[str]]:
    """The raw option values in ``args`` (None if left out) and the other tokens, '--' dropped."""
    try:
        values, rest = parser.parse_known_args(args)
    except argparse.ArgumentError as exc:
        # only raised here for a value missing after an option or given to a flag
        name = exc.argument_name
        flag = any(option.flag for option in options if option.name == name)
        problem = "does not take a value" if flag else "requires an argument"
        raise UsageError(f"Option {name!r} {problem}.") from None
    end = rest.index("--") if "--" in rest else len(rest)
    for token in rest[:end]:
        # negative numbers included: they go after '--'
        if token.startswith("-") and len(token) > 1:
            raise _no_such("option", token.split("=", 1)[0],
                           [option.name for option in options])
    return vars(values), rest[:end] + rest[end + 1:]


def _no_such(kind: str, name: str, known: list[str]) -> UsageError:
    """The error for an unknown option or command, naming the known ones close to it."""
    import difflib  # only a mistyped command line needs it

    close = sorted(difflib.get_close_matches(name, known))
    hint = ""
    if len(close) == 1:
        hint = f" Did you mean {close[0]!r}?"
    elif close:
        hint = f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return UsageError(f"No such {kind} {name!r}.{hint}")


def _help(usage: str, summary: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """A --help text: the usage, the summary, then each section's rows in two columns.

    The lines are at most 78 characters wide, unless a word is longer.
    """
    import textwrap  # only --help needs it

    lines = [f"Usage: anaprop {usage}", *(["", f"  {summary}"] if summary else [])]
    for title, rows in sections.items():
        width = max(len(term) for term, _ in rows)
        lines += ["", f"{title}:"]
        for term, text in rows:
            first, *more = textwrap.wrap(text, 78 - 4 - width) or [""]
            lines.append(f"  {term:<{width}}  {first}".rstrip())
            lines += [" " * (width + 4) + line for line in more]
    return "\n".join(lines)


class Command(NamedTuple):
    """A subcommand: its handler and summary, its operands' names, its options (--help
    last) and its parser."""

    handler: Callable
    summary: str
    operands: tuple[str, ...]
    options: tuple[Option, ...]
    parser: argparse.ArgumentParser


COMMANDS: dict[str, Command] = {}


def command(name: str, operands: str, *options: Option):
    """Register the decorated function as subcommand ``name``.

    It is called with the Output, the operands in order and each option's
    value as a keyword.
    """
    def register(handler: Callable) -> Callable:
        with_help = (*options, HELP)
        # the docstring, which ``python -OO`` strips
        COMMANDS[name] = Command(handler, handler.__doc__ or "", tuple(operands.split()),
                                 with_help, _parser(with_help))
        return handler
    return register


MAIN_OPTIONS = (FORMAT, HELP)
MAIN_PARSER = _parser(MAIN_OPTIONS)
# the subcommand and everything after it, its options too, go to its own parser
MAIN_PARSER.add_argument("command", nargs=argparse.REMAINDER)
SUMMARY = "Analogical proportions: decide, solve and enumerate a : b :: c : d."


def _load_pair(spec1: str, spec2: Optional[str], allow_empty: bool):
    first = load_algebra(spec1, allow_empty)
    second = load_algebra(spec2, allow_empty) if spec2 else None
    if second is not None:
        if not (first.is_finite and second.is_finite):
            raise ValueError("--algebra2 is supported for finite algebras only")
        check_same_signature(first, second)
    return first, second


def _decider(first: Algebra, second: Optional[Algebra], k: int, ell: Optional[str],
             engine: str, cap: int):
    """The engine over a finite algebra pair: a FragmentDecider, or an OracleUniverse."""
    if not first.is_finite:  # only enumerate gets here with an infinite algebra
        raise ValueError("enumeration requires a finite algebra")
    bound = _parse_ell(ell)
    decider = FragmentDecider(first, second, k=k, ell=bound, cap=cap)
    if engine != "oracle":
        return decider
    # at this depth every behavior class has a term: the oracle is exact
    try:
        return OracleUniverse(first, second, k=k, ell=bound, depth=decider.state_count,
                              limit=ORACLE_TERM_LIMIT)
    except OracleBudgetExceeded as exc:
        raise OracleBudgetExceeded(f"{exc}; use --engine auto") from None


def _verdict(verdict) -> tuple[bool, dict, str]:
    """A finite engine's verdict: whether it holds, the record's other fields, the text detail."""
    detail = verdict.reason
    if verdict.holds and verdict.witness is not None:
        detail += f"; witness: {verdict.witness}"
    elif not verdict.holds and verdict.counter is not None:
        detail += f": fourth element {verdict.counter} has a strictly larger justification set"
    if verdict.arrow is not None:
        detail += f" (arrow {verdict.arrow})"
    witness = str(verdict.witness) if verdict.witness else None
    return verdict.holds, {"reason": verdict.reason, "witness": witness,
                           "counter": verdict.counter, "arrow": verdict.arrow}, detail


# The closed forms call their solvers by global name at call time, which is
# where perfbench's tracer wraps them.
def _difference():
    """zplus: a - b = c - d, solved with the rule x1 -> +(x1, b - a)."""
    def decide(a, b, c, d):
        holds = decide_mono_add(a, b, c, d)
        rel = f"{a}-{b} {'=' if holds else '!='} {c}-{d}"
        return holds, {"relation": "difference", "detail": rel}, f"difference proportion: {rel}"

    def solve(a, b, c):
        d = solve_mono_add(a, b, c)
        return [d], {str(d): [str(mono_add_rule(a, b))]}
    return decide, solve


def _geometric(domain: str):
    """qmul (``domain`` "q") and nmul ("n2"): a : b = c : d."""
    def decide(a, b, c, d):
        holds = decide_mono_mul(a, b, c, d, domain=domain)
        rel = f"{a}:{b} vs {c}:{d}"
        return holds, {"relation": "geometric", "detail": rel}, f"geometric proportion: {rel}"
    return decide, lambda a, b, c: (
        sorted(str(d) for d in solve_mono_mul(a, b, c, domain=domain)), None)


def _factorization():
    """word: a = a1 a2 a3, b = b1 a2 b3, c = a1 b2 a3 and d = b1 b2 b3."""
    def decide(a, b, c, d):
        split = decide_mono_word(a, b, c, d)
        if split is None:
            return False, {"relation": "word", "witness": None}, "no aligned factorization"
        parts = [split.a1, split.a2, split.a3, split.b1, split.b2, split.b3]
        shown = "|".join(parts[:3]) + " ~ " + "|".join(parts[3:])
        return True, {"relation": "word", "witness": parts}, f"factorization {shown}"
    return decide, lambda a, b, c: ([d if d else "%e" for d in solve_mono_word(a, b, c)], None)


def _rule_search(a, b, c) -> tuple[list, dict]:
    """solve over nmul in the full framework, with the verified rules of each solution."""
    found = natural_solve(a, b, c)
    return sorted(found), {str(d): sorted(str(r) for r in found[d]) for d in found}


MONOLINEAR = {IntAddition: _difference(), RationalMultiplication: _geometric("q"),
              NaturalMultiplication: _geometric("n2"), WordConcatenation: _factorization()}


def _resolve(command: str, first: Algebra, second: Optional[Algebra], k: int,
             ell: Optional[str], engine: str, cap: int):
    """The engine that answers ``command`` over the algebra pair, as a (decide, solve) pair.

    decide(a, b, c, d) gives whether a : b :: c : d holds, the record's other
    fields and the text detail; solve(a, b, c) gives the solutions d and their
    witnesses, or None where the engine has none.
    """
    if first.is_finite:
        eng = _decider(first, second, k, ell, engine, cap)
        return (lambda a, b, c, d: _verdict(eng.decide_proportion(a, b, c, d)),
                lambda a, b, c: (list(eng.solve(a, b, c)), None))
    bound = _parse_ell(ell)
    if engine == "oracle":
        raise ValueError(f"engine {engine!r} requires a finite algebra")
    if command == "solve" and isinstance(first, NaturalMultiplication) and bound is None:
        if k != 1:
            raise ValueError("solving over nmul in the full framework takes no --k; leave it out")
        return None, _rule_search  # no decide runs the full framework
    verb, tree_command = {"decide": ("deciding", "check-tree"),
                          "solve": ("solving", "solve-tree")}[command]
    if k != 1 or (ell is not None and bound != 1):
        raise ValueError(f"{verb} over this algebra is implemented for the monolinear "
                         "fragment only; pass --k 1 --l 1")
    if isinstance(first, TermAlgebra):
        raise ValueError(f"{verb} over the term algebra: use {tree_command} instead")
    return MONOLINEAR[type(first)]


def _parse_elements(first: Algebra, second: Optional[Algebra], texts, tokens: bool) -> list:
    """Parse a and b over the first algebra, c and d over the second (default: the first)."""
    if tokens and isinstance(first, WordConcatenation):
        texts = [text.replace(" ", "") for text in texts]
    target = second if second is not None else first
    return [(first if i < 2 else target).parse_element(text) for i, text in enumerate(texts)]


@command("decide", "A B C D", *QUERY_OPTIONS, TOKENS, ALLOW_EMPTY)
def decide(out: Output, a: str, b: str, c: str, d: str, algebra_spec: str,
           algebra2_spec: Optional[str], k: int, ell: Optional[str], engine: str,
           cap: int, tokens: bool, allow_empty: bool) -> None:
    """Decide whether A : B :: C : D holds."""
    first, second = _load_pair(algebra_spec, algebra2_spec, allow_empty)
    query, _ = _resolve("decide", first, second, k, ell, engine, cap)
    holds, fields, detail = query(*_parse_elements(first, second, (a, b, c, d), tokens))
    out.emit({"command": "decide", "holds": holds, **fields},
             f"{'holds' if holds else 'does not hold'} ({detail})")


@command("solve", "A B C", *QUERY_OPTIONS, TOKENS, ALLOW_EMPTY)
def solve(out: Output, a: str, b: str, c: str, algebra_spec: str,
          algebra2_spec: Optional[str], k: int, ell: Optional[str], engine: str,
          cap: int, tokens: bool, allow_empty: bool) -> None:
    """Solve A : B :: C : x, printing every solution."""
    first, second = _load_pair(algebra_spec, algebra2_spec, allow_empty)
    _, query = _resolve("solve", first, second, k, ell, engine, cap)
    solutions, witnesses = query(*_parse_elements(first, second, (a, b, c), tokens))
    record = {"command": "solve", "solutions": solutions}
    lines = ["{" + ", ".join(str(d) for d in solutions) + "}"]
    if witnesses is not None:
        record["witnesses"] = witnesses
        lines += [f"witness for {d}: {rule}" for d in solutions for rule in witnesses[str(d)]]
    out.emit(record, "\n".join(lines))


@command("enumerate", "", *QUERY_OPTIONS)
def enumerate_command(out: Output, algebra_spec: str, algebra2_spec: Optional[str],
                      k: int, ell: Optional[str], engine: str, cap: int) -> None:
    """List every holding quadruple of a finite algebra pair."""
    first, second = _load_pair(algebra_spec, algebra2_spec, False)
    quads = _decider(first, second, k, ell, engine, cap).enumerate_all()
    out.emit(
        {"command": "enumerate", "quadruples": [list(q) for q in quads]},
        "\n".join(f"{a} : {b} :: {c} : {d}" for a, b, c, d in quads) or "(none)",
    )


@command("lgg", "FIRST SECOND")
def lgg_command(out: Output, first: str, second: str) -> None:
    """Least general generalization of two terms (prefix syntax)."""
    t1, t2 = parse_term(first), parse_term(second)
    signature_of([t1, t2])  # arity consistency check
    result = canonical_term(lgg(t1, t2))
    out.emit({"command": "lgg", "term": render(result)}, render(result))


@command("solve-tree", "P Q R")
def solve_tree_command(out: Output, p: str, q: str, r: str) -> None:
    """Exact solutions of the tree arrow equation P -> Q :: R -> x."""
    tp, tq, tr = parse_term(p), parse_term(q), parse_term(r)
    signature_of([tp, tq, tr])
    solutions = sorted(render(u) for u in solve_tree_equation(tp, tq, tr))
    out.emit(
        {"command": "solve-tree", "solutions": solutions},
        "\n".join(solutions) or "(none)",
    )


@command("check-tree", "P Q R U")
def check_tree_command(out: Output, p: str, q: str, r: str, u: str) -> None:
    """Sufficient check of the tree proportion P : Q :: R : U."""
    terms = [parse_term(x) for x in (p, q, r, u)]
    signature_of(terms)
    established = check_tree_proportion(*terms)
    out.emit(
        {"command": "check-tree", "established": established},
        "established" if established else "not established (the sufficient check is inconclusive)",
    )


@command("antiunify", "A B", ALGEBRA, K, DEPTH)
def antiunify_command(out: Output, a: str, b: str, algebra_spec: str, k: int,
                      depth: int) -> None:
    """Common generalizations and their minima for two elements."""
    algebra = load_algebra(algebra_spec)
    if isinstance(algebra, NaturalMultiplication):
        # both bound the terms of the finite-algebra search, which nmul does not run
        for option, value in ((K, k), (DEPTH, depth)):
            if value != option.default:
                raise ValueError(f"antiunify over nmul takes no {option.name}; leave it out")
        va, vb = algebra.parse_element(a), algebra.parse_element(b)
        shared = sorted(str(m) for m in antiunify.common_gens(va, vb))
        minima = sorted(str(m) for m in antiunify.mgg(va, vb))
        out.emit(
            {"command": "antiunify", "common": shared, "mgg": minima},
            f"common: {{{', '.join(shared)}}}\nmgg: {{{', '.join(minima)}}}",
        )
    elif isinstance(algebra, FiniteAlgebra):
        va, vb = algebra.parse_element(a), algebra.parse_element(b)
        shared = sorted(
            render(t)
            for t in antiunify.bounded_gens(va, algebra, k, depth)
            & antiunify.bounded_gens(vb, algebra, k, depth)
        )
        out.emit(
            {"command": "antiunify", "common": shared},
            f"common: {{{', '.join(shared)}}}",
        )
    else:
        raise ValueError("antiunify supports the nmul preset and finite algebras")


@command("check-rule", "RULE A B C D", ALGEBRA, ALGEBRA2, FULL, TOKENS, ALLOW_EMPTY)
def check_rule_command(out: Output, rule: str, a: str, b: str, c: str, d: str,
                       algebra_spec: str, algebra2_spec: Optional[str], full: bool,
                       tokens: bool, allow_empty: bool) -> None:
    """Verify a rewrite rule as a characteristic justification of A->B :: C->D."""
    first, second = _load_pair(algebra_spec, algebra2_spec, allow_empty)
    if isinstance(first, WordConcatenation):
        lhs_text, rhs_text = split_rule(rule)
        parsed = RewriteRule(
            parse_word_pattern(first, lhs_text.strip(), tokens),
            parse_word_pattern(first, rhs_text.strip(), tokens),
        )
    else:
        parsed = parse_rule(rule)
    elems = _parse_elements(first, second, (a, b, c, d), tokens)
    ok = verify_characteristic(parsed, *elems, first, second, full=full)
    out.emit(
        {"command": "check-rule", "characteristic": ok, "rule": str(parsed)},
        f"{'characteristic justification' if ok else 'not verified as characteristic'}: {parsed}",
    )


def _dispatch(argv: list[str]) -> int:
    top, _ = _read(MAIN_PARSER, MAIN_OPTIONS, argv)
    if top["help"]:
        print(_help("[OPTIONS] COMMAND [ARGS]...", SUMMARY, {
            "Options": [option.row() for option in MAIN_OPTIONS],
            "Commands": [(name, COMMANDS[name].summary) for name in sorted(COMMANDS)],
        }))
        return 0
    out = Output(FORMAT.value(top["fmt"]))
    command = top["command"]
    if command[:1] == ["--"]:  # the end of the top-level options
        del command[0]
    if not command:
        raise UsageError("Missing command.")
    name, *args = command
    if name not in COMMANDS:
        raise _no_such("command", name, list(COMMANDS))
    handler, summary, operands, options, parser = COMMANDS[name]
    values, given = _read(parser, options, args)
    if values["help"]:
        print(_help(" ".join([name, "[OPTIONS]", *operands]), summary,
                    {"Options": [option.row() for option in options]}))
        return 0
    if len(given) < len(operands):
        raise UsageError(f"Missing argument {operands[len(given)]!r}.")
    kwargs = {option.dest: option.value(values[option.dest])
              for option in options if option is not HELP}
    extra = given[len(operands):]
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                         f"({' '.join(extra)})")
    handler(out, *given, **kwargs)
    return 0


def run(argv: Optional[list[str]] = None) -> int:
    """Programmatic entry point returning the exit status."""
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        raise  # not an input error: the reader of the output went away
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # as in ``anaprop enumerate ... | head``: exit 1 without a traceback,
        # and without another one when Python flushes stdout on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    entry()
