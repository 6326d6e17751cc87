"""Command-line front end.

Subcommands: decide, solve, enumerate, lgg, solve-tree, check-tree,
antiunify, check-rule.  Algebras are selected by preset name (zplus, qmul,
nmul, word:<alphabet>, term:<sigfile>) or by a finite-algebra JSON file.
Output is plain text by default; ``--format json`` emits one JSON record per
line.  Exit status is 0 for every successfully executed query regardless of
the verdict, and 2 for input errors.

decide, solve and enumerate take their engine from the algebra: behavior
automata over finite algebras (``--engine auto``, or ``oracle`` for the
brute-force oracle), the full-framework rule search for solve over nmul
without ``--l 1``, and otherwise the closed forms of the monolinear fragment,
where a left-out ``--l`` means 1 and ``--l inf`` is an input error.
"""
from __future__ import annotations

import json
import os
import sys
from typing import Optional

import click

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

INPUT_ERRORS = (
    ValueError,
    KeyError,
    AlgebraFormatError,
    TermSyntaxError,
    UnsupportedQuery,
    StateCapExceeded,
    OracleBudgetExceeded,
    OSError,
)

CLOSED_FORM = "closed form"

# Terms the oracle engine may enumerate before it gives up with
# OracleBudgetExceeded.  On a 2-core x86-64 machine, reaching the limit took
# about a second and 60 MB, and evaluating an accepted universe of 80,000
# terms took 3 s; with no limit, one two-element algebra ran out of memory.
ORACLE_TERM_LIMIT = 200_000


class Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict, text: str) -> None:
        # click.echo without a stream keeps each stream it has written to in a
        # cache that never releases it, so every redirected stream would leak
        if self.fmt == "json":
            click.echo(json.dumps(record, sort_keys=True), file=sys.stdout)
        else:
            click.echo(text, file=sys.stdout)


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


algebra_option = click.option("--algebra", "algebra_spec", required=True,
                              help="preset name or finite-algebra file")
algebra2_option = click.option("--algebra2", "algebra2_spec", default=None,
                               help="second algebra of the pair (defaults to the first)")
k_option = click.option("--k", default=1, show_default=True, type=click.IntRange(min=1),
                        help="number of distinct variables in justifications")
l_option = click.option("--l", "ell", default=None,
                        help="occurrence bound per variable (integer or 'inf')")
engine_option = click.option("--engine", default="auto", show_default=True,
                             type=click.Choice(["auto", "oracle"]))
cap_option = click.option("--cap", default=10 ** 6, show_default=True,
                          type=click.IntRange(min=1),
                          help="behavior-state cap for the automata engine")
tokens_option = click.option("--tokens", is_flag=True,
                             help="read words as space-separated multi-character symbols")
allow_empty_option = click.option("--allow-empty", is_flag=True,
                                  help="admit the empty word in word algebras")


@click.group()
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "json"]))
@click.pass_context
def main(ctx: click.Context, fmt: str) -> None:
    """Analogical proportions: decide, solve and enumerate a : b :: c : d."""
    ctx.obj = Output(fmt)


def _load_pair(spec1: str, spec2: Optional[str], allow_empty: bool):
    first = load_algebra(spec1, allow_empty)
    second = load_algebra(spec2, allow_empty) if spec2 else None
    if second is not None:
        if not (first.is_finite and second.is_finite):
            raise ValueError("--algebra2 is supported for finite algebras only")
        check_same_signature(first, second)
    return first, second


def _resolve(command: str, first: Algebra, second: Optional[Algebra], k: int,
             ell: Optional[str], engine: str, cap: int):
    """The engine that answers ``command`` over the algebra pair.

    A FragmentDecider or an OracleUniverse over finite algebras,
    ``natural_solve`` for the full framework of ``solve`` over nmul, and
    CLOSED_FORM for the monolinear fragment over the other built-in
    algebras, where a left-out ``--l`` means 1 and ``--l inf`` is refused.
    """
    bound = _parse_ell(ell)
    if first.is_finite:
        decider = FragmentDecider(first, second, k=k, ell=bound, cap=cap)
        if engine == "oracle":
            # at this depth every behavior class has a term: the oracle is exact
            try:
                return OracleUniverse(first, second, k=k, ell=bound, depth=decider.state_count,
                                      limit=ORACLE_TERM_LIMIT)
            except OracleBudgetExceeded as exc:
                raise OracleBudgetExceeded(f"{exc}; use --engine auto") from None
        return decider
    if engine == "oracle":
        raise ValueError(f"engine {engine!r} requires a finite algebra")
    if command == "solve" and isinstance(first, NaturalMultiplication) and bound is None:
        if k != 1:
            raise ValueError("solving over nmul in the full framework takes no --k; leave it out")
        return natural_solve
    verb, tree_command = {"decide": ("deciding", "check-tree"),
                          "solve": ("solving", "solve-tree")}[command]
    if k != 1 or (ell is not None and bound != 1):
        raise ValueError(
            f"{verb} over this algebra is implemented for the monolinear "
            f"fragment only; pass --k 1 --l 1"
        )
    if isinstance(first, TermAlgebra):
        raise ValueError(f"{verb} over the term algebra: use {tree_command} instead")
    return CLOSED_FORM


def _parse_elements(first: Algebra, second: Optional[Algebra], texts, tokens: bool) -> list:
    """Parse a and b over the first algebra, c and d over the second (default: the first)."""
    if tokens and isinstance(first, WordConcatenation):
        texts = [text.replace(" ", "") for text in texts]
    target = second if second is not None else first
    return [(first if i < 2 else target).parse_element(text) for i, text in enumerate(texts)]


def _mul_domain(algebra: Algebra) -> str:
    return "n2" if isinstance(algebra, NaturalMultiplication) else "q"


def _decision(eng, algebra: Algebra, a, b, c, d) -> tuple[bool, dict, str]:
    """Whether a : b :: c : d holds, the record's other fields and the text detail."""
    if eng != CLOSED_FORM:
        verdict = eng.decide_proportion(a, b, c, d)
        detail = verdict.reason
        if verdict.holds and verdict.witness is not None:
            detail += f"; witness: {verdict.witness}"
        elif not verdict.holds and verdict.counter is not None:
            detail += f": fourth element {verdict.counter} has a strictly larger justification set"
        if verdict.arrow is not None:
            detail += f" (arrow {verdict.arrow})"
        return verdict.holds, {
            "reason": verdict.reason,
            "witness": str(verdict.witness) if verdict.witness else None,
            "counter": verdict.counter,
            "arrow": verdict.arrow,
        }, detail
    if isinstance(algebra, IntAddition):
        holds = decide_mono_add(a, b, c, d)
        rel = f"{a}-{b} {'=' if holds else '!='} {c}-{d}"
        return holds, {"relation": "difference", "detail": rel}, f"difference proportion: {rel}"
    if isinstance(algebra, WordConcatenation):
        split = decide_mono_word(a, b, c, d)
        if split is None:
            return False, {"relation": "word", "witness": None}, "no aligned factorization"
        parts = [split.a1, split.a2, split.a3, split.b1, split.b2, split.b3]
        shown = "|".join(parts[:3]) + " ~ " + "|".join(parts[3:])
        return True, {"relation": "word", "witness": parts}, f"factorization {shown}"
    holds = decide_mono_mul(a, b, c, d, domain=_mul_domain(algebra))
    rel = f"{a}:{b} vs {c}:{d}"
    return holds, {"relation": "geometric", "detail": rel}, f"geometric proportion: {rel}"


def _solutions(eng, algebra: Algebra, a, b, c) -> tuple[list, Optional[dict]]:
    """The solutions d of a : b :: c : d and, when the engine gives them, their witnesses."""
    if eng is natural_solve:
        found = eng(a, b, c)
        return sorted(found), {str(d): sorted(str(r) for r in found[d]) for d in found}
    if eng != CLOSED_FORM:
        return list(eng.solve(a, b, c)), None
    if isinstance(algebra, IntAddition):
        d = solve_mono_add(a, b, c)
        return [d], {str(d): [str(mono_add_rule(a, b))]}
    if isinstance(algebra, WordConcatenation):
        return [d if d else "%e" for d in solve_mono_word(a, b, c)], None
    return sorted(str(d) for d in solve_mono_mul(a, b, c, domain=_mul_domain(algebra))), None


def _query_options(command):
    """The options shared by decide and solve."""
    for option in reversed([algebra_option, algebra2_option, k_option, l_option, engine_option,
                            cap_option, tokens_option, allow_empty_option,
                            click.pass_obj]):
        command = option(command)
    return command


@main.command()
@click.argument("a")
@click.argument("b")
@click.argument("c")
@click.argument("d")
@_query_options
def decide(out: Output, a: str, b: str, c: str, d: str, algebra_spec: str,
           algebra2_spec: Optional[str], k: int, ell: Optional[str], engine: str,
           cap: int, tokens: bool, allow_empty: bool) -> None:
    """Decide whether A : B :: C : D holds."""
    first, second = _load_pair(algebra_spec, algebra2_spec, allow_empty)
    eng = _resolve("decide", first, second, k, ell, engine, cap)
    elems = _parse_elements(first, second, (a, b, c, d), tokens)
    holds, fields, detail = _decision(eng, first, *elems)
    out.emit({"command": "decide", "holds": holds, **fields},
             f"{'holds' if holds else 'does not hold'} ({detail})")


@main.command()
@click.argument("a")
@click.argument("b")
@click.argument("c")
@_query_options
def solve(out: Output, a: str, b: str, c: str, algebra_spec: str,
          algebra2_spec: Optional[str], k: int, ell: Optional[str], engine: str,
          cap: int, tokens: bool, allow_empty: bool) -> None:
    """Solve A : B :: C : x, printing every solution."""
    first, second = _load_pair(algebra_spec, algebra2_spec, allow_empty)
    eng = _resolve("solve", first, second, k, ell, engine, cap)
    elems = _parse_elements(first, second, (a, b, c), tokens)
    solutions, witnesses = _solutions(eng, first, *elems)
    record = {"command": "solve", "solutions": solutions}
    lines = ["{" + ", ".join(str(d) for d in solutions) + "}"]
    if witnesses is not None:
        record["witnesses"] = witnesses
        lines += [f"witness for {d}: {rule}" for d in solutions for rule in witnesses[str(d)]]
    out.emit(record, "\n".join(lines))


@main.command(name="enumerate")
@algebra_option
@algebra2_option
@k_option
@l_option
@engine_option
@cap_option
@click.pass_obj
def enumerate_command(out: Output, algebra_spec: str, algebra2_spec: Optional[str],
                      k: int, ell: Optional[str], engine: str, cap: int) -> None:
    """List every holding quadruple of a finite algebra pair."""
    first, second = _load_pair(algebra_spec, algebra2_spec, False)
    if not isinstance(first, FiniteAlgebra):
        raise ValueError("enumeration requires a finite algebra")
    quads = _resolve("enumerate", first, second, k, ell, engine, cap).enumerate_all()
    out.emit(
        {"command": "enumerate", "quadruples": [list(q) for q in quads]},
        "\n".join(f"{a} : {b} :: {c} : {d}" for a, b, c, d in quads) or "(none)",
    )


@main.command(name="lgg")
@click.argument("first")
@click.argument("second")
@click.pass_obj
def lgg_command(out: Output, first: str, second: str) -> None:
    """Least general generalization of two terms (prefix syntax)."""
    t1, t2 = parse_term(first), parse_term(second)
    signature_of([t1, t2])  # arity consistency check
    result = canonical_term(lgg(t1, t2))
    out.emit({"command": "lgg", "term": render(result)}, render(result))


@main.command(name="solve-tree")
@click.argument("p")
@click.argument("q")
@click.argument("r")
@click.pass_obj
def solve_tree_command(out: Output, p: str, q: str, r: str) -> None:
    """Exact solutions of the tree arrow equation P -> Q :: R -> x."""
    tp, tq, tr = parse_term(p), parse_term(q), parse_term(r)
    signature_of([tp, tq, tr])
    solutions = sorted(render(u) for u in solve_tree_equation(tp, tq, tr))
    out.emit(
        {"command": "solve-tree", "solutions": solutions},
        "\n".join(solutions) or "(none)",
    )


@main.command(name="check-tree")
@click.argument("p")
@click.argument("q")
@click.argument("r")
@click.argument("u")
@click.pass_obj
def check_tree_command(out: Output, p: str, q: str, r: str, u: str) -> None:
    """Sufficient check of the tree proportion P : Q :: R : U."""
    terms = [parse_term(x) for x in (p, q, r, u)]
    signature_of(terms)
    established = check_tree_proportion(*terms)
    out.emit(
        {"command": "check-tree", "established": established},
        "established" if established else "not established (the sufficient check is inconclusive)",
    )


@main.command(name="antiunify")
@click.argument("a")
@click.argument("b")
@algebra_option
@k_option
@click.option("--depth", default=2, show_default=True, type=click.IntRange(min=0),
              help="term depth for finite algebras")
@click.pass_obj
def antiunify_command(out: Output, a: str, b: str, algebra_spec: str, k: int,
                      depth: int) -> None:
    """Common generalizations and their minima for two elements."""
    algebra = load_algebra(algebra_spec)
    if isinstance(algebra, NaturalMultiplication):
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


@main.command(name="check-rule")
@click.argument("rule")
@click.argument("a")
@click.argument("b")
@click.argument("c")
@click.argument("d")
@algebra_option
@algebra2_option
@click.option("--full", is_flag=True,
              help="require all four uniqueness conditions (pins the full proportion)")
@tokens_option
@allow_empty_option
@click.pass_obj
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


def run(argv: Optional[list[str]] = None) -> int:
    """Programmatic entry point returning the exit status."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
