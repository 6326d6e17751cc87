"""The three workloads: their set-up, one round of operations, and the checks.

A workload is built in set-up (inputs drawn from the seed, long-lived
engines constructed).  ``ops`` is one round: a list of callables, each one
timed operation.  ``check`` receives the first round's outputs and returns,
per operation, the problems found by computations made apart from the
program.  A problem is ``(kind, text)``; kind ``witness`` marks the
proportion-witness fault of ``FragmentDecider.decide_proportion`` and
``vacuous`` marks the same fault met on a seeded input (see the README).
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import inputs
import reference as ref

WITNESS, VACUOUS, WRONG = "witness", "vacuous", "wrong"

SIZES = {
    # finite: the algebra shapes drawn; crosscheck: quick pairs per state bin, slow pairs;
    # cli: repetitions of the seeded part of the script
    "full": dict(shapes=tuple(inputs.FINITE_SHAPES) * 6,
                 light=((130, 46, 38, 124, 31, 35, 53, 35, 56),
                        (0, 21, 14, 56, 16, 11, 31, 10, 20),
                        (0, 6, 9, 14, 5, 5, 15, 4, 7)),
                 heavy=8, scale=4),
    "tiny": dict(shapes=("mixed3", "pair4"),
                 light=((2, 1, 1, 1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0, 1, 0, 0),
                        (0, 0, 0, 0, 0, 0, 0, 0, 0)),
                 heavy=0, scale=1),
}


def proportion_witness(dec, verdict, quad, first, second, k, ell, seeded):
    """Problems with the witness of a holding proportion verdict.

    The witness must lie in the fragment and justify the arrow the verdict
    names; when it names none, ``a -> b`` in the first algebra and ``c -> d``
    in the second.
    """
    a, b, c, d = quad
    if verdict.witness is None:
        if verdict.reason == "maximal":
            return [(WRONG, f"{quad}: maximal proportion without a witness")]
        return []
    rule = ref.parse_rule(str(verdict.witness))
    if not ref.in_fragment(rule, k, ell):
        return [(WRONG, f"{quad}: witness {verdict.witness} is outside the fragment")]
    if verdict.arrow is not None:
        return []  # decide_proportion names no arrow on holding verdicts today
    if ref.justifies(rule, a, b, first) and ref.justifies(rule, c, d, second):
        return []
    text = f"{quad}: witness {verdict.witness} does not justify {a}->{b} :: {c}->{d}"
    # On seeded inputs the fault cannot be counted as failed: how often it
    # strikes depends on the seed.  It is reported apart when the named arrow
    # holds only vacuously, which is exactly when the fault shows.
    if seeded and dec.decide_arrow(a, b, c, d).reason == "all-trivial":
        return [(VACUOUS, text)]
    return [(WITNESS, text)]


# ---------------------------------------------------------------------------


class Finite:
    """Long-lived deciders over banded random algebras; one op is one ``solve``."""

    def __init__(self, anaprop, seed, size, root, workdir, tick=inputs.idle):
        self.anaprop = anaprop
        rng = random.Random(f"finite-{seed}")
        conf = SIZES[size]
        self.cases = []
        for shape in conf["shapes"]:
            algebras, k, ell, states, triples = inputs.finite_case(rng, anaprop.FiniteAlgebra,
                                                                    shape, tick)
            first, second = algebras[0], algebras[-1]
            dec = anaprop.FragmentDecider(first, second if second is not first else None,
                                          k=k, ell=ell)
            # answer one query so the lazy class-pair index is built before timing
            dec.justification_classes(first.carrier[0], first.carrier[0],
                                      second.carrier[0], second.carrier[0])
            self.cases.append(SimpleNamespace(shape=shape, dec=dec, first=first, second=second,
                                              k=k, ell=ell, states=states, triples=triples))
            tick()

    def ops(self):
        return [partial(case.dec.solve, *t) for case in self.cases for t in case.triples]

    def check(self, outputs):
        problems = []
        outputs = iter(outputs)
        for case in self.cases:
            dec, first, second = case.dec, case.first, case.second
            same = second is first
            rev = dec if same else self.anaprop.FragmentDecider(second, first, k=case.k,
                                                                ell=case.ell)
            states = [] if dec.state_count == case.states else [
                (WRONG, f"{case.shape}: {dec.state_count} behaviour states, expected {case.states}")]
            for a, b, c in case.triples:
                got = next(outputs)
                found = list(states)
                verdicts = {d: dec.decide_proportion(a, b, c, d) for d in second.carrier}
                holding = [d for d in second.carrier if verdicts[d].holds]
                if got != holding:
                    found.append((WRONG, f"solve{(a, b, c)} = {got}, decide holds for {holding}"))
                for d in holding:
                    found += proportion_witness(dec, verdicts[d], (a, b, c, d), first, second,
                                                case.k, case.ell, seeded=True)
                others = [d for d in second.carrier if d not in holding][:1]
                for d in holding + others:
                    holds = verdicts[d].holds
                    if rev.decide_proportion(c, d, a, b).holds != holds:
                        found.append((WRONG, f"symmetry fails on {(a, b, c, d)}"))
                    if dec.decide_proportion(b, a, d, c).holds != holds:
                        found.append((WRONG, f"inner symmetry fails on {(a, b, c, d)}"))
                if same:
                    for quad in ((a, b, a, b), (a, a, b, b)):
                        if not dec.decide_proportion(*quad).holds:
                            found.append((WRONG, f"reflexivity fails on {quad}"))
                problems.append(found)
        return problems


# ---------------------------------------------------------------------------


class Crosscheck:
    """Random algebra pairs decided by the decider and by the brute-force oracle."""

    def __init__(self, anaprop, seed, size, root, workdir, tick=inputs.idle):
        from anaprop.oracle import OracleBudgetExceeded

        self.anaprop = anaprop
        self.over = OracleBudgetExceeded
        conf = SIZES[size]
        rng = random.Random(f"crosscheck-{seed}")
        FiniteAlgebra = anaprop.FiniteAlgebra
        self.cases = inputs.crosscheck_pairs(rng, FiniteAlgebra, conf["light"], conf["heavy"],
                                              tick)
        self.cases.append(inputs.fault_pair(FiniteAlgebra))
        for case in self.cases:
            second = None if case["second"] is case["first"] else case["second"]
            case["dec"] = anaprop.FragmentDecider(case["first"], second, k=case["k"],
                                                  ell=case["ell"], cap=inputs.DECIDER_CAP)
            tick()

    def op(self, case):
        first, second, dec = case["first"], case["second"], case["dec"]
        try:
            uni = self.anaprop.OracleUniverse(first, second, k=case["k"], ell=case["ell"],
                                              depth=dec.state_count, limit=inputs.ORACLE_LIMIT)
        except self.over:
            return "over-budget"
        return len(uni.class_reps), [
            (dec.decide_proportion(a, b, c, d), uni.decide(a, b, c, d))
            for a in first.carrier for b in first.carrier
            for c in second.carrier for d in second.carrier
        ]

    def ops(self):
        return [partial(self.op, case) for case in self.cases]

    def check(self, outputs):
        problems = []
        for case, got in zip(self.cases, outputs):
            first, second, dec = case["first"], case["second"], case["dec"]
            found = []
            if dec.state_count != case["states"]:
                found.append((WRONG, f"{dec.state_count} behaviour states, expected {case['states']}"))
            if got == "over-budget":
                if case["terms"] is not None:
                    found.append((WRONG, f"over budget, yet the fragment has {case['terms']} "
                                         f"terms within the limit {inputs.ORACLE_LIMIT}"))
                problems.append(found)
                continue
            if case["terms"] is None:
                found.append((WRONG, f"accepted, yet the fragment has more than "
                                     f"{inputs.ORACLE_LIMIT} terms"))
            quads = [(a, b, c, d) for a in first.carrier for b in first.carrier
                     for c in second.carrier for d in second.carrier]
            for quad, (mine, oracle) in zip(quads, got[1]):
                if (mine.holds, mine.reason) != (oracle.holds, oracle.reason):
                    found.append((WRONG, f"{quad}: decider {mine.holds}/{mine.reason}, "
                                         f"oracle {oracle.holds}/{oracle.reason}"))
                elif mine.reason == "not-maximal" and mine.counter != oracle.counter:
                    found.append((WRONG, f"{quad}: counter {mine.counter}, oracle {oracle.counter}"))
                if mine.holds:
                    found += proportion_witness(dec, mine, quad, first, second, case["k"],
                                                case["ell"], seeded=not case.get("fixed"))
            problems.append(found)
        return problems


# ---------------------------------------------------------------------------


def load_tables(path):
    """A finite algebra file read as plain data, for the reference evaluator."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ops = {o["symbol"]: {tuple(k.split(",")): v for k, v in o["table"].items()}
           for o in doc["ops"]}
    return SimpleNamespace(carrier=tuple(doc["carrier"]), constants=doc["constants"], ops=ops)


def zplus_apply(symbol, args):
    return sum(args) if args else int(symbol)


class Cli:
    """A seeded script run in-process through ``anaprop.cli.run`` with JSON output."""

    def __init__(self, anaprop, seed, size, root, workdir, tick=inputs.idle):
        import anaprop.cli

        self.anaprop = anaprop
        self.run = anaprop.cli.run
        tick()
        rng = random.Random(f"cli-{seed}")
        self.script = inputs.cli_script(rng, root, workdir, SIZES[size]["scale"], tick)

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.run(list(argv))
        return status, out.getvalue(), err.getvalue()

    def ops(self):
        return [partial(self.op, argv) for _, argv, _ in self.script]

    def check(self, outputs):
        problems = []
        for (kind, argv, facts), (status, out, err) in zip(self.script, outputs):
            cmd = " ".join(argv[2:])
            if status != 0:
                problems.append([(WRONG, f"{cmd}: exit {status}: {err.strip()}")])
                continue
            try:
                record = json.loads(out)
                found = [
                    (got[0], f"{cmd}: {got[1]}") if isinstance(got, tuple) else (WRONG, f"{cmd}: {got}")
                    for got in self.check_one(kind, argv, facts, record)
                ]
            except (ValueError, KeyError, TypeError) as exc:
                found = [(WRONG, f"{cmd}: unreadable output {out!r}: {exc!r}")]
            problems.append(found)
        return problems

    def check_one(self, kind, argv, facts, r):
        """The problems with one command's JSON record: texts, or (kind, text) pairs."""
        args = argv[3:]
        if kind == "example":
            for key in ("holds", "solutions", "mgg", "term"):
                if key in facts and r[key] != facts[key]:
                    yield f"{key} {r[key]!r}, expected {facts[key]!r}"
            if "contains" in facts and not set(facts["contains"]) <= set(r["solutions"]):
                yield f"solutions {r['solutions']} lack {facts['contains']}"
            if facts.get("solutions") == [6, 9]:
                if "*(10,x1) -> *(2,x1)" not in r["witnesses"]["6"]:
                    yield "the witness *(10,x1) -> *(2,x1) of 6 is missing"
                if "*(10,x1) -> *(x1,x1)" not in r["witnesses"]["9"]:
                    yield "the witness *(10,x1) -> *(x1,x1) of 9 is missing"
            return
        if kind.startswith("finite-"):
            yield from self.check_finite(kind, args, facts, r)
        elif kind == "zplus-decide":
            if r["holds"] != ref.zplus_ok(*facts["values"]):
                yield f"holds {r['holds']}"
        elif kind == "zplus-solve":
            a, b, c = facts["values"]
            if r["solutions"] != [c + b - a]:
                yield f"solutions {r['solutions']}"
            for d, rules in r["witnesses"].items():
                for rule in rules:
                    if not zplus_witness_ok(ref.parse_rule(rule), a, b, c, int(d)):
                        yield f"witness {rule} does not justify {a}->{b} :: {c}->{d}"
        elif kind == "qmul-decide":
            if r["holds"] != ref.qmul_ok(*map(Fraction, facts["values"])):
                yield f"holds {r['holds']}"
        elif kind == "qmul-solve":
            a, b, c = map(Fraction, facts["values"])
            if [Fraction(s) for s in r["solutions"]] != [b * c / a]:
                yield f"solutions {r['solutions']}"
        elif kind == "nmul-decide":
            a, b, c, d = facts["values"]
            if r["holds"] != (d in ref.nmul_solutions(a, b, c)):
                yield f"holds {r['holds']}"
        elif kind == "nmul-solve-mono":
            if sorted(map(int, r["solutions"])) != sorted(ref.nmul_solutions(*facts["values"])):
                yield f"solutions {r['solutions']}"
        elif kind == "nmul-solve":
            a, b, c = facts["values"]
            if sorted(r["solutions"]) != sorted(int(d) for d in r["witnesses"]):
                yield f"solutions {r['solutions']} and witnessed {sorted(r['witnesses'])} differ"
            for d, rules in r["witnesses"].items():
                for rule in rules:
                    if not ref.nmul_witness_ok(ref.parse_rule(rule), a, b, c, int(d)):
                        yield f"witness {rule} of {d} fails over divisor assignments"
        elif kind == "antiunify":
            a, b = facts["values"]
            for text in r["common"]:
                coeff, exps = ref.parse_monomial(text)
                if not (ref.realizable(a, coeff, exps) and ref.realizable(b, coeff, exps)):
                    yield f"{text} does not generalize both {a} and {b}"
            if not r["mgg"] or not set(r["mgg"]) <= set(r["common"]):
                yield f"mgg {r['mgg']} is not a non-empty part of the common generalizations"
        elif kind == "word-solve":
            got = {"" if w == "%e" else w for w in r["solutions"]}
            want = ref.word_solutions(*facts["values"])
            if got != want:
                yield f"solutions {sorted(got)}, aligned factorizations give {sorted(want)}"
        elif kind == "word-decide":
            a, b, c, d = facts["values"]
            if r["holds"] != (d in ref.word_solutions(a, b, c)):
                yield f"holds {r['holds']}"
            elif r["holds"]:
                a1, a2, a3, b1, b2, b3 = r["witness"]
                if (a1 + a2 + a3, b1 + a2 + b3, a1 + b2 + a3, b1 + b2 + b3) != (a, b, c, d):
                    yield f"witness {r['witness']} does not factor the words"
        elif kind == "lgg":
            gen = ref.parse_term(r["term"])
            if any(ref.match(gen, ref.parse_term(t)) is None for t in facts["pair"]):
                yield f"{r['term']} does not generalize both terms"
        elif kind == "solve-tree":
            p, q, rr = facts["triple"]
            sols = [ref.parse_term(s) for s in r["solutions"]]
            if not all(ref.is_ground(s) for s in sols):
                yield f"non-ground solutions {r['solutions']}"
            if p == rr and ref.parse_term(q) not in sols:
                yield f"reflexivity: {q} is not a solution of {p} -> {q} :: {p} -> x"
        elif kind == "check-tree":
            if not r["established"]:
                yield "p : q :: p : q is not established"
        elif kind == "check-rule":
            want = ref.nmul_witness_ok(ref.parse_rule(facts["rule"]), *facts["values"])
            if r["characteristic"] != want:
                yield f"characteristic {r['characteristic']}, divisor assignments say {want}"

    def check_finite(self, kind, args, facts, r):
        path = facts["file"]
        tables = load_tables(path)
        alg = self.anaprop.algebras.load_finite_algebra(path)
        if kind == "finite-antiunify":
            a, b = facts["pair"]
            apply = ref.finite_apply(tables)
            for text in r["common"]:
                t = ref.parse_term(text)
                names = sorted(set(ref.term_vars(t)))
                values = {ref.evaluate(t, dict(zip(names, vs)), apply)
                          for vs in itertools.product(tables.carrier, repeat=len(names))}
                if not {a, b} <= values:
                    yield f"{text} does not evaluate to both {a} and {b}"
            return
        if kind == "finite-enumerate":
            quads = {tuple(q) for q in r["quadruples"]}
            for x in tables.carrier:
                for y in tables.carrier:
                    if (x, y, x, y) not in quads or (x, x, y, y) not in quads:
                        yield f"reflexivity fails for {x}, {y}"
            for a, b, c, d in quads:
                if (c, d, a, b) not in quads or (b, a, d, c) not in quads:
                    yield f"symmetry or inner symmetry fails on {(a, b, c, d)}"
            return
        dec = self.anaprop.FragmentDecider(alg, k=1)
        if kind == "finite-solve":
            if r["solutions"] != dec.solve(*args[:3]):
                yield f"solutions {r['solutions']} differ from the library's"
            return
        verdict = dec.decide_proportion(*args[:4])
        if (r["holds"], r["reason"]) != (verdict.holds, verdict.reason):
            yield f"{r['holds']}/{r['reason']} differs from the automata engine"
        if not facts.get("oracle") and r["holds"]:
            shown = SimpleNamespace(witness=r["witness"], reason=r["reason"], arrow=r["arrow"])
            yield from proportion_witness(dec, shown, tuple(args[:4]), tables, tables,
                                          1, None, seeded=True)


def zplus_witness_ok(rule, a, b, c, d) -> bool:
    """lhs = x1 + o has the one solution x1 = v - o; the rule must send a to b and c to d."""
    lhs, rhs = rule
    names = set(ref.term_vars(lhs))
    if len(names) != 1:
        return False
    x = names.pop()
    offset = ref.evaluate(lhs, {x: 0}, zplus_apply)

    def arrow(u, v):
        alpha = {x: u - offset}
        return ref.evaluate(lhs, alpha, zplus_apply) == u and ref.evaluate(rhs, alpha, zplus_apply) == v

    return arrow(a, b) and arrow(c, d)


WORKLOADS = {"finite": Finite, "crosscheck": Crosscheck, "cli": Cli}
