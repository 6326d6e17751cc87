"""Seeded inputs of the three workloads.

Generators draw from the ``random.Random`` they are given and from nothing
else, so the same seed gives the same inputs and nothing here depends on
timing or on the answers of the program under test.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from types import SimpleNamespace

import reference as ref


def idle() -> None:
    """The default ``tick``: generators call ``tick()`` between steps of set-up work."""

# ---------------------------------------------------------------------------
# finite: random algebras kept when their behaviour-state count falls in a band

# name: (carrier sizes, operation arities, constants, k, ell, state band,
# predicted work of the queried triples).  The cost of one query varies
# widely with the algebra and the triple, so each algebra is queried at the
# same ladder of predicted work (see reference.solve_weights); the ladders
# span the middle of what random algebras of each shape offer.
FINITE_SHAPES = {
    "unary7": ((7,), (1, 1), 0, 1, None, (100, 115), (160, 680, 1340, 2850, 12200, 46700)),
    "unary6": ((6,), (1, 1), 0, 1, None, (60, 70), (245, 675, 1245, 2915, 8600, 20600)),
    "binary4": ((4,), (2,), 0, 1, None, (60, 70), (19300, 20500, 24500, 52700, 58900, 101700)),
    "mixed3": ((3,), (1, 2), 0, 1, None, (25, 27), (3515, 3920, 4190, 4995, 7935, 9900)),
    "k2l1": ((3,), (1, 2), 1, 2, 1, (40, 50), (3250, 7690, 10000, 15960, 22270, 33950)),
    "pair4": ((4, 4), (1, 1), 0, 1, None, (60, 80), (215, 720, 1345, 5240, 16155, 41090)),
}


def random_tables(rng: random.Random, carrier, arities, n_const, name):
    ops = {
        sym: {args: rng.choice(carrier) for args in itertools.product(carrier, repeat=ar)}
        for sym, ar in zip("fgh", arities)
    }
    constants = {f"c{i}": rng.choice(carrier) for i in range(n_const)}
    return dict(name=name, carrier=carrier, constants=constants, ops=ops)


def finite_case(rng: random.Random, FiniteAlgebra, shape: str, tick=idle):
    """Algebras of ``shape`` in its state band, and the triples queried on them.

    Returns (algebras, k, ell, state count, triples); each triple is the one
    whose predicted work is nearest to a step of the shape's ladder.
    """
    sizes, arities, n_const, k, ell, (lo, hi), ladder = FINITE_SHAPES[shape]
    while True:
        algebras = tuple(
            FiniteAlgebra(**random_tables(
                rng, tuple(f"{'ef'[i]}{j}" for j in range(n)), arities, n_const,
                f"{shape}-{i}"))
            for i, n in enumerate(sizes)
        )
        tick()
        term_sizes: list = []
        states = ref.behaviour_states(algebras, k, ell, hi, term_sizes)
        if states is not None and len(states) >= lo:
            break
    work = ref.solve_weights(algebras, states, term_sizes)
    chosen: list = []
    for target in ladder:
        chosen.append(min((t for t in sorted(work) if t not in chosen),
                          key=lambda t: abs(math.log((work[t] + 1) / target))))
    first, second = algebras[0].carrier, algebras[-1].carrier
    triples = [(first[a], first[b], second[c]) for a, b, c in chosen]
    return algebras, k, ell, len(states), triples


# ---------------------------------------------------------------------------
# crosscheck: the acceptance suite's random algebra pairs


def random_finite_algebra(rng, FiniteAlgebra, max_size=4, max_symbols=2, max_arity=2,
                          name="rand"):
    size = rng.randint(1, max_size)
    carrier = tuple(f"e{i}" for i in range(size))
    ops = {}
    names = iter(["f", "g"])
    for _ in range(rng.randint(0, max_symbols)):
        arity = rng.randint(1, max_arity)
        ops[next(names)] = {
            args: rng.choice(carrier) for args in itertools.product(carrier, repeat=arity)
        }
    constants = {c: rng.choice(carrier) for c in ["c0", "c1"][: rng.randint(0, 2)]}
    return FiniteAlgebra(name=name, carrier=carrier, constants=constants, ops=ops)


def random_algebra_pair(rng, FiniteAlgebra, max_size=4):
    """Two random algebras over one signature, identical four times in ten."""
    first = random_finite_algebra(rng, FiniteAlgebra, max_size, name="first")
    if rng.random() < 0.4:
        return first, first
    carrier = tuple(f"f{i}" for i in range(rng.randint(1, max_size)))
    ops = {
        sym: {
            args: rng.choice(carrier)
            for args in itertools.product(carrier, repeat=len(next(iter(table))))
        }
        for sym, table in first.ops.items()
    }
    constants = {sym: rng.choice(carrier) for sym in first.constants}
    return first, FiniteAlgebra(name="second", carrier=carrier, constants=constants, ops=ops)


DECIDER_CAP = 60
ORACLE_LIMIT = 300
# Child tuples the oracle's enumeration is estimated to visit; pairs at or
# above this are the slow constructions.
HEAVY_COMBOS = 10_000
# Quick pairs are sorted by behaviour states and by the product of the two
# carrier sizes into these bins (lower bounds); a round holds a fixed number
# from each pair of bins, in about the proportions drawn.  The product sets
# how many quadruples an operation decides.
STATE_BINS = (1, 5, 20)
PRODUCT_BINS = (1, 2, 3, 4, 6, 8, 9, 12, 16)


def crosscheck_pairs(rng, FiniteAlgebra, light_quota, n_heavy: int, tick=idle):
    """Pairs drawn as the acceptance suite draws them, in fixed-size strata.

    A pair is skipped, as there, when its behaviour states pass the decider
    cap or are none.  The rest are sorted by the estimated work of the oracle
    enumeration, by state count and by carrier sizes: every round holds
    ``n_heavy`` slow constructions that end over budget, and
    ``light_quota[i][j]`` quick ones from state bin i and product bin j.  Slow
    constructions that end within the limit are skipped too: they are rare,
    and their cost ranges widely with the depth.
    """
    light_quota = [q for row in light_quota for q in row]
    light = [[] for _ in light_quota]
    heavy: list = []
    counts: dict = {}

    def count(ranks, k, ell, depth):
        key = (tuple(sorted(ranks.items())), k, ell, depth)
        if key not in counts:
            counts[key] = ref.term_count(ranks, k, ell, depth, ORACLE_LIMIT)
        return counts[key]

    while any(len(b) < q for b, q in zip(light, light_quota)) or len(heavy) < n_heavy:
        tick()
        first, second = random_algebra_pair(rng, FiniteAlgebra)
        k = rng.choice([1, 2])
        ell = rng.choice([1, None])
        ranks = first.signature.ranks
        if all(len(b) >= q for b, q in zip(light, light_quota)):
            # only a slow pair can still be used; the count grows with the depth
            terms, combos = count(ranks, k, ell, DECIDER_CAP)
            if combos < HEAVY_COMBOS or terms is not None:
                continue
        algebras = (first,) if second is first else (first, second)
        states = ref.behaviour_states(algebras, k, ell, DECIDER_CAP)
        if not states:
            continue
        terms, combos = count(ranks, k, ell, len(states))
        if combos < HEAVY_COMBOS:
            row = sum(len(states) >= lo for lo in STATE_BINS) - 1
            product = len(first.carrier) * len(second.carrier)
            column = sum(product >= lo for lo in PRODUCT_BINS) - 1
            i = row * len(PRODUCT_BINS) + column
            bucket, quota = light[i], light_quota[i]
        elif terms is None:
            bucket, quota = heavy, n_heavy
        else:
            continue
        if len(bucket) < quota:
            bucket.append(dict(first=first, second=second, k=k, ell=ell,
                               states=len(states), terms=terms))
    return [case for bucket in light for case in bucket] + heavy


def fault_pair(FiniteAlgebra):
    """A seed-independent pair on which ``decide_proportion`` names a wrong witness."""
    c = FiniteAlgebra(name="C", carrier=("e0", "e1", "e2"),
                      constants={"c0": "e2", "c1": "e1"})
    states = ref.behaviour_states((c,), 1, None, DECIDER_CAP)
    count, _ = ref.term_count(c.signature.ranks, 1, None, len(states), ORACLE_LIMIT)
    return dict(first=c, second=c, k=1, ell=None, states=len(states), terms=count, fixed=True)


# ---------------------------------------------------------------------------
# cli: a seeded script over every subcommand

FIXTURES = ("a1", "a2", "a3")
# Generated algebra files have two unary operations on four elements, 20-30
# behaviour states and a predicted enumerate work (the sum of
# reference.solve_weights over all triples) in a narrow band, so that their
# queries cost about the same from seed to seed.
CLI_STATES = (20, 30)
CLI_WORK = (85_000, 95_000)
TREE_NODES = 5
# nmul inputs are p^3 q r for these (p, q, r): numbers below 400 with the same prime signature
NMUL_PRIMES = ((2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 2, 5), (3, 2, 7))


def algebra_doc(tables) -> dict:
    return {
        "name": tables["name"],
        "carrier": list(tables["carrier"]),
        "constants": tables["constants"],
        "ops": [
            {"symbol": sym, "arity": len(next(iter(t))),
             "table": {",".join(args): v for args, v in t.items()}}
            for sym, t in tables["ops"].items()
        ],
    }


def word(rng, alphabet, lo, hi):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def nmul_triple(rng):
    p, q, r = rng.choice(NMUL_PRIMES)
    a = p ** 3 * q * r
    b = a // p * rng.choice([2, 3, 5, 7])
    p, q, r = rng.choice(NMUL_PRIMES)
    return a, b, p ** 3 * q * r


def generated_tables(rng, name):
    while True:
        tables = random_tables(rng, tuple(f"e{j}" for j in range(4)), (1, 1), 0, name)
        algebra, sizes = SimpleNamespace(**tables), []
        states = ref.behaviour_states((algebra,), 1, None, CLI_STATES[1], sizes)
        if states is None or len(states) < CLI_STATES[0]:
            continue
        work = sum(ref.solve_weights((algebra,), states, sizes).values())
        if CLI_WORK[0] <= work <= CLI_WORK[1]:
            return tables


def ground_tree(rng, nodes):
    """A random ground term over f/2, g/1 and a, b, c with exactly ``nodes`` symbols.

    The size is fixed because solving ``p -> q :: p -> x`` walks every
    generalization of p, a number exponential in its size.
    """
    if nodes == 1:
        return rng.choice("abc")
    if nodes == 2 or rng.random() < 0.4:
        return f"g({ground_tree(rng, nodes - 1)})"
    left = rng.randint(1, nodes - 2)
    return f"f({ground_tree(rng, left)},{ground_tree(rng, nodes - 1 - left)})"


def cli_script(rng, root: str, workdir: str, scale: int = 1, tick=idle):
    """(kind, argv, facts) triples; ``facts`` is what the checker needs.

    Writes the generated algebra files into ``workdir``.
    """
    fixtures = {name: os.path.join(root, "algebras", f"{name}.json") for name in FIXTURES}
    generated = []
    for i in range(2 * scale):
        tables = generated_tables(rng, f"gen{i}")
        tick()
        path = os.path.join(workdir, f"gen{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(algebra_doc(tables), fh)
        generated.append((path, tables))

    script = []

    def add(kind, argv, **facts):
        script.append((kind, ["--format", "json"] + argv, facts))

    # worked examples of the paper and the README, checked against hand-written values
    add("example", ["decide", "a", "b", "c", "d", "--algebra", fixtures["a1"]], holds=True)
    add("example", ["decide", "a", "c", "b", "d", "--algebra", fixtures["a1"]], holds=True)
    add("example", ["decide", "a", "b", "c", "d", "--algebra", fixtures["a2"]], holds=False)
    add("example", ["decide", "a", "b", "a", "c", "--algebra", fixtures["a3"]], holds=False)
    add("example", ["solve", "20", "4", "30", "--algebra", "nmul"], solutions=[6, 9])
    add("example", ["antiunify", "20", "30", "--algebra", "nmul"], mgg=["10x"])
    add("example", ["lgg", "f(a,a,a)", "f(a,b,c)"], term="f(a,x1,x2)")
    add("example", ["solve-tree", "f(a,a,a)", "f(a,a,a)", "f(a,b,c)"],
        contains=["f(a,c,b)", "f(c,b,a)"])

    for unit in range(scale):
        for name, path in fixtures.items():
            carrier = "abcd" if name != "a3" else "abc"
            quad = [rng.choice(carrier) for _ in range(4)]
            add("finite-decide", ["decide", *quad, "--algebra", path], file=path)
            add("finite-solve", ["solve", *quad[:3], "--algebra", path], file=path)
        add("finite-decide", ["decide", "a", "b", "c", "d", "--algebra", fixtures["a2"],
                              "--engine", "oracle"], file=fixtures["a2"], oracle=True)
        add("finite-enumerate", ["enumerate", "--algebra", fixtures["a3"]], file=fixtures["a3"])
        mine = generated[2 * unit:2 * unit + 2]
        for path, tables in mine:
            quad = [rng.choice(tables["carrier"]) for _ in range(4)]
            add("finite-decide", ["decide", *quad, "--algebra", path], file=path)
            add("finite-solve", ["solve", *quad[:3], "--algebra", path], file=path)
        add("finite-enumerate", ["enumerate", "--algebra", mine[0][0]], file=mine[0][0])
        pair = rng.sample("abcd", 2)
        add("finite-antiunify", ["antiunify", *pair, "--algebra", fixtures["a2"]],
            file=fixtures["a2"], pair=pair)
        for _ in range(3):
            a, b, c, d = (rng.randint(-10 ** 6, 10 ** 6) for _ in range(4))
            if rng.random() < 0.5:
                d = c + b - a
            # options go before "--", which lets the numbers start with a minus sign
            add("zplus-decide", ["decide", "--algebra", "zplus", "--", str(a), str(b), str(c),
                                 str(d)], values=(a, b, c, d))
            add("zplus-solve", ["solve", "--algebra", "zplus", "--", str(a), str(b), str(c)],
                values=(a, b, c))
            q = [f"{rng.choice([-1, 1]) * rng.randint(1, 40)}/{rng.randint(1, 40)}"
                 for _ in range(4)]
            add("qmul-decide", ["decide", "--algebra", "qmul", "--", *q], values=q)
            add("qmul-solve", ["solve", "--algebra", "qmul", "--", *q[:3]], values=q[:3])
            x, y = rng.randint(2, 12), rng.randint(2, 12)
            o, u = rng.randint(2, 12), rng.randint(2, 12)
            nq = (x * o, y * o, x * u, rng.choice([y * u, y * u + 1]))
            add("nmul-decide", ["decide", *map(str, nq), "--algebra", "nmul", "--l", "1"],
                values=nq)
            add("nmul-solve-mono", ["solve", *map(str, nq[:3]), "--algebra", "nmul", "--l", "1"],
                values=nq[:3])
            w = [word(rng, "ab", 1, 5) for _ in range(3)]
            add("word-solve", ["solve", *w, "--algebra", "word:ab"], values=w)
            sols = sorted(ref.word_solutions(*w) - {""})   # the algebra has no empty word
            d = rng.choice(sols) if sols and rng.random() < 0.5 else word(rng, "ab", 1, 5)
            add("word-decide", ["decide", *w, d, "--algebra", "word:ab"], values=w + [d])
            p, q2, r = (ground_tree(rng, TREE_NODES) for _ in range(3))
            add("lgg", ["lgg", p, r], pair=(p, r))
            add("solve-tree", ["solve-tree", p, q2, r], triple=(p, q2, r))
            add("solve-tree", ["solve-tree", p, q2, p], triple=(p, q2, p))
            add("check-tree", ["check-tree", p, q2, p, q2], holds=True)
        a, b, c = nmul_triple(rng)
        add("nmul-solve", ["solve", str(a), str(b), str(c), "--algebra", "nmul"],
            values=(a, b, c))
        add("antiunify", ["antiunify", str(a), str(c), "--algebra", "nmul"], values=(a, c))
        k, lm, o, u = (rng.randint(2, 9) for _ in range(4))
        quad = (k * o, lm * o, k * u, lm * u + rng.choice([0, 1]))
        add("check-rule", ["check-rule", f"*({k},x1) -> *({lm},x1)", *map(str, quad),
                           "--algebra", "nmul"],
            rule=f"*({k},x1) -> *({lm},x1)", values=quad)
    return script
