"""Computations made apart from anaprop, used to check its answers.

Nothing here calls into the package.  Terms arrive as the text anaprop
prints (prefix syntax, ``lhs -> rhs`` for rules) and are parsed by the small
reader below into nested tuples: a variable is a ``str``, an application is
``(symbol, (arg, ...))``.  Finite algebras are read through their data
fields only (carrier, constant map, operation tables).
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction

VAR = re.compile(r"x\d+$")

# ---------------------------------------------------------------------------
# Terms as text


def parse_term(text: str):
    tokens = re.findall(r"[(),]|[^(),\s]+", text)
    pos = 0

    def term():
        nonlocal pos
        head = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args = [term()]
            while tokens[pos] == ",":
                pos += 1
                args.append(term())
            if tokens[pos] != ")":
                raise ValueError(f"unbalanced term {text!r}")
            pos += 1
            return (head, tuple(args))
        return head if VAR.match(head) else (head, ())

    out = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in term {text!r}")
    return out


def parse_rule(text: str):
    lhs, rhs = text.split(" -> ")
    return parse_term(lhs), parse_term(rhs)


def term_vars(t) -> list[str]:
    """Variable occurrences, left to right."""
    if isinstance(t, str):
        return [t]
    return [v for a in t[1] for v in term_vars(a)]


def evaluate(t, alpha: dict, apply):
    if isinstance(t, str):
        return alpha[t]
    return apply(t[0], tuple(evaluate(a, alpha, apply) for a in t[1]))


def match(pattern, subject, sigma=None):
    """A substitution sending ``pattern`` to ``subject``, or None."""
    sigma = {} if sigma is None else sigma
    if isinstance(pattern, str):
        if sigma.setdefault(pattern, subject) != subject:
            return None
        return sigma
    if isinstance(subject, str) or pattern[0] != subject[0] or len(pattern[1]) != len(subject[1]):
        return None
    for p, s in zip(pattern[1], subject[1]):
        if match(p, s, sigma) is None:
            return None
    return sigma


def is_ground(t) -> bool:
    return not term_vars(t)


# ---------------------------------------------------------------------------
# Finite algebras


def finite_apply(algebra):
    tables, constants = algebra.ops, algebra.constants

    def apply(symbol, args):
        return tables[symbol][args] if args else constants[symbol]

    return apply


def justifies(rule, a, b, algebra) -> bool:
    """Some assignment sends the rule's sides to ``a`` and ``b`` (the arrow a -> b)."""
    lhs, rhs = rule
    names = sorted(set(term_vars(lhs)))
    apply = finite_apply(algebra)
    for values in itertools.product(algebra.carrier, repeat=len(names)):
        alpha = dict(zip(names, values))
        if evaluate(lhs, alpha, apply) == a and evaluate(rhs, alpha, apply) == b:
            return True
    return False


def in_fragment(rule, k: int, ell) -> bool:
    """At most k variables x1..xk, each at most ell times per side, rhs vars within lhs."""
    lhs, rhs = rule
    allowed = {f"x{i + 1}" for i in range(k)}
    lv, rv = term_vars(lhs), term_vars(rhs)
    if not set(lv) <= allowed or not set(rv) <= set(lv):
        return False
    return ell is None or all(side.count(v) <= ell for side in (lv, rv) for v in set(side))


def behaviour_states(algebras, k: int, ell, cap: int, sizes=None):
    """Reachable (evaluation tables, saturated occurrence vector) pairs, or None past ``cap``.

    A term's state is its value under every assignment of x1..xk in each
    algebra together with how often each variable occurs (saturated at
    ell + 1, or at 1 when occurrences are unbounded).  ``sizes``, when
    given, receives the size of the first term found for each state.
    """
    sizes = [] if sizes is None else sizes
    top = 1 if ell is None else ell + 1
    assigns = [list(itertools.product(range(len(A.carrier)), repeat=k)) for A in algebras]
    index = [{x: i for i, x in enumerate(A.carrier)} for A in algebras]
    ops = [
        {s: {tuple(index[m][x] for x in args): index[m][v] for args, v in t.items()}
         for s, t in A.ops.items()}
        for m, A in enumerate(algebras)
    ]
    states: list = []
    seen: set = set()

    def add(state, size) -> bool:
        if ell is not None and max(state[1], default=0) > ell:
            return False
        if state in seen:
            return False
        seen.add(state)
        states.append(state)
        sizes.append(size)
        return True

    for v in range(k):
        add((tuple(tuple(al[v] for al in assigns[m]) for m in range(len(algebras))),
             tuple(int(i == v) for i in range(k))), 1)
    for c in algebras[0].constants:
        add((tuple(tuple(index[m][A.constants[c]] for _ in assigns[m])
                   for m, A in enumerate(algebras)), (0,) * k), 1)
    ranks = {s: len(next(iter(t))) for s, t in algebras[0].ops.items()}
    done = 0
    while done < len(states):
        start, done = done, len(states)
        for sym, rank in ranks.items():
            for combo in itertools.product(range(done), repeat=rank):
                if max(combo) < start:
                    continue
                kids = [states[c] for c in combo]
                occ = tuple(min(sum(s[1][v] for s in kids), top) for v in range(k))
                tables = tuple(
                    tuple(ops[m][sym][tuple(s[0][m][j] for s in kids)]
                          for j in range(len(assigns[m])))
                    for m in range(len(algebras))
                )
                if add((tables, occ), 1 + sum(sizes[c] for c in combo)) and len(states) > cap:
                    return None
    return states


def term_count(ranks: dict, k: int, ell, depth: int, limit: int):
    """Terms over x1..xk up to height ``depth`` within the occurrence bound.

    Counts by height and occurrence vector, with no term built.  Returns
    ``(count, combos)``: ``count`` is the number of terms, or None once it
    passes ``limit``; ``combos`` estimates how many child tuples a
    level-by-level enumeration that rescans every known term at each level
    visits before it stops or passes ``limit``.
    """
    dims = k if ell is not None else 0      # occurrences matter only under a bound
    zero = (0,) * dims

    def conv(x, y):
        out: dict = {}
        for u, m in x.items():
            for w, n in y.items():
                s = tuple(a + b for a, b in zip(u, w))
                if ell is None or max(s, default=0) <= ell:
                    out[s] = out.get(s, 0) + m * n
        return out

    def power(x, r):
        out = {zero: 1}
        for _ in range(r):
            out = conv(out, x)
        return out

    level: dict = {}
    for v in range(k):
        key = tuple(int(i == v) for i in range(dims))
        level[key] = level.get(key, 0) + 1
    n_const = sum(1 for r in ranks.values() if r == 0)
    if n_const:
        level[zero] = level.get(zero, 0) + n_const
    below: dict = {}           # terms of height < h - 1
    upto = dict(level)         # terms of height <= h - 1
    total = sum(level.values())
    combos = 0
    if total > limit:
        return None, combos
    for _ in range(depth):
        level_combos = sum(total ** r for r in ranks.values() if r > 0)
        new: dict = {}
        for r in ranks.values():
            if r == 0:
                continue
            hi, lo = power(upto, r), power(below, r)
            for key, n in hi.items():
                n -= lo.get(key, 0)
                if n:
                    new[key] = new.get(key, 0) + n
        added = sum(new.values())
        if total + added > limit:
            # the enumeration stops at the first term past the limit; new
            # terms are taken as spread evenly over the level's child tuples
            return None, combos + level_combos * (limit + 1 - total) // added
        combos += level_combos
        if not added:
            break
        total += added
        below = dict(upto)
        for key, n in new.items():
            upto[key] = upto.get(key, 0) + n
    return total, combos


# ---------------------------------------------------------------------------
# Built-in number and word algebras


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def nat_factorizations(a: int, b: int, c: int):
    """All (k, l, o, u) of positive naturals with a = k o, b = l o, c = k u."""
    for o in divisors(a):
        k = a // o
        if b % o or c % k:
            continue
        yield k, b // o, o, c // k


def nmul_solutions(a: int, b: int, c: int) -> set[int]:
    """d = l u over every factorization, kept when d >= 2."""
    return {l * u for _, l, _, u in nat_factorizations(a, b, c) if l * u >= 2}


def nmul_apply(symbol, args):
    if not args:
        return int(symbol)
    if symbol != "*":
        raise ValueError(f"unexpected symbol {symbol!r} over nmul")
    return args[0] * args[1]


def nmul_assignments(t, n: int) -> list[dict]:
    """Every assignment of values >= 2 to the variables of ``t`` sending it to n."""
    names = sorted(set(term_vars(t)))
    pool = [d for d in divisors(n) if d >= 2]
    return [
        dict(zip(names, values))
        for values in itertools.product(pool, repeat=len(names))
        if evaluate(t, dict(zip(names, values)), nmul_apply) == n
    ]


def nmul_witness_ok(rule, a: int, b: int, c: int, d: int) -> bool:
    """The rule justifies a -> b and c -> d, and its lhs has one solution at c."""
    lhs, rhs = rule

    def arrow(x, y):
        return any(evaluate(rhs, alpha, nmul_apply) == y for alpha in nmul_assignments(lhs, x))

    return arrow(a, b) and arrow(c, d) and len(nmul_assignments(lhs, c)) == 1


MONO = re.compile(r"(\d*)((?:[xyzvwpqrst](?:\^\d+)?)*)$")


def parse_monomial(text: str) -> tuple[int, list[int]]:
    """``10x`` -> (10, [1]); ``x^2y`` -> (1, [2, 1])."""
    m = MONO.match(text)
    if m is None:
        raise ValueError(f"not a monomial: {text!r}")
    exps = [int(e or 1) for e in re.findall(r"[xyzvwpqrst](?:\^(\d+))?", m.group(2))]
    return int(m.group(1) or 1), exps


def realizable(n: int, coeff: int, exps: list[int]) -> bool:
    """n = coeff * o1^e1 * ... with every oi >= 2."""
    if n % coeff:
        return False
    rest = n // coeff
    if not exps:
        return rest == 1
    e = exps[0]
    return any(rest % (o ** e) == 0 and realizable(rest // o ** e, 1, exps[1:])
               for o in range(2, rest + 1) if o ** e <= rest)


def splits3(w: str):
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            yield w[:i], w[i:j], w[j:]


def word_solutions(a: str, b: str, c: str) -> set[str]:
    """d = b1 b2 b3 over every a = a1 a2 a3, b = b1 a2 b3, c = a1 b2 a3."""
    out = set()
    for a1, a2, a3 in splits3(a):
        for b1, m, b3 in splits3(b):
            if m != a2:
                continue
            for p, b2, s in splits3(c):
                if p == a1 and s == a3:
                    out.add(b1 + b2 + b3)
    return out


def zplus_ok(a: int, b: int, c: int, d: int) -> bool:
    return a - b == c - d


def qmul_ok(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> bool:
    return a * d == b * c



def solve_weights(algebras, states, sizes):
    """Predicted work of ``solve(a, b, c)`` for every triple of element indices.

    For each candidate d and each arrow of a : b :: c : d the work is taken
    as the shared class pairs of the arrow's two sides, weighted by the
    sizes of the two classes' smallest terms (choosing the smallest witness
    rule is what dominates a decision), plus a share for every pair id the
    arrow's set operations scan.  ``sizes`` are the
    sizes of the first term ``behaviour_states`` finds for each state.
    """
    n1, n2 = len(algebras[0].carrier), len(algebras[-1].carrier)
    last = len(algebras) - 1
    supports = [frozenset(v for v, n in enumerate(occ) if n) for _, occ in states]
    shared = [0] * (n1 * n1 * n2 * n2)       # index (a n1 + b) n2^2 + (c n2 + d)
    size1, size2 = [0] * (n1 * n1), [0] * (n2 * n2)
    for i, (ti, _) in enumerate(states):
        for j, (tj, _) in enumerate(states):
            if not supports[j] <= supports[i]:
                continue
            weight = sizes[i] + sizes[j]
            left = {x * n1 + y for x, y in zip(ti[0], tj[0])}
            right = {x * n2 + y for x, y in zip(ti[last], tj[last])}
            for u in left:
                size1[u] += 1
                row = u * n2 * n2
                for v in right:
                    shared[row + v] += weight
            for v in right:
                size2[v] += 1
    if not last:
        size2 = size1
    cost = {}
    for a in range(n1):
        for b in range(n1):
            for c in range(n2):
                work = 0.0
                for d in range(n2):
                    for x, y, u, v in ((a, b, c, d), (b, a, d, c)):
                        left = size1[x * n1 + y]
                        scan = left + size2[u * n2 + v] + sum(
                            min(left, size2[u * n2 + e]) for e in range(n2))
                        work += shared[(x * n1 + y) * n2 * n2 + u * n2 + v] + SCAN_SHARE * scan
                cost[a, b, c] = float(work)
    return cost


# cost of one pair id met in a set operation, relative to one unit of witness weight
SCAN_SHARE = 0.03
