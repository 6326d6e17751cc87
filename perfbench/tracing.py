"""Spans around calls into anaprop's public functions, and the per-layer metrics.

The tracer replaces functions and methods by wrappers from the benchmark's
own files; nothing inside the package changes.  Each span records its name,
start, end, parent span and operation id, plus an optional count, and is kept
in memory until the run ends.
"""
from __future__ import annotations

import json
import resource
import statistics
from time import perf_counter

# name, unit: the per-layer metrics of BENCHMARK.json, in its order
PER_LAYER = [
    ("decider.automaton_s", "s"), ("decider.states", "count"), ("decider.index_s", "s"),
    ("decider.index_mb", "MB"), ("decider.arrow_ms", "ms"), ("decider.arrow_calls", "count"),
    ("decider.solve_self_ms", "ms"), ("decider.natural_solve_ms", "ms"),
    ("oracle.universe_s", "s"), ("oracle.over_budget_s", "s"),
    ("oracle.over_budget_count", "count"), ("oracle.over_budget_share", "ratio"),
    ("oracle.classes", "count"), ("oracle.decide_ms", "ms"), ("closedform.solve_ms", "ms"),
    ("antiunify.common_gens_ms", "ms"), ("antiunify.mgg_ms", "ms"),
    ("trees.solve_tree_ms", "ms"), ("trees.lgg_ms", "ms"), ("algebras.load_ms", "ms"),
    ("cli.run_ms", "ms"), ("cli.self_ms", "ms"),
]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent, op, error, count)
        self.stack: list[int] = []
        self.op = None          # (round, index) of the running operation; None in set-up
        self.restore: list = []
        self.active = True

    def wrap(self, owner, attr, name, count=None, rss=False):
        """Trace calls of ``owner.attr``.

        ``count(args, result)`` adds a number to the span; with ``rss`` a
        non-None number is replaced by the rise of peak RSS across the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:   # a caller may still hold the wrapper after uninstall
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            error, number = None, None
            before = peak_rss_mb() if rss else 0.0
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    number = count(args, result)
                if rss and number is not None:
                    number = peak_rss_mb() - before
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op, error, number)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self.restore.append((owner, attr, original))

    def install(self) -> None:
        import anaprop.antiunify as au
        import anaprop.cli as cli
        import anaprop.decider as dc
        import anaprop.oracle as orc
        import anaprop.trees as tr

        indexed: set[int] = set()

        def first_index(args, result):
            # the lazy class-pair index is built on a decider's first query
            if id(args[0]) in indexed:
                return None
            indexed.add(id(args[0]))
            return 1

        fd, ou = dc.FragmentDecider, orc.OracleUniverse
        self.wrap(fd, "__init__", "decider.automaton", lambda a, r: a[0].state_count)
        self.wrap(fd, "justification_classes", "decider.index", first_index, rss=True)
        self.wrap(fd, "decide_arrow", "decider.arrow")
        self.wrap(fd, "decide_proportion", "decider.proportion")
        self.wrap(fd, "solve", "decider.solve")
        self.wrap(ou, "__init__", "oracle.universe", lambda a, r: len(a[0].class_reps))
        self.wrap(ou, "decide", "oracle.decide")
        # cli.py imports these names into its own namespace, so they are wrapped there
        self.wrap(cli, "natural_solve", "decider.natural_solve")
        for fn in ("solve_mono_add", "solve_mono_mul", "solve_mono_word"):
            self.wrap(cli, fn, "closedform.solve")
        self.wrap(au, "common_gens", "antiunify.common_gens")
        self.wrap(au, "mgg", "antiunify.mgg")
        self.wrap(cli, "solve_tree_equation", "trees.solve_tree")
        for module in (tr, cli):
            self.wrap(module, "lgg", "trees.lgg")
        self.wrap(cli, "load_algebra", "algebras.load")
        self.wrap(cli, "run", "cli.run")

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    # -- metrics --------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict:
        """The per-layer metrics of the recorded spans (set-up and the first round)."""
        spans, own = self.spans, self.self_times()

        def calls(name, error=False):
            return [s for s in spans if s[0] == name and (s[5] is not None) == error]

        def total(group):
            return sum((s[2] - s[1] for s in group), 0.0)

        def median_ms(name, self_time=False):
            values = [own[i] if self_time else s[2] - s[1]
                      for i, s in enumerate(spans) if s[0] == name and s[5] is None]
            return statistics.median(values) * 1e3 if values else 0.0

        built = calls("decider.automaton")
        index = [s for s in calls("decider.index") if s[6] is not None]
        accepted = calls("oracle.universe")
        over = calls("oracle.universe", error=True)
        universe_s, over_s = total(accepted), total(over)
        values = {
            "decider.automaton_s": total(built),
            "decider.states": sum(s[6] for s in built),
            "decider.index_s": total(index),
            "decider.index_mb": sum((s[6] for s in index), 0.0),
            "decider.arrow_ms": median_ms("decider.arrow"),
            "decider.arrow_calls": len([s for s in calls("decider.arrow") if s[4] is not None]),
            "decider.solve_self_ms": median_ms("decider.solve", self_time=True),
            "decider.natural_solve_ms": median_ms("decider.natural_solve"),
            "oracle.universe_s": universe_s,
            "oracle.over_budget_s": over_s,
            "oracle.over_budget_count": len(over),
            "oracle.over_budget_share": over_s / (universe_s + over_s) if over else 0.0,
            "oracle.classes": sum(s[6] for s in accepted),
            "oracle.decide_ms": median_ms("oracle.decide"),
            "closedform.solve_ms": median_ms("closedform.solve"),
            "antiunify.common_gens_ms": median_ms("antiunify.common_gens"),
            "antiunify.mgg_ms": median_ms("antiunify.mgg"),
            "trees.solve_tree_ms": median_ms("trees.solve_tree"),
            "trees.lgg_ms": median_ms("trees.lgg"),
            "algebras.load_ms": median_ms("algebras.load"),
            "cli.run_ms": median_ms("cli.run"),
            "cli.self_ms": median_ms("cli.run", self_time=True),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def table(self) -> str:
        """Calls, total and self time per span name, for the log."""
        own = self.self_times()
        rows: dict = {}
        for i, s in enumerate(self.spans):
            row = rows.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += own[i]
        lines = [f"{'span':28} {'calls':>8} {'total s':>10} {'self s':>10}"]
        for name, (calls, tot, self_s) in sorted(rows.items()):
            lines.append(f"{name:28} {calls:8d} {tot:10.4f} {self_s:10.4f}")
        return "\n".join(lines)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, error, number) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error,
                                     "count": number}) + "\n")
