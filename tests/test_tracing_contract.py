"""The names that the benchmark's tracer (``perfbench/tracing.py``) wraps.

The tracer replaces functions and methods of the package by timing wrappers
from the benchmark's own files, so renaming, folding or aliasing one of them
silently drops a per-layer metric.  This installs the tracer, calls every
wrapped name once, checks that each span is recorded, and checks that
uninstalling puts the original functions back.
"""
import os
import sys

import anaprop.antiunify as au
import anaprop.cli as cli
import anaprop.decider as dc
import anaprop.oracle as orc
import anaprop.trees as tr
from anaprop.algebras import FiniteAlgebra

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
ALGEBRAS = os.path.join(os.path.dirname(BENCH), "algebras")

sys.path.insert(0, BENCH)
try:
    import tracing
finally:
    sys.path.remove(BENCH)


def _algebra():
    return FiniteAlgebra(name="A2", carrier=("a", "b", "c", "d"),
                         ops={"f": {("a",): "b", ("b",): "b", ("c",): "c", ("d",): "d"}})


def test_every_wrapped_name_records_its_span():
    assert "__init__" in vars(orc.OracleUniverse)
    originals = {
        (owner, attr): vars(owner)[attr]
        for owner, attrs in [
            (dc.FragmentDecider, ("__init__", "justification_classes", "decide_arrow",
                                  "decide_proportion", "solve")),
            (orc.OracleUniverse, ("__init__", "decide")),
            (cli, ("natural_solve", "solve_mono_add", "solve_mono_mul", "solve_mono_word", "lgg",
                   "solve_tree_equation", "load_algebra", "run")),
            (tr, ("lgg",)),
            (au, ("common_gens", "mgg")),
        ]
        for attr in attrs
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        alg = _algebra()
        dec = dc.FragmentDecider(alg, k=1)
        dec.justification_classes("a", "b", "c", "d")
        dec.justification_classes("a", "b", "c", "c")
        dec.decide_arrow("a", "b", "c", "c")
        dec.decide_proportion("a", "b", "c", "c")
        dec.solve("a", "b", "c")
        uni = orc.OracleUniverse(alg, k=1, depth=dec.state_count)
        uni.decide("a", "b", "c", "c")
        finite = os.path.join(ALGEBRAS, "a2.json")
        assert cli.run(["decide", "a", "b", "c", "c", "--algebra", finite]) == 0
        assert cli.run(["solve", "2", "4", "3", "--algebra", "nmul"]) == 0
        for argv in (["solve", "2", "3", "0", "--algebra", "zplus"],
                     ["solve", "1/2", "3", "4", "--algebra", "qmul"],
                     ["solve", "ab", "b", "a", "--algebra", "word:ab"],
                     ["lgg", "f(a,a)", "f(b,b)"],
                     ["solve-tree", "f(a)", "f(b)", "f(c)"],
                     ["antiunify", "4", "9", "--algebra", "nmul"]):
            assert cli.run(argv) == 0, argv
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    names = {span[0] for span in tracer.spans}
    for name in ("decider.automaton", "decider.index", "decider.arrow", "decider.proportion",
                 "decider.solve", "oracle.universe", "oracle.decide", "decider.natural_solve",
                 "closedform.solve", "trees.lgg", "trees.solve_tree", "antiunify.common_gens",
                 "antiunify.mgg", "algebras.load", "cli.run"):
        assert name in names, name
    # one span for each of the zplus, qmul and word solves
    assert sum(span[0] == "closedform.solve" for span in tracer.spans) == 3
    errors = [span for span in tracer.spans if span[5] is not None]
    assert not errors
    # the index is counted on each decider's first justification_classes call only
    index = [span for span in tracer.spans if span[0] == "decider.index"]
    assert len(index) == 2 and [span[6] is not None for span in index] == [True, False]
