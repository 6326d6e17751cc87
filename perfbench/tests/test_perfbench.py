"""The benchmark's own tests: tiny smoke runs, and checkers that reject planted wrong answers.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import anaprop  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from anaprop.oracle import OracleBudgetExceeded, enumerate_terms  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--size", "tiny",
                           "--seconds", "1", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    res = run_bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced(workload):
    res = run_bench("--workload", workload, "--seed", "4", "--trace", "1")
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ["finite", "crosscheck"])
def test_traced_counts_repeat(workload):
    counts = ("decider.states", "decider.arrow_calls", "oracle.classes",
              "oracle.over_budget_count")
    first, second = (run_bench("--workload", workload, "--seed", "5", "--trace", "1")["metrics"]
                     for _ in range(2))
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_tracer_stops_recording_after_uninstall():
    import tracing

    class Box:
        def work(self):
            return 1

    tracer = tracing.Tracer()
    tracer.wrap(Box, "work", "box.work")
    held = Box().work            # a reference taken while tracing was on
    held()
    tracer.uninstall()
    held()
    assert [s[0] for s in tracer.spans] == ["box.work"]


def test_fails_without_the_program(tmp_path):
    """In a directory without the sources the command fails and prints no result."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--size",
                           "tiny", "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# host-speed correction


def test_pacer_calibrates_a_share_of_the_work():
    import calibrate

    pacer = calibrate.Pacer()
    pacer.settle(0.02)
    work, cal, n = pacer.totals()
    assert work == 0.02 and n >= 1 and cal >= calibrate.SHARE * work


def test_reference_seconds_scale_by_the_slice_time():
    import calibrate

    slow = (10.0, 2 * calibrate.REFERENCE_SLICE_S * 50, 50)   # slices took twice the reference
    assert calibrate.reference_seconds((0.0, 0.0, 0), slow) == pytest.approx((5.0, 0.5))


# ---------------------------------------------------------------------------
# the independent counts agree with the program on small inputs


def test_term_count_matches_enumeration():
    rng = random.Random(5)
    for _ in range(150):
        ranks = {s: (0 if s.startswith("c") else rng.randint(1, 2))
                 for s in ["f", "g", "c0", "c1"][: rng.randint(1, 4)]}
        k, ell, depth = rng.choice([1, 2]), rng.choice([1, 2, None]), rng.randint(1, 5)
        try:
            n = len(enumerate_terms(anaprop.Signature(ranks), k, ell, depth, 300))
        except OracleBudgetExceeded:
            n = None
        assert ref.term_count(ranks, k, ell, depth, 300)[0] == n


def test_behaviour_states_match_decider():
    rng = random.Random(6)
    for _ in range(60):
        first, second = inputs.random_algebra_pair(rng, anaprop.FiniteAlgebra)
        k, ell = rng.choice([1, 2]), rng.choice([1, None])
        try:
            expected = anaprop.FragmentDecider(first, second, k=k, ell=ell, cap=80).state_count
        except anaprop.StateCapExceeded:
            expected = None
        states = ref.behaviour_states((first,) if second is first else (first, second), k, ell, 80)
        assert (None if states is None else len(states)) == expected


# ---------------------------------------------------------------------------
# each checker rejects a planted wrong answer


def kinds(problems):
    return {kind for found in problems for kind, _ in found}


@pytest.fixture(scope="module")
def finite():
    wl = workloads.Finite(anaprop, 2, "tiny", ROOT, None)
    return wl, [op() for op in wl.ops()]


@pytest.fixture(scope="module")
def crosscheck():
    wl = workloads.Crosscheck(anaprop, 2, "tiny", ROOT, None)
    return wl, [op() for op in wl.ops()]


def test_finite_accepts_true_outputs(finite):
    wl, outputs = finite
    assert workloads.WRONG not in kinds(wl.check(outputs))


def test_finite_rejects_wrong_solution_set(finite):
    wl, outputs = finite
    planted = list(outputs)
    carrier = wl.cases[0].second.carrier
    planted[0] = [d for d in carrier if d not in outputs[0]][:1] or []
    if planted[0] == outputs[0]:
        planted[0] = list(carrier)
    assert kinds(wl.check(planted)[:1]) == {workloads.WRONG}


def test_witness_check_rejects_wrong_witness():
    c = inputs.fault_pair(anaprop.FiniteAlgebra)["first"]
    dec = anaprop.FragmentDecider(c, k=1)
    good = dec.decide_proportion("e1", "e1", "e1", "e1")
    assert workloads.proportion_witness(dec, good, ("e1",) * 4, c, c, 1, None, False) == []
    bad = dataclasses.replace(good, witness=anaprop.parse_rule("x1 -> c0"))
    found = workloads.proportion_witness(dec, bad, ("e1",) * 4, c, c, 1, None, False)
    assert [kind for kind, _ in found] == [workloads.WITNESS]
    outside = dataclasses.replace(good, witness=anaprop.parse_rule("x2 -> x2"))
    found = workloads.proportion_witness(dec, outside, ("e1",) * 4, c, c, 1, None, False)
    assert [kind for kind, _ in found] == [workloads.WRONG]


def test_crosscheck_counts_only_the_fault_pair(crosscheck):
    wl, outputs = crosscheck
    problems = wl.check(outputs)
    assert workloads.WRONG not in kinds(problems)
    assert kinds(problems[-1:]) == {workloads.WITNESS}   # the seed-independent pair


def accepted(wl, outputs):
    return next(i for i, out in enumerate(outputs[:-1]) if out != "over-budget")


def test_crosscheck_rejects_flipped_verdict(crosscheck):
    wl, outputs = crosscheck
    i = accepted(wl, outputs)
    classes, rows = outputs[i]
    mine, oracle = rows[0]
    flipped = dataclasses.replace(mine, holds=not mine.holds)
    planted = list(outputs)
    planted[i] = (classes, [(flipped, oracle)] + rows[1:])
    assert workloads.WRONG in kinds(wl.check(planted)[i:i + 1])


def test_crosscheck_rejects_wrong_over_budget_outcome(crosscheck):
    wl, outputs = crosscheck
    i = accepted(wl, outputs)
    planted = list(outputs)
    planted[i] = "over-budget"
    assert kinds(wl.check(planted)[i:i + 1]) == {workloads.WRONG}


def test_cli_checker_rejects_wrong_answers(tmp_path):
    wl = workloads.Cli(anaprop, 2, "tiny", ROOT, str(tmp_path))
    outputs = [op() for op in wl.ops()]
    assert workloads.WRONG not in kinds(wl.check(outputs))

    def planted(kind, change):
        i = next(j for j, (k, _, _) in enumerate(wl.script) if k == kind)
        status, out, err = outputs[i]
        record = json.loads(out)
        change(record)
        copy = list(outputs)
        copy[i] = (status, json.dumps(record), err)
        return kinds(wl.check(copy)[i:i + 1])

    def flip(r):
        r["holds"] = not r["holds"]

    def shift(r):
        r["solutions"] = [r["solutions"][0] + 1]

    def bad_rule(r):
        d = next(iter(r["witnesses"]))
        r["witnesses"][d] = ["*(7,x1) -> *(11,x1)"]

    def bad_gen(r):
        r["common"].append("11x")

    def bad_word(r):
        r["solutions"].append("bbbbbbbbb")

    def bad_lgg(r):
        r["term"] = "g(x1)"

    for kind, change in [("zplus-decide", flip), ("qmul-decide", flip), ("nmul-decide", flip),
                         ("word-decide", flip), ("zplus-solve", shift), ("nmul-solve", bad_rule),
                         ("antiunify", bad_gen), ("word-solve", bad_word), ("lgg", bad_lgg),
                         ("finite-decide", flip), ("example", flip)]:
        assert planted(kind, change) == {workloads.WRONG}, kind
