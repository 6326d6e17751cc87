"""Rebuild the Baseline configs of ROADMAP.md and print their figures as JSON.

    python3 tools/baseline.py                    # every config: automaton and class-pair index
    python3 tools/baseline.py --automaton-only   # the closures only

A config's algebra has the carrier e0..e{n-1} and no constants; with
``rng = random.Random(seed)``, each symbol in the order listed gets the table
``{args: rng.choice(carrier) for args in itertools.product(carrier, repeat=rank)}``.
Each config runs in a fresh process, which builds one ``FragmentDecider``
(the automaton) and then answers one query (the class-pair index).  The output
is a JSON list with one object per config: ``states``, ``automaton_s``,
``index_s`` (left out with ``--automaton-only``) and the process's
``peak_rss_mb``.  The 1,844-state index takes gigabytes of memory.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (carrier size, seed, symbol ranks in drawing order, k)
CONFIGS = {
    "k1-n6-seed4": (6, 4, (("f", 1), ("g", 1)), 1),
    "k1-n8-seed3": (8, 3, (("f", 1), ("g", 1)), 1),
    "k1-n8-seed2": (8, 2, (("f", 1), ("g", 1)), 1),
    "k2-n3-seed3": (3, 3, (("f", 1), ("h", 2)), 2),
}


def measure(name: str, automaton_only: bool) -> dict:
    """One config's figures, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from anaprop.algebras import FiniteAlgebra
    from anaprop.decider import FragmentDecider

    n, seed, ranks, k = CONFIGS[name]
    carrier = tuple(f"e{i}" for i in range(n))
    rng = random.Random(seed)
    ops = {sym: {args: rng.choice(carrier) for args in itertools.product(carrier, repeat=rank)}
           for sym, rank in ranks}
    algebra = FiniteAlgebra(name=name, carrier=carrier, ops=ops)
    t0 = time.perf_counter()
    dec = FragmentDecider(algebra, k=k)
    record = {"config": name, "states": dec.state_count,
              "automaton_s": round(time.perf_counter() - t0, 4)}
    if not automaton_only:
        t0 = time.perf_counter()
        dec.justification_classes(carrier[0], carrier[0], carrier[0], carrier[0])
        record["index_s"] = round(time.perf_counter() - t0, 4)
    record["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--automaton-only", action="store_true",
                        help="build the automata only, not the class-pair index")
    parser.add_argument("--in-process", metavar="CONFIG", choices=sorted(CONFIGS),
                        help=argparse.SUPPRESS)  # one config in this process
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(measure(args.in_process, args.automaton_only)))
        return 0
    records = []
    for name in CONFIGS:
        cmd = [sys.executable, os.path.abspath(__file__), "--in-process", name]
        if args.automaton_only:
            cmd.append("--automaton-only")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"baseline: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
