"""The anaprop benchmark: one command, three workloads, each in fresh processes.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs finite, crosscheck and cli one after
another.  Each workload runs in its own single-threaded child process (see
worker.py); set-up is repeated in a few more children and its median
reported.  The last line of standard output is the JSON result of the last
workload run.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("finite", "crosscheck", "cli")
EXTRA_SETUPS = 2         # set-up-only runs; setup_s is the median over them and the measuring run
DEADLINE_S = 170         # every workload run ends within this, or the command fails


class BenchError(Exception):
    pass


def child(args, mode, deadline):
    """Run worker.py once; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--size", args.size]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], cwd=ROOT, env=env, timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} ({mode}) did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        res = child(args, "measure", deadline)
        metrics = res["per_layer"]
        print(f"traced run: {res['ops_per_s']:.3f} ops/s, p50 {res['latency_p50_ms']:.3f} ms",
              file=sys.stderr)
    else:
        setups = [child(args, "setup", deadline)["setup_s"] for _ in range(EXTRA_SETUPS)]
        res = child(args, "measure", deadline)
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": res["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": res["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {res['rounds']} rounds", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            print(json.dumps(measure(args)), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
