"""One workload in one fresh process: set-up, timed rounds, then the checks.

Started by ``run.py``; prints one JSON object as its last line.  With
``--mode setup`` it stops after set-up and reports only the set-up time.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=["setup", "measure"], default="measure")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--t0", type=int, default=None, help="monotonic ns at process start")
    args = p.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic_ns()

    # the program is built from the checkout's own sources, never from elsewhere
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import anaprop

    if not os.path.abspath(anaprop.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"anaprop imported from {anaprop.__file__}, not from this checkout", file=sys.stderr)
        return 3
    import calibrate
    import tracing
    import workloads

    pacer = calibrate.start(t0)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](anaprop, args.seed, args.size, ROOT, workdir,
                                                      pacer.tick)
        ops = workload.ops()
        pacer.tick()
        setup_s, setup_scale = calibrate.reference_seconds((0.0, 0.0, 0), pacer.totals())
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # latencies (per round, per operation) and round times in reference
        # seconds (see calibrate.py)
        latencies: list[list[float]] = []
        round_times: list[float] = []
        scales: list[float] = []
        first = None
        changed = 0
        rounds = 0
        start = time.perf_counter()
        while True:
            outputs = []
            measured = []
            before = pacer.totals()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = (rounds, i)
                t = time.perf_counter()
                outputs.append(op())
                measured.append(time.perf_counter() - t)
                pacer.settle(measured[-1])
            round_s, scale = calibrate.reference_seconds(before, pacer.totals())
            round_times.append(round_s)
            scales.append(scale)
            latencies.append([d * scale for d in measured])
            if first is None:
                first = outputs
            else:
                changed += sum(a != b for a, b in zip(first, outputs))
            rounds += 1
            if tracer is not None and rounds == 1:
                tracer.uninstall()   # spans cover set-up and the first round
            if time.perf_counter() - start >= args.seconds:
                break
        peak = tracing.peak_rss_mb()
        print(f"set-up {setup_s:.4f} reference s (x{setup_scale:.3f}); first round "
              f"{round_times[0]:.4f} reference s; median round {statistics.median(round_times):.4f} "
              f"reference s, {statistics.median(r / c for r, c in zip(round_times, scales)):.4f} "
              f"measured s; reference s per measured s: median "
              f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
              file=sys.stderr)

        problems = workload.check(first)
        failed_ops = [i for i, found in enumerate(problems)
                      if found and all(kind == workloads.WITNESS for kind, _ in found)]
        wrong = [text for found in problems for kind, text in found if kind == workloads.WRONG]
        vacuous = [text for found in problems for kind, text in found if kind == workloads.VACUOUS]
        if changed:
            wrong.append(f"{changed} outputs differ between rounds of the same operations")
        for i in failed_ops:
            print(f"failed op {i}: {problems[i][0][1]}", file=sys.stderr)
        for text in wrong[:20]:
            print(f"WRONG: {text}", file=sys.stderr)
        if vacuous:
            print(f"{len(vacuous)} seeded quadruples show the proportion-witness fault, "
                  f"not counted as failed; first: {vacuous[0]}", file=sys.stderr)

        # each operation's median latency over the rounds: one slow moment of
        # the host does not move an operation's rank
        typical = [statistics.median(op) for op in zip(*latencies)]
        result = {
            "correct": not wrong,
            "attempted": rounds * len(ops),
            "failed": rounds * len(failed_ops),
            "rounds": rounds,
            "setup_s": setup_s,
            # the median round resists bursts of load from outside the process
            "ops_per_s": len(ops) / statistics.median(round_times),
            "latency_p50_ms": statistics.median(typical) * 1e3,
            "latency_p90_ms": percentile(typical, 0.9) * 1e3,
            "peak_rss_mb": peak,
        }
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            print(tracer.table(), file=sys.stderr)
            path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.dump(path)
            print(f"spans written to {path}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
