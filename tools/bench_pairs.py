"""Alternating parent/change pairs of the benchmark, written as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <rev> --change <rev> --pairs 10 \
        --out BENCH_12.json --note "what the change does" --claim cli:latency_p90_ms

Each run of ``perfbench/run.py`` gets a fresh checkout of its side, exported
from git into a temporary directory (``git archive``, so nothing is added to
the repository's own metadata), and the checkout is deleted after the run.
Every workload that BENCHMARK.json lists is run.  Pair i (from 0) runs seed
i + 1 on both sides, the parent first when i is even and the change first
when i is odd.  Medians and quartiles (inclusive method) are taken over the
pairs, for every end-to-end metric that BENCHMARK.json lists.  ``--traced N``
adds N traced runs of seed 1 per side and workload, and records their
non-zero per-layer metrics.

When a run exits non-zero, prints no JSON result or reports wrong outputs, the
tool stops, names the side, workload and seed, and keeps that run's standard
error and the tail of its standard output in ``<out>.failed.log``; no BENCH
file is written.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900  # perfbench/run.py ends each workload within its own deadline
FIRST_SEED = 1


class RunFailed(Exception):
    pass


def resolve(rev: str) -> str:
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def archive(sha: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                          check=True, capture_output=True).stdout


def checkout(tar_bytes: bytes, parent_dir: str) -> str:
    """A fresh directory holding the committed files of one side."""
    dest = tempfile.mkdtemp(dir=parent_dir)
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def run_once(tar_bytes: bytes, workdir: str, side: str, workload: str, seed: int,
             trace: bool, failure_log: str) -> dict:
    """One perfbench/run.py run in a fresh checkout; its JSON result."""
    dest = checkout(tar_bytes, workdir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        err = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr or ""
        proc = subprocess.CompletedProcess(cmd, -1, "", f"timed out after {RUN_TIMEOUT_S} s\n{err}")
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    lines = (proc.stdout or "").strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0:
        what = f"exited with {proc.returncode}"
    elif not isinstance(result, dict):
        what = "exited 0 but printed no JSON result on its last line"
    elif not result.get("correct", False):
        what = "reported wrong outputs (correct: false)"
    else:
        return result
    with open(failure_log, "w", encoding="utf-8") as fh:
        fh.write(f"side {side}, workload {workload}, seed {seed}: {what}\n")
        fh.write(f"command: {' '.join(cmd)}\n--- stdout (last 20 lines) ---\n")
        fh.write("".join(line + "\n" for line in lines[-20:]))
        fh.write(f"--- stderr ---\n{proc.stderr}")
    raise RunFailed(f"{side} run of {workload} seed {seed} {what}; "
                    f"its output is in {failure_log}")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(end_to_end: list[dict], seeds: list[int], runs: dict) -> dict:
    """One workload's entry: per metric, each side's median and quartiles and
    the pairs in which the change reads better."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        better = sum((c < p) if spec["better"] == "lower" else (c > p)
                     for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": quartiles(parent), "change": quartiles(change),
            "change_better_in_pairs": f"{better}/{len(seeds)}",
            "change_vs_parent": round((c_med - p_med) / p_med, 4) if p_med else None,
        }
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted_per_run": {side: sorted({r["attempted"] for r in runs[side]})
                              for side in runs},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the parent revision")
    p.add_argument("--change", default="HEAD", help="the changed revision")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--traced", type=int, default=0,
                   help="traced runs of seed 1 per side and workload")
    p.add_argument("--claim", help="the claimed gain, as workload:metric")
    p.add_argument("--note", default="", help="what the change does")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.traced < 0:
        p.error("--pairs must be at least 1 and --traced at least 0")
    if args.claim and args.claim.count(":") != 1:
        p.error("--claim takes workload:metric")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    tars = {side: archive(sha) for side, sha in shas.items()}
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    failure_log = os.path.splitext(args.out)[0] + ".failed.log"
    report = {
        "change": args.note,
        "parent": shas["parent"],
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed>",
        "host": f"{os.cpu_count()}-core {platform.machine()} host, Python "
                f"{platform.python_version()}; times in perfbench reference seconds",
        "method": "alternating pairs in fresh checkouts of each side: pair i runs the "
                  "parent first when i is even, the change first when odd, with seed "
                  f"i + {FIRST_SEED} on both sides; median and quartiles (inclusive "
                  "method) over the pairs",
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claimed"] = {"workload": workload, "metric": metric}
    report["workloads"] = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        try:
            for workload in workloads:
                runs: dict[str, list] = {"parent": [], "change": []}
                for i, seed in enumerate(seeds):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed}: {side}",
                              file=sys.stderr, flush=True)
                        runs[side].append(run_once(tars[side], workdir, side, workload, seed,
                                                   False, failure_log))
                report["workloads"][workload] = summarize(end_to_end, seeds, runs)
            if args.traced:
                traced: dict[str, list] = {"parent": [], "change": []}
                for i in range(args.traced):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        entry = {}
                        for workload in workloads:
                            print(f"traced {workload} {i + 1}/{args.traced}: {side}",
                                  file=sys.stderr, flush=True)
                            res = run_once(tars[side], workdir, side, workload,
                                           FIRST_SEED, True, failure_log)
                            entry[workload] = {name: round(m["value"], 4)
                                               for name, m in res["metrics"].items()
                                               if m["value"]}
                        traced[side].append(entry)
                report["per_layer_traced"] = {
                    "command": "python3 perfbench/run.py --workload <workload> "
                               f"--seed {FIRST_SEED} --trace 1",
                    "runs": traced,
                }
        except RunFailed as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
