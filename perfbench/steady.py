#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports spreads.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads whatif-service --runs 5 --trace both

Each run uses another seed.  For every metric it prints the median and
quartiles (statistics.quantiles, n=4) and the spread, the quartile
distance as a share of the median.  An end-to-end metric whose spread
exceeds its BENCHMARK.json bound is flagged OVER (setup_s is shown but
not flagged); one above a third of its bound is flagged wide.  With
--trace both it also runs the traced variant and prints the tracing
overhead: the traced ops/s against the untraced ops/s.  Exits non-zero
when a run failed or a spread is OVER.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or res is None or not res["correct"]:
        sys.stdout.write(proc.stdout)
        return None
    return res


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(results, declared, check):
    """Prints one row per metric; returns the number of OVER flags."""
    over = 0
    for d in declared:
        vals = [r["metrics"][d["name"]]["value"] for r in results]
        if len(vals) < 2:
            continue
        med, q1, q3, s = spread(vals)
        flag = ""
        if check and d["name"] != "setup_s":
            if s > d["bound"]:
                flag, over = "OVER", over + 1
            elif s > d["bound"] / 3:
                flag = "wide"
        bound = f"{d['bound']:.2f}" if "bound" in d else "-"
        print(f"  {d['name']:<40} median {med:>12.6g} {d['unit']:<6} "
              f"q1 {q1:>12.6g} q3 {q3:>12.6g} spread {s:6.3f} "
              f"bound {bound:>5} {flag}")
    return over


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    bad = 0
    for workload in args.workloads.split(","):
        median_ops = {}
        for trace in modes:
            results = []
            for i in range(args.runs):
                seed = args.first_seed + i
                res = one_run(workload, seed, seconds, trace)
                if res is None:
                    print(f"{workload} seed {seed} trace {trace}: FAILED")
                    bad += 1
                else:
                    results.append(res)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            print(f"{workload} trace {trace}: {len(results)} runs, "
                  f"{seconds:g} s each")
            bad += summarize(results, declared, check=trace == 0)
            key = "bench.ops_per_s" if trace else "ops_per_s"
            if results:
                median_ops[trace] = statistics.median(
                    r["metrics"][key]["value"] for r in results)
        if len(median_ops) == 2:
            print(f"  tracing overhead: traced {median_ops[1]:.4g} ops/s vs "
                  f"untraced {median_ops[0]:.4g} ops/s "
                  f"({1 - median_ops[1] / median_ops[0]:.1%} fewer)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
