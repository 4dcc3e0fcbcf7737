#!/usr/bin/env python3
"""The VPPB repository benchmark: one prediction, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload splash-cold --seed 1 --seconds 30 --trace 0

It builds perfbench/ (the VPPB libraries plus the vppb_perfbench program)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/), runs
vppb_perfbench on the named workload, prints a readable report and, as its
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics from a separate run with timers around every layer
call.  The exit code is 0 only when every operation's output checked out.

The end-to-end times are corrected for the speed of the shared host they
ran on: vppb_perfbench times two fixed probe kernels between operations,
and report.py scales each time by the probes taken around it and, where
every window holds the same operations, takes the quieter half of the
windows (see the comments at the top of report.py).  The plain wall-clock
figures are printed beside them with a _wall suffix.

Seeds: 1 is the default; 7 is held out and a claimed gain must hold on
it as well.  The seed fixes the file order and request mix; the program
only ever sees the generated trace files and requests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the source tree as it was

import report  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7
WORKLOADS = ("splash-cold", "prodcons-sweep", "whatif-service")
MEASURE_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base.resolve() / "perfbench"


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the VPPB sources (src/) are not next to "
                 "perfbench/; run from the root of a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "vppb_perfbench"


def measure(binary, args):
    """Runs one measurement in a scratch directory; returns the raw report."""
    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw_path = work / "raw.json"
    try:
        subprocess.run([str(binary), "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--work", str(work), "--out", str(raw_path)],
                       stdout=sys.stderr, check=True,
                       timeout=MEASURE_TIMEOUT_S)
        with open(raw_path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(raw, spec, traced):
    host = raw["host"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"trace {raw['trace']}  nproc {host['nproc']}  "
          f"build {host['build_type']}")
    for t in raw["traces"]:
        print(f"  trace {t['name']:<28} {t['format']:<8} "
              f"{t['records']:>8} records {t['bytes']:>9} bytes")
    for row in raw["engine_rows"]:
        print(f"  engine {row}")
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    units.update({"op_ms_p99": "ms", "sim_steps_per_s": "steps/s",
                  "error_rate": "fraction", "op_count": "count",
                  "setup_s_wall": "s", "ops_per_s_wall": "1/s",
                  "host_probe_us": "us", "host_mem_probe_us": "us"})
    values = report.per_layer(raw) if traced else report.end_to_end(raw)
    for name in sorted(values):
        unit = units.get(name, "ms" if name.startswith("op_ms") else "")
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    if traced:
        print(f"  stage sum check: {report.stage_sum_ratio(raw):.3f} of the "
              f"measured time (tolerance {report.STAGE_SUM_TOLERANCE:.0%})")
    for p in report.problems(raw, traced):
        print(f"  PROBLEM {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    raw = measure(build(), args)
    traced = args.trace == 1
    print_report(raw, spec, traced)
    res = report.result(raw, spec, traced)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
