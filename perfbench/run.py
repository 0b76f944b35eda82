#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source (CMake, Release,
into .bench_build/perfbench under the repository root), runs one workload,
and relays the binary's output. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
also writes its spans as a Chrome trace to .bench_build/traces/.

Build output goes to standard error. Exits non-zero without a result line
when the build or the run fails; exits 1 after the result line when an
output check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("uniform-k", "crash-window", "paper-figure", "service-mix")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(TRACE_DIR / f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if run.returncode not in (0, 1) or not valid:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
