#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records one result set.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b]
                               [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run of perfbench/run.py appends one JSON line {"workload", "seed",
"trace", "exit", "result"} to --out. At the end it prints, per workload and
metric, the median and the spread (distance between the first and third
quartile as a share of the median) next to the metric's bound from
BENCHMARK.json. Compare two result files with perfbench/compare.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    values = {}
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                run = subprocess.run(
                    [sys.executable, str(RUN), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, text=True, check=False)
                lines = run.stdout.splitlines()
                result = json.loads(lines[-1]) if run.returncode in (0, 1) \
                    and lines else None
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "exit": run.returncode,
                                      "result": result}) + "\n")
                out.flush()
                status = "ok" if run.returncode == 0 else \
                    f"FAILED (exit {run.returncode})"
                print(f"{workload} seed {seed}: {status}", flush=True)
                if result is None:
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(
                        metric["value"])

    print(f"\n{'workload':<14} {'metric':<34} {'median':>14} "
          f"{'spread':>8} {'bound':>6} runs")
    for (workload, name), series in values.items():
        bound = bounds.get(name)
        print(f"{workload:<14} {name:<34} {statistics.median(series):>14.6g} "
              f"{spread(series):>8.3f} "
              f"{'' if bound is None else bound:>6} {len(series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
