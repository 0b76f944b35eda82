#!/usr/bin/env python3
"""Compares two benchmark result sets against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--per-layer]

Both files hold the JSON lines perfbench/sweep.py writes. For every
(workload, end-to-end metric) pair the tool prints each side's median,
quartiles and run count, and a verdict:

  worse       NEW's median is worse than BASE's by more than the bound
  improved    NEW's median is better by more than BASE's quartile spread
              and NEW wins at least 9 in 10 of all (BASE, NEW) run pairs
  unchanged   neither of the above
  unresolved  a side has fewer than two runs, or its spread (quartile
              distance / median) exceeds the bound, unless every NEW run
              is better (improved) or worse (worse) than every BASE run;
              setup_s is judged on its medians alone (one run sets up only
              a few times, so its spread is not gated)

Exits 1 when any pair is worse or unresolved. With --per-layer, it also
prints the per-layer medians of the traced runs side by side (no bounds:
per-layer metrics explain a change, they do not gate it).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, trace):
    """{(workload, metric): [values]} from the runs that exited cleanly."""
    series = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if record.get("trace", 0) != trace or record.get("exit") != 0:
                continue
            for name, metric in record["result"]["metrics"].items():
                series.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return series


def quartiles(values):
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    return tuple(statistics.quantiles(values, n=4))


def relative_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, better, bound, spread_gates=True):
    if len(base) < 2 or len(new) < 2:
        return "unresolved"

    def is_better(b, a):
        return b < a if better == "lower" else b > a

    all_better = all(is_better(b, a) for a in base for b in new)
    all_worse = all(is_better(a, b) for a in base for b in new)
    base_median = statistics.median(base)
    change = (statistics.median(new) - base_median) / abs(base_median) \
        if base_median else 0.0
    worsening = change if better == "lower" else -change
    if spread_gates and \
            max(relative_spread(base), relative_spread(new)) > bound:
        if all_better:
            return "improved"
        return "worse" if all_worse else "unresolved"
    if worsening > bound:
        return "worse"
    wins = sum(is_better(b, a) for a in base for b in new)
    if -worsening > relative_spread(base) and \
            wins >= 0.9 * len(base) * len(new):
        return "improved"
    return "unchanged"


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:>12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    base, new = load(args.base, 0), load(args.new, 0)
    failing = 0
    print(f"{'workload':<14} {'metric':<22} {'verdict':<11} "
          f"{'base median [q1, q3]':<40} new median [q1, q3]")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = base.get(key, []), new.get(key, [])
            result = verdict(a, b, metric["better"], metric["bound"],
                             spread_gates=metric["name"] != "setup_s")
            failing += result in ("worse", "unresolved")
            print(f"{workload:<14} {metric['name']:<22} {result:<11} "
                  f"{describe(a) if a else '-':<40} "
                  f"{describe(b) if b else '-'}")

    if args.per_layer:
        base_layers, new_layers = load(args.base, 1), load(args.new, 1)
        print(f"\n{'workload':<14} {'per-layer metric':<34} "
              f"{'base median':>14} {'new median':>14}")
        for workload in workloads:
            for metric in spec["per_layer"]:
                key = (workload, metric["name"])
                a, b = base_layers.get(key), new_layers.get(key)
                if not a and not b:
                    continue
                cells = [f"{statistics.median(v):>14.5g}" if v else
                         f"{'-':>14}" for v in (a, b)]
                print(f"{workload:<14} {metric['name']:<34} {' '.join(cells)}")
    print(f"\n{failing} worse or unresolved pair(s)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
