#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `perfbench/run.py --out FILE`. For every
workload and end-to-end metric the tool prints the median and quartiles of
each set, the change of the median, the metric's bound from BENCHMARK.json,
and a verdict:

  worse      NEW's median is worse than BASE's by more than the bound
  better     NEW wins by more than BASE's own spread (its quartile distance)
  unresolved BASE's spread is wider than the bound, so no verdict holds
  same       otherwise

Traced records (--trace 1) are compared the same way per layer, without
bounds: the per-layer deltas show where a change moved time.

Exits 1 when any end-to-end metric is worse beyond its bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} from a results file."""
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["stamp"]["workload"], int(record["stamp"]["trace"]))
            metrics = sets.setdefault(key, {})
            for name, m in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(v):
    return f"{v:.4g}"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}; "
              f"{len(next(iter(base[key].values()), []))} vs "
              f"{len(next(iter(new[key].values()), []))} runs)")
        print(f"  {'metric':34s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s}"
              f" {'change':>8s} {'bound':>6s}  verdict")
        catalog = layers if trace else e2e
        for name in catalog:
            if name not in base[key] or name not in new[key]:
                continue
            b1, bm, b3 = quartiles(base[key][name])
            n1, nm, n3 = quartiles(new[key][name])
            change = (nm - bm) / abs(bm) if bm else 0.0
            lower = catalog[name].get("better", "lower") == "lower"
            worse = change if lower else -change
            bound = catalog[name].get("bound")
            spread = (b3 - b1) / abs(bm) if bm else 0.0
            if bound is None:
                verdict = ""
            elif worse > bound:
                verdict = "worse"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved"
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {name:34s} {fmt(bm):>10s} [{fmt(b1)}, {fmt(b3)}]".ljust(67) +
                  f" {fmt(nm):>10s} [{fmt(n1)}, {fmt(n3)}]".ljust(31) +
                  f" {change:+8.1%} {'' if bound is None else f'{bound:.2f}':>6s}  {verdict}")
    missing = sorted(set(base) ^ set(new))
    for workload, trace in missing:
        print(f"(only in one set: {workload}, trace {trace})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
