#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For every workload the harness implements (those in BENCHMARK.json plus
serve_stream and audit_db, which it runs but does not list) it runs run.py
with --tiny, untraced and traced, and asserts that the result line carries
exactly the metric names (and units) BENCHMARK.json lists for that mode. It
then runs each workload with --inject-mismatch and asserts that the
corrupted reference digest fails the run: non-zero exit and no result line.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch_repos", "serve_stream", "scan_tree", "audit_db")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = [f"BENCHMARK.json lists unknown workload {w['name']}"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, trace)
            result = parse_result(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])
                failures.append(f"{where}: missing {missing}, unexpected {extra}, units {wrong}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                failures.append(f"{where}: non-finite metric value")
            if result["attempted"] < 1 or result["failed"] != 0 or result["correct"] is not True:
                failures.append(f"{where}: attempted/failed/correct = "
                                f"{result['attempted']}/{result['failed']}/{result['correct']}")
            print(f"selftest: {where}: {len(got)} metrics", flush=True)
        proc = run(workload, 0, "--inject-mismatch")
        if proc.returncode == 0 or parse_result(proc.stdout) is not None:
            failures.append(f"{workload}: an injected digest mismatch did not fail the run")
        else:
            print(f"selftest: {workload}: injected mismatch fails the run", flush=True)
    for failure in failures:
        print("selftest: FAIL: " + failure, file=sys.stderr)
    if not failures:
        print("selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
