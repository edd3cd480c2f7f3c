#!/usr/bin/env python3
"""Builds and runs the sqlcheck benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out results.jsonl] [--tiny] [--inject-mismatch]

Run from the repository root. The first run configures and builds
perfbench/ (which builds the library from ../src, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse it.

The last line of stdout is the result object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. The line before it stamps
the run (git sha or source digest, build type, compiler, block-scan tier,
nproc, threads, seed). --out appends stamp and result as one JSON line, the
input of perfbench/compare.py.

peak_rss_mb is measured here, from outside the measured process
(wait4 rusage of the benchmark binary alone, not of the build).

Exits non-zero, printing no result, when the build fails, a correctness check
fails, or the binary is not a Release build.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def source_digest():
    """SHA-1 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha1()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files.extend(os.path.join(dirpath, f) for f in filenames if not f.endswith(".pyc"))
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines, peak RSS MB)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.splitlines(), rusage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--out", help="append stamp + result as one JSON line")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt the reference digest; the run must fail")
    args = parser.parse_args()

    binary = build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    code, lines, peak_rss_mb = run_binary(binary, cmd)
    if code != 0:
        fail(f"benchmark exited with code {code}; no result recorded")
    try:
        stamp = json.loads(lines[-2])["stamp"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail("benchmark printed no result")
    if stamp.get("build_type") != "Release":
        fail(f"refusing to record from a {stamp.get('build_type')} build")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail("malformed result")
    if args.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    stamp["git_sha"] = git_sha()
    stamp["source_sha1"] = source_digest()
    print(json.dumps({"stamp": stamp}))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
