#!/usr/bin/env python3
"""Build and run the end-to-end TRNG benchmark.

    python3 perfbench/run.py --workload physics_entropy --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
pulls the ptrng library in from src/) into .bench_build/perfbench in
Release mode, runs the helper self-tests, then runs the benchmark
binary and relays its output. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
It is checked against BENCHMARK.json before it is printed; any build,
self-test, correctness or format failure exits non-zero without a
result line.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "perfbench")
SCRATCH = os.path.join(".bench_build", "perfbench-scratch")
WORKLOADS = ("physics_entropy", "service_expand", "fleet_campaign")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs cmd with output to stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ptrng sources (src/) not found; run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], timeout=840)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(bool(args.trace))
    build()
    run_quiet([os.path.join(BUILD, "perfbench_selftest")], timeout=60)

    cmd = [os.path.join(BUILD, "perfbench_trng"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", SCRATCH]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metric set differs from BENCHMARK.json: got {sorted(got)}, "
             f"expected {sorted(expected)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("benchmark reported an incorrect run")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
