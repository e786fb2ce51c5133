#!/usr/bin/env python3
"""Whole-path benchmark entry point.

Builds perfbench/pathbench.cpp together with the library sources (Release;
tests, benches and examples off) into <build root>/perfbench, runs one
workload and prints the JSON result of the benchmark program (pathbench)
as the last line of stdout:

    python3 perfbench/run.py --workload construct|serve|churn --seed N \
        --seconds S --trace 0|1

The build root is $CARGO_TARGET_DIR when set, else .bench_build, relative to
the repository root.  With --trace 1 the spans are also written to
<build root>/perfbench/traces/<workload>-<seed>.json (Chrome trace-event
format).  Build output goes to stderr so stdout stays machine-readable.
Exits non-zero, printing no result, when the build or the run fails or the
result is malformed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct", "serve", "churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring pathbench up to date; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "pathbench",
         "-j", "2"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "pathbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S,
            env=dict(os.environ, WCDS_THREADS="1"))
    except subprocess.TimeoutExpired:
        log(f"pathbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    except OSError as error:
        log(f"cannot run pathbench: {error}")
        return 1
    if proc.returncode != 0:
        log(f"pathbench exited with {proc.returncode}")
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("pathbench printed no JSON result")
        return 1
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"malformed result: {lines[-1]}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
