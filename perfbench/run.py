#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload denoise_engine --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), always configured as a Release build; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the span file is
written to <build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("denoise_engine", "heat_temporal", "serve_mixed")
RUN_TIMEOUT_S = 175


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 8))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "nupbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "nupbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
