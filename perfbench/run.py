#!/usr/bin/env python3
"""Builds the bsdtrace pipeline benchmark and runs one workload.

Usage, from the root of a bsdtrace checkout:

    python3 perfbench/run.py --workload fleet-v3 --seed 1 --seconds 20 --trace 0

The first run configures and builds the libraries and the `perfbench`
program into .bench_build/ (CMake, RelWithDebInfo, as the repository's own
build); later runs only check that the build is current.  Build output goes
to standard error, so the JSON result stays the last line of
standard output.  Working files live under .bench_build/run/ and are removed
when the run ends; the traced run (--trace 1) leaves its spans as
Chrome-trace JSON in .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("fleet-v3", "fleet-v4", "sweep-a5", "live-serve")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700  # per build step; a first build takes about a minute


def run_checked(cmd, timeout, env):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: timed out: {' '.join(cmd)}")
    if code != 0:
        sys.exit(f"perfbench: failed ({code}): {' '.join(cmd)}")


def build(root, env):
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, env)
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
                BUILD_TIMEOUT_S, env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no bsdtrace sources (src/CMakeLists.txt) in " + root)
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(root, env)
    work_dir = os.path.join(root, BUILD_DIR, "run", args.workload)
    trace_dir = os.path.join(root, BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
