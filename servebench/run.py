#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds this directory's CMake project (which compiles the library from
../src) into .bench_build/servebench, runs the benchmark's arithmetic
self-checks, then one benchmark run. The run's lines pass through to
standard output; the last one is its JSON result. The exit code is
non-zero, with no result printed, when the build or the self-checks
fail, and non-zero after the result when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "servebench-out")
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD_DIR, "servebench_selftest")],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"servebench: build or self-check failed: {error}",
              file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
