#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload art8-crit --seed 1 --seconds 10 --trace 0

The CMake package in this directory compiles the simulator from
../src and the perfbench binary into .bench_build/perfbench; later
runs rebuild only what changed. Build output goes to stderr; the
binary's stdout, whose last line is the JSON result, is passed through
unchanged. Any failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure and build; both are quick no-ops once built."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
