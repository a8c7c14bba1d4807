#!/usr/bin/env python3
"""Build and run the PiPoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first call configures and builds
the library and the benchmark (Release) under .bench_build/; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Reports with raw samples, and the
spans of traced runs, are written to .bench_build/reports/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_test")]).returncode
    binary = build("perfbench")
    os.makedirs(REPORTS, exist_ok=True)
    try:
        done = subprocess.run([binary, *argv, "--report-dir", REPORTS],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        sys.exit(1)
