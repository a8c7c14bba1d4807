#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per seed (with BENCHMARK.json's run_seconds)
and prints, per metric, the median and quartiles of the runs and the
quartile distance as a share of the median, next to a third of the
metric's bound. Exits non-zero when a run fails or reports an incorrect
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            print("seed %d: exit %d" % (seed, done.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect result %s" % (seed, lines[-1]))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-40s %12s %12s %12s %8s %8s" %
          ("metric", "q1", "median", "q3", "spread", "bound/3"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-40s %12.6g %12.6g %12.6g %8.3f %8s" %
              (name, q1, med, q3, spread,
               "%.3f" % (bound / 3) if bound is not None else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
