#!/usr/bin/env python3
"""Runs the benchmark on one workload over consecutive seeds and prints, per
metric, the median, the quartiles and their distance as a share of the
median (the run-to-run spread that `BENCHMARK.json` bounds).

    python3 perfbench/spread.py --workload paper_cold [--runs 10] [--first-seed 1]
                                [--seconds 30] [--trace 0] [--gen-seed N]

Run it from the root of a checkout; every run's result line is echoed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--gen-seed", type=int, default=None)
    args = parser.parse_args()
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, runner, "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.gen_seed is not None:
            command += ["--gen-seed", str(args.gen_seed)]
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        line = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
        print(f"seed {seed}: exit {result.returncode} {line}", flush=True)
        if result.returncode != 0:
            return 1
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, sample in values.items():
        q1, q2, q3 = benchlib.quartiles(sample)
        print(f"{name:24s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {benchlib.iqr_share(sample):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
