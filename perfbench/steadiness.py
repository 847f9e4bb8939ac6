#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --workload serve --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
and prints, per end-to-end metric, the median of the runs, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, and that spread against the metric's bound in
BENCHMARK.json. A benchmark is steady when every spread is below a third
of its bound. Raw results go to --out as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    out = open(args.out, "a") if args.out else None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, done.returncode,
                                            done.stdout[-3000:]))
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        stamp = [json.loads(l[len("stamp "):]) for l in lines
                 if l.startswith("stamp ")]
        if out:
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "stamp": stamp[0] if stamp else None,
                                  "result": result}) + "\n")
            out.flush()
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr, flush=True)
    print("%-30s %12s %8s %8s %6s" % ("metric", "median", "spread", "bound",
                                      "ratio"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-30s %12.6g %8.4f %8.3f %6.2f" % (
            name, median, spread, bounds[name], spread / bounds[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
