#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 dlbench/spread.py --workloads fig5-exact server-churn --seeds 1-5

For every workload and end-to-end metric it prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged; setup_s is reported but not held to its bound.
Runs are made one after another, each with its own seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                steady = False
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds)" % (workload, len(seeds_of(args.seeds))))
        for name, bound in bounds.items():
            v = values[name]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print("  %-22s median %14.6g  spread %7.4f  bound %.2f%s" % (
                name, med, spread, bound, flag))
            print("  %-22s %s" % ("", " ".join("%.5g" % x for x in v)))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
