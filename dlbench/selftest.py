#!/usr/bin/env python3
"""Self-test of the dlsim benchmark.

    python3 dlbench/selftest.py [--workloads fig5-exact ...]

Checks, on short runs of each workload:
  * an untraced run prints exactly the end-to-end metrics named in
    BENCHMARK.json, each with its unit, and records no spans;
  * a traced run prints exactly the per-layer metrics, each with its
    unit, and its per-layer self times cover at least 90% of the main
    thread's wall-clock and of every worker's busy time, also when the
    process may use one CPU only (the job runner then runs the arms on
    the main thread);
  * a planted invariant violation (--plant-fault) shows up as a failed
    arm and an incorrect result, not as a crash;
  * in a directory holding only BENCHMARK.json and the benchmark's
    files, the command exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT, prefix=()):
    cmd = list(prefix) + [sys.executable, os.path.join("dlbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900, check=False)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_coverage(workload, metrics, what):
    main = metrics["trace.coverage.main"]["value"]
    workers = metrics["trace.coverage.workers"]["value"]
    check(main >= 0.9 and workers >= 0.9,
          "%s %s: self times cover >= 90%% (main %.4f, workers %.4f)"
          % (workload, what, main, workers))


def same_metrics(result, declared):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return got == want


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    for w in args.workloads:
        code, out, err = run(w, 0)
        check(code == 0, "%s untraced: exit 0" % w)
        res = result_of(out)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              "%s untraced: correct, no failed arms" % w)
        check(same_metrics(res, bench["end_to_end"]),
              "%s untraced: every end-to-end metric with its unit" % w)
        check("spans recorded: 0" in err,
              "%s untraced: no spans recorded" % w)
        check(all(res["metrics"][m["name"]]["value"] > 0
                  for m in bench["end_to_end"]),
              "%s untraced: no end-to-end metric is 0" % w)

        code, out, err = run(w, 1)
        check(code == 0, "%s traced: exit 0" % w)
        res = result_of(out)
        m = res["metrics"]
        check(res["correct"] and m["arm_fail_rate"]["value"] == 0,
              "%s traced: correct, arm_fail_rate 0" % w)
        check(same_metrics(res, bench["per_layer"]),
              "%s traced: every per-layer metric with its unit" % w)
        check_coverage(w, m, "traced")

        code, out, err = run(w, 0, ["--plant-fault"])
        res = result_of(out) if code == 0 and out.strip() else None
        check(res is not None and res["failed"] > 0 and not res["correct"],
              "%s planted fault: counted as failed arms, no crash" % w)

    # One usable CPU: the job runner runs every arm inline on the
    # main thread, whose spans must still nest as on a pool.
    if shutil.which("taskset"):
        w = args.workloads[0]
        code, out, _ = run(w, 1, prefix=["taskset", "-c", "0"])
        check(code == 0, "%s traced on one CPU: exit 0" % w)
        if code == 0:
            res = result_of(out)
            check(res["correct"], "%s traced on one CPU: correct" % w)
            check_coverage(w, res["metrics"], "traced on one CPU")
    else:
        print("skip  traced on one CPU: taskset not found")

    # Contract: without the simulator's sources the command must fail
    # cleanly. The bare copy lives inside the build directory.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, out, _ = run(args.workloads[0], 0, cwd=bare)
    check(code != 0 and not out.strip(),
          "bare checkout: non-zero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
