#!/usr/bin/env python3
"""Build and run the dlsim benchmark (dlbench).

Run from the repository root:

    python3 dlbench/run.py --workload fig5-exact --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark and the simulator
libraries it links into .bench_build/dlbench (several minutes);
later runs only re-check the build. Build output goes to stderr. The
benchmark's own last stdout line is the result JSON object; see
dlbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig5-exact", "fig5-sampled", "server-churn", "server-sampled"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("dlbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found next to dlbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "--target", "dlbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "dlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one arm's flush accounting "
                             "(self-test of the output checks)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "dlbench")
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.plant_fault:
        cmd.append("--plant-fault")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    out = proc.stdout.decode()
    if not out.strip():
        fail("benchmark printed no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
