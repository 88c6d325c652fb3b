#!/usr/bin/env python3
"""Build and run the koptlog end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload service --seed 1 --seconds 10 --trace 0

Workloads: service, audit-trace, oracle-faults, threaded-service. The first
call configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench; later calls only re-check the build. The last
line of standard output is the benchmark's JSON result; build output goes to
standard error. The exit code is non-zero if the build fails, a run's outputs
are wrong, or the run does not finish in time.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 800  # configure + build together
# A run measures for --seconds and then finishes its current cycle; the
# margin covers its set-up runs (reference, warm-up, sim twin) and that cycle.
RUN_MARGIN_S = 160


def build(build_dir):
    """Configure (first time) and build; False if either step fails."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _have("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic()),
                              check=False)
        if done.returncode != 0:
            return False
    return True


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=args.seconds + RUN_MARGIN_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
