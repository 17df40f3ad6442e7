#!/usr/bin/env python3
"""Builds and runs the qec end-to-end + per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload top30-single --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (the repository's libraries,
the qec_perfbench binary and qec_cli) into .bench_build/ and writes the
benchmark snapshot there with `qec_cli index-build`; later runs reuse both.
The last line of standard output is the JSON result. Build and generation
output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

SNAPSHOT_SPEC = "clustered:200000:64"
WORKLOADS = ("top30-single", "deep-saturated", "deep-single")


def run_checked(cmd):
    """Runs `cmd` with its stdout sent to our stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("qec sources not found next to %s" % bench_dir)

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", build_dir, "--target", "qec_perfbench",
                 "qec_cli", "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(build_dir, "qec_perfbench")

    snapshot = os.path.join(build_dir, "snapshots",
                            SNAPSHOT_SPEC.replace(":", "-") + ".qsnap")
    if not os.path.isfile(snapshot):
        os.makedirs(os.path.dirname(snapshot), exist_ok=True)
        partial = snapshot + ".tmp"
        run_checked([os.path.join(build_dir, "examples", "qec_cli"),
                     "index-build", partial, SNAPSHOT_SPEC])
        os.replace(partial, snapshot)

    result = subprocess.run([
        binary, "run", "--snapshot=" + snapshot,
        "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
    ])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
