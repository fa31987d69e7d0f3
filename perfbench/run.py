#!/usr/bin/env python3
"""Builds and runs the HCPP benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload routine --seed 1 --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), builds the
hcpp_perfbench binary from the library sources in src/, and runs it. The
binary's standard output is passed through; its last line is the JSON result.
Build output goes to standard error. Exits non-zero when the sources are
missing, the build fails, any op fails its oracle, or the run overruns.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("routine", "emergency", "mhi_stream")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "hcpp_perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [
        os.path.join(build_dir, "hcpp_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(build_root, "work-" + args.workload),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
