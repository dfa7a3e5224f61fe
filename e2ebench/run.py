#!/usr/bin/env python3
"""End-to-end benchmark of the Chariots libraries: build, then run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload geo_closed --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (which compiles the repository's src/ tree) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset,
then runs the benchmark binary. Stores, reports and span dumps go to
.bench_out/. The binary prints every metric with its unit; the last line of
stdout is the JSON result. Exits non-zero when the build fails or a
correctness check fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("geo_closed", "geo_closed_filestore", "flstore_mixed")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    # Build output goes to stderr: stdout's last line is the result.
    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "chariots_e2e", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    binary = os.path.join(build_dir, "chariots_e2e")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(root, ".bench_out")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
