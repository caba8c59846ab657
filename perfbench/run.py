#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny] [--flip CHECK]

Configures and builds perfbench/ (which compiles the library from src/)
under .bench_build/ at the checkout root, then runs the perfbench binary
from the checkout root. Build output goes to stderr; the last line of
stdout is the result JSON. Exits non-zero without a result when the build
fails, for instance in a directory that lacks src/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

DEFAULT_SEED = 1  # seeds: see README.md (held-out seed for claim checks)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--flip")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    sock_dir = os.path.join(".bench_build", "sock")
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(os.path.join(ROOT, sock_dir), exist_ok=True)
    os.makedirs(os.path.join(ROOT, trace_dir), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--socket-dir", sock_dir,
           "--trace-out", os.path.join(
               trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.flip:
        cmd += ["--flip", args.flip]
    try:
        # Relative socket paths keep sun_path short wherever the checkout is.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: perfbench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
