#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload join_names|serve_names \
      --seed N --seconds S --trace 0|1

The harness and the ujoin library are built with CMake (Release) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, relative to the
current directory.  Build output goes to stderr; stdout carries the
harness's metric lines and, last, its one-line JSON result.  The exit code
is the harness's: 0 only when every output was correct.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("join_names", "serve_names")


def build(build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-G",
                     "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target",
                   "ujoin_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "ujoin_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    harness = build(build_dir)
    if harness is None:
        print("error: could not build the benchmark harness", file=sys.stderr)
        return 2

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        # One file per workload: a traced run replaces the previous trace.
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
