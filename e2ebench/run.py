#!/usr/bin/env python3
"""Builds and runs the Nexus end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload ipc_hot --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds an optimized (Release) copy of the
library from src/ together with the benchmark binary, under .bench_build/
(or the directory named by CARGO_TARGET_DIR). Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. With --trace 1 the
sampled spans are written to <build dir>/spans/<workload>-<seed>.tsv.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.join(ROOT, d) if not os.path.isabs(d) else d
    return os.path.join(d, "e2ebench")


def build(out_dir):
    """Configures (once) and builds; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "kernel.h")):
        print("e2ebench: no Nexus sources under %s/src" % ROOT, file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out_dir, "--target", "e2ebench", "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(out_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out",
                    os.path.join(spans, "%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
