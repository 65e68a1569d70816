#!/usr/bin/env python3
"""Builds perf_ledger from source and runs it.

    python3 perf_ledger/run.py [--workload cold|warm|fleet|paper] [--seed N]
                               [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to .bench_build/perf_ledger
(configured once, then rebuilt incrementally); traced runs write their span
files to .bench_build/perf_ledger/traces. Without --workload every workload
runs, each in a fresh process. The last stdout line of a single-workload run
is the benchmark's JSON result; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perf_ledger")
WORKLOADS = ["cold", "warm", "fleet", "paper"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perf_ledger: solver sources not found next to perf_ledger/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perf_ledger",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perf_ledger")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perf_ledger: build failed: %s" % e)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        sys.stdout.flush()
        rc = subprocess.run([exe, "--workload", workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--out", traces]).returncode
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
