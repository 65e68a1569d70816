#!/usr/bin/env python3
"""Gates the simulated perf_ledger metrics on the committed baseline.

    python3 tools/ledger_gate.py [--baseline results/BENCH_ledger.json]
                                 [--workload W ...] [--seed S ...] [--update]

Run from anywhere; paths are relative to the repository root. For each
workload (cold, warm, fleet, paper), seed (2026, 7) and --trace 0 and 1,
this runs

    python3 perf_ledger/run.py --workload W --seed S --seconds 1 --trace T

and compares every metric whose unit is simulated (sim_s, 1/sim_s, bytes,
count, frac) with the baseline. Simulated numbers repeat bitwise, so any
difference fails, a gain as much as a loss: a change that moves a
simulated metric records the new value with --update, in a commit of its
own. A failed run, a metric missing from either side, or a run whose
correctness check fails also fails the gate. Host metrics (s, 1/s, MB,
us, GFLOP/s, s/sim_s) drift with the machine; they are printed, never
gated. The baseline's "excluded" map names the rows left out, each with
its reason: a key "name" drops the row from every workload, a key
"workload/name" from that workload only.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "results", "BENCH_ledger.json")
GATED_UNITS = ("sim_s", "1/sim_s", "bytes", "count", "frac")
WORKLOADS = ("cold", "warm", "fleet", "paper")
SEEDS = (2026, 7)
SECONDS = 1


def run(workload, seed, trace):
    """One perf_ledger run; returns its JSON result, or None on failure."""
    cmd = [sys.executable, os.path.join(ROOT, "perf_ledger", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("FAIL %s seed %d trace %d: exit %d" %
              (workload, seed, trace, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print("FAIL %s seed %d trace %d: correctness check failed" %
              (workload, seed, trace))
        return None
    return result


def measure(workload, seed, excluded):
    """Gated metrics of both traces of one (workload, seed), and the host
    rows for the report; None if a run failed."""
    gated, host = {}, {}
    for trace in (0, 1):
        result = run(workload, seed, trace)
        if result is None:
            return None, host
        for name, m in result["metrics"].items():
            if (m["unit"] in GATED_UNITS and name not in excluded and
                    "%s/%s" % (workload, name) not in excluded):
                gated[name] = m
            else:
                host[name] = m
    return gated, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run instead of "
                         "comparing")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    excluded = base.get("excluded", {})
    workloads = args.workload or list(WORKLOADS)
    seeds = args.seed or list(SEEDS)

    failures = 0
    for workload in workloads:
        for seed in seeds:
            gated, host = measure(workload, seed, excluded)
            for name in sorted(host):
                print("host %-6s %4d %-40s %.6g %s" %
                      (workload, seed, name, host[name]["value"],
                       host[name]["unit"]))
            if gated is None:
                failures += 1
                continue
            key = str(seed)
            if args.update:
                base["runs"].setdefault(workload, {})[key] = {
                    n: gated[n] for n in sorted(gated)}
                continue
            want = base["runs"].get(workload, {}).get(key)
            if want is None:
                print("FAIL %s seed %d: no baseline" % (workload, seed))
                failures += 1
                continue
            for name in sorted(set(want) | set(gated)):
                old = want.get(name, {}).get("value")
                new = gated.get(name, {}).get("value")
                if old != new:
                    print("FAIL %s %s seed %d: %r -> %r" %
                          (name, workload, seed, old, new))
                    failures += 1
            print("checked %s seed %d: %d simulated metrics" %
                  (workload, seed, len(want)))

    if failures:
        print("ledger gate: %d failure(s)" % failures)
        return 1
    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.baseline)
    else:
        print("ledger gate: every simulated metric matches %s" %
              os.path.relpath(args.baseline, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
