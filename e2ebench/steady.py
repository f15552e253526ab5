#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, alternating.

Usage, from the root of a checkout:

    python3 e2ebench/steady.py

For every workload in BENCHMARK.json it makes 10 runs in set A and 10
runs in set B, interleaved (A, B, B, A, ...), each with its own seed
(A uses 1..10, B uses 11..20). For each end-to-end metric it prints
each set's median and quartiles (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median, and the shift of B's median against A's (positive
when B is worse). The sets agree on a metric when both spreads and the
size of the shift, in either direction, are within its bound; a spread
above a third of the bound is flagged as "wide". Every run must be
correct with no failed operation.
It then makes one traced run per seed of set A, which must be correct
too, and reports its throughput against set A's untraced runs.
Exits 0 when the sets agree on every metric of every workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # Runs per set.


def run_once(config, workload, seed, trace):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else {}
    if "correct" not in result:
        raise RuntimeError("%s seed %d exited %d with no result"
                           % (workload, seed, proc.returncode))
    info = {}
    for line in lines[:-1]:
        obj = json.loads(line)
        info.update(obj.get("info", {}))
    return result, info


def run_ok(result):
    """A run is good when it is correct and no operation failed."""
    return result["correct"] and result["failed"] == 0


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    n = RUNS
    all_ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        untraced = []
        for i in range(n):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = i + 1 if name == "A" else n + i + 1
                result, info = run_once(config, workload, seed, 0)
                if name == "A":
                    untraced.append(info["throughput_ops_s"])
                if not run_ok(result):
                    print("%s seed %d: correct=%s, %d of %d failed"
                          % (workload, seed, result["correct"], result["failed"],
                             result["attempted"]))
                    all_ok = False
                sets[name].append(result["metrics"])
        print("== %s (%d + %d runs)" % (workload, n, n))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = {}
            for s in ("A", "B"):
                vals = [r[name]["value"] for r in sets[s]]
                q1, med, q3 = quartiles(vals)
                row[s] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            a, b = row["A"]["median"], row["B"]["median"]
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spread = max(row["A"]["spread"], row["B"]["spread"])
            ok = spread <= bound and abs(shift) <= bound
            wide = spread > bound / 3
            all_ok = all_ok and ok
            print("  %-18s A %-12.6g [%-10.6g %-10.6g] spread %5.1f%% | "
                  "B %-12.6g [%-10.6g %-10.6g] spread %5.1f%% | shift %+5.1f%% bound %4.1f%% %s"
                  % (name, a, row["A"]["q1"], row["A"]["q3"], 100 * row["A"]["spread"],
                     b, row["B"]["q1"], row["B"]["q3"], 100 * row["B"]["spread"],
                     100 * shift, 100 * bound,
                     ("ok" if ok else "FAIL") + (" (wide)" if wide else "")))
        traced = []
        for i in range(n):
            result, info = run_once(config, workload, i + 1, 1)
            if not run_ok(result):
                print("%s seed %d traced: correct=%s, %d failed"
                      % (workload, i + 1, result["correct"], result["failed"]))
                all_ok = False
            traced.append(info["throughput_ops_s"])
        overhead = 1 - statistics.median(traced) / statistics.median(untraced)
        print("  tracing: %.6g ops/s traced vs %.6g untraced (overhead %.1f%%)"
              % (statistics.median(traced), statistics.median(untraced), 100 * overhead))
    print("steady: %s" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
