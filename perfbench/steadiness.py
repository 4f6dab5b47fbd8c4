#!/usr/bin/env python3
"""Steadiness report: repeats benchmark runs and tabulates their spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] \
        [--first-seed 1] [--seconds N] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), seeds first-seed ..
first-seed+runs-1, and prints for each workload and metric the median,
quartiles (statistics.quantiles, n=4), min, max and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json, plus
the host calibration loop (host.calib_ms) of every run. It also checks the
exact-count invariants: every counter a run prints must take the same value
in every run of the workload. Exits 1 when a run fails, a result is not
correct, a spread exceeds its bound or a count differs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    counts = {}
    calib = None
    for line in lines[:-1]:
        m = re.match(r"count (\S+)\s+http (\d+) replay (\d+)", line)
        if m:
            counts[m.group(1)] = (int(m.group(2)), int(m.group(3)))
        m = re.match(r"host\.calib_ms median ([\d.]+)", line)
        if m:
            calib = float(m.group(1))
    return result, counts, calib


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    ok = True
    for workload in workloads:
        values, calibs, counts_seen = {}, [], {}
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                result, counts, calib = run_once(workload, seed, seconds,
                                                 args.trace)
            except (RuntimeError, ValueError,
                    subprocess.TimeoutExpired) as err:
                print("FAIL", err)
                ok = False
                continue
            if not result["correct"] or result["failed"]:
                print("FAIL %s seed %d: correct=%s failed=%d" %
                      (workload, seed, result["correct"], result["failed"]))
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            calibs.append(calib)
            for name, pair in counts.items():
                counts_seen.setdefault(name, set()).add(pair)
        print("\n== %s: %d runs, seeds %d..%d, %d s" %
              (workload, len(calibs), args.first_seed,
               args.first_seed + args.runs - 1, seconds))
        print("%-36s %12s %12s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound"))
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0 and name != "setup_s":
                if spread > bound:
                    flag, ok = "  OVER", False
                elif spread > bound / 3:
                    flag = "  >1/3"
            print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s%s" %
                  (name, med, q1, q3, min(vals), max(vals), spread,
                   "-" if bound is None else bound, flag))
        print("host.calib_ms per run: " +
              " ".join("%.2f" % c for c in calibs if c is not None))
        for name, pairs in sorted(counts_seen.items()):
            http, replay = next(iter(pairs))
            same = len(pairs) == 1 and http == replay
            print("count %-44s %s" %
                  (name, "identical" if same else "DIFFERS %s" % sorted(pairs)))
            ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
