#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, in about a minute once the build exists:
  * BENCHMARK.json keeps its format rules (keys, name/unit formats,
    bounds, a setup_s metric);
  * every workload run.py knows (ingest-resummarize too, though
    BENCHMARK.json does not gate it), at --seconds 1 on two seeds, prints a last line with
    exactly the keys correct/attempted/failed/metrics, "correct": true and
    failed == 0 (the correctness gate passed);
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    metrics with --trace 0 and its per_layer metrics with --trace 1;
  * run.py in a directory holding only BENCHMARK.json and perfbench/ exits
    non-zero without printing a result.
Exits 1 on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (11, 12)


def fail(message):
    print("selfcheck: FAIL: " + message)
    sys.exit(1)


def check_format(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(bench))
    if not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds out of range")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or w["name"] not in WORKLOADS or \
                len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload entry %s" % w)
        names.add(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            fail("end_to_end entry %s" % m)
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per_layer entry %s" % m)
    metrics = bench["end_to_end"] + bench["per_layer"]
    for m in metrics:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or \
                m["better"] not in ("higher", "lower"):
            fail("metric %s" % m)
        if m["name"] in names:
            fail("name used twice: %s" % m["name"])
        names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json too large")


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(bench, workload, seed, trace):
    proc = run(ROOT, workload, seed, trace)
    label = "%s seed %d trace %d" % (workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited %d: %s" % (label, proc.returncode, proc.stderr[-800:]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (label, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or \
            not isinstance(result["failed"], int):
        fail("%s attempted/failed" % label)
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s correctness gate: %s" % (label, "\n".join(lines[-20:])))
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {}
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or \
                not isinstance(metric["value"], (int, float)):
            fail("%s metric %s malformed" % (label, name))
        got[name] = metric["unit"]
    if got != want:
        fail("%s metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (label, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(n for n in want if n in got and
                                  got[n] != want[n])))
    print("selfcheck: ok   %s (attempted %d)" % (label, result["attempted"]))


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "cold-summarize", SEEDS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "{" in proc.stdout:
        fail("bare directory: exit %d, stdout %r" %
             (proc.returncode, proc.stdout[-200:]))
    print("selfcheck: ok   bare directory exits %d without a result" %
          proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_format(bench)
    print("selfcheck: ok   BENCHMARK.json format")
    # Every workload run.py knows, gated in BENCHMARK.json or not.
    for name in WORKLOADS:
        check_result(bench, name, SEEDS[0], 0)
        check_result(bench, name, SEEDS[1], 1)
    check_bare_directory()
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
