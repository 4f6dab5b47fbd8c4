#!/usr/bin/env python3
"""End-to-end benchmark of prox_server: one run of one workload.

    python3 perfbench/run.py --workload cold-summarize --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the repository (Release, libraries
and prox_server only) and the driver under .bench_build/ on first use,
then runs perfbench_driver, whose last stdout line is the JSON result.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold-summarize", "read-under-summarize", "ingest-resummarize")


def build(root, build_dir):
    """Configures and builds prox_server and the driver; returns the paths."""
    prox_build = os.path.join(build_dir, "prox")
    driver_build = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(prox_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", prox_build,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPROX_BUILD_TESTS=OFF",
                      "-DPROX_BUILD_BENCHMARKS=OFF",
                      "-DPROX_BUILD_EXAMPLES=ON"])
    steps.append(["cmake", "--build", prox_build, "--target", "prox_server",
                  "-j", jobs])
    if not os.path.exists(os.path.join(driver_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", driver_build, "-DCMAKE_BUILD_TYPE=Release",
                      "-DPROX_ROOT=" + root,
                      "-DPROX_BUILD_DIR=" + prox_build])
    steps.append(["cmake", "--build", driver_build, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return (os.path.join(prox_build, "examples", "prox_server"),
            os.path.join(driver_build, "perfbench_driver"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit("perfbench: %s not found under %s; run from a "
                             "full checkout" % (needed, root))
    build_dir = os.path.join(root, ".bench_build")
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    server, driver = build(root, build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--workdir", workdir]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
