#!/usr/bin/env python3
"""Builds and runs the wall-clock engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call configures and builds perfbench/ (which compiles the service
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
build output goes to stderr. The benchmark's own stdout follows: one
"name value unit" line per metric, then the result JSON as the last line.
`--workload all` runs every workload in turn and ends with one JSON object
whose metrics are prefixed by workload name. A run whose open loop fell
behind its schedule counts the requests it issued late in "failed" and
prints a FLAG gen.behind line. The exit code is non-zero when the build fails or any
correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["kv_mixed", "index_query", "realtime_fanout"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no service sources at src/; run from a checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = os.path.join(build_dir, "engine_bench")
    steps = [["cmake", "--build", build_dir, "-j", "4", "--target",
              "engine_bench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, *generator,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return binary


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args)
        if code != 0 or result is None:
            status = 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
