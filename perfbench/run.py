#!/usr/bin/env python3
"""Build and run the manyworlds benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dag --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

The first call configures and builds the libraries and the `perfbench`
binary into .bench_build/ (RelWithDebInfo, the repository's default build
type); later calls rebuild only what changed. The binary drives one
workload open-loop and reports every metric with its unit, its clock
("wall" and "cpu" for the speed of our code on the wall clock and in CPU
time, "model" for the calibrated i7-8700 / UHD 630 / GTX 1080 Ti model,
"-" for neither) and its sample count. This script prints that table,
then, as the last line of stdout, a JSON object holding the metrics
BENCHMARK.json declares: the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1.

Exit status: 0 when every output and schedule checked out, 1 on a mismatch,
2 on bad usage, 3 when the build fails, 4 when the binary fails or omits a
declared metric (an unknown workload too). Only status 0 and 1 print a
result line.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170.0  # per workload, after the build


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the binary; output goes to stderr."""
    commands = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        commands.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    commands.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                     "-j", str(os.cpu_count() or 1)])
    for command in commands:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(command)}")
            return False
    return True


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"], [w["name"] for w in spec["workloads"]]


def run_binary(workload, seed, seconds, trace, deadline):
    traces = BUILD_DIR / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.csv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return None, 4
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"{workload}: binary exited {done.returncode}")
        return None, 4
    return json.loads(lines[-1]), done.returncode


def print_table(workload, raw, declared_names):
    record = raw["record"]
    print(f"# {workload}: seed {record['seed']}, nproc {record['nproc']}, "
          f"{record['workers']} workers, {record['cpu']}, {record['build_type']}, "
          f"gcc {record['compiler']}")
    print(f"# sent {raw['attempted']}, failed {raw['failed']}, "
          f"correct {str(raw['correct']).lower()}")
    for note in raw["notes"]:
        print(f"# note: {note}")
    print(f"{'metric':40s} {'value':>14s} {'unit':8s} {'clock':6s} {'samples':>9s}")
    for name, m in raw["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        mark = "" if name in declared_names else "  (not gated)"
        print(f"{name:40s} {value:>14s} {m['unit']:8s} {m['clock']:6s} {m['samples']:>9d}{mark}")


def result_of(raw, declared, rc):
    """The contract's result object, or None when a declared metric is missing."""
    metrics = {}
    for metric in declared:
        got = raw["metrics"].get(metric["name"])
        if got is None or got["value"] is None or got["unit"] != metric["unit"]:
            log(f"metric {metric['name']} missing, empty or in another unit")
            return None
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(raw["correct"]) and rc == 0, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or `all`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 3
    # `all` runs the workloads BENCHMARK.json gates; the binary also knows
    # workloads that are not gated (see perfbench/README.md).
    declared, names = declared_metrics(args.trace)
    workloads = names if args.workload == "all" else [args.workload]

    results = {}
    status = 0
    for workload in workloads:
        raw, rc = run_binary(workload, args.seed, args.seconds, args.trace,
                             time.monotonic() + RUN_TIMEOUT_S)
        if raw is None:
            return 4
        print_table(workload, raw, {m["name"] for m in declared})
        result = result_of(raw, declared, rc)
        if result is None:
            return 4
        results[workload] = result
        if not result["correct"]:
            status = 1
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
