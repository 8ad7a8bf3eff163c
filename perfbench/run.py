#!/usr/bin/env python3
"""Whole-run controller benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload isp100-steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (CMake, into
.bench_build/perfbench), runs one workload in its own process, checks the
metric names and units against BENCHMARK.json, prints a readable table and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "owan_perfbench"
TEST_BINARY = BUILD_DIR / "perfbench_tests"
# A run must end within 180 s. The limit is taken after the build step,
# which takes a second or two once the first run in a checkout has built.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build(targets):
    """Configures (once) and builds `targets`; serialised by a file lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("program sources (src/) not found next to perfbench/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR.parent / "perfbench-build.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def parse_output(text):
    """Parses the binary's `metric`/`outcome`/`note` lines."""
    metrics, notes, outcome = {}, [], None
    for line in text.splitlines():
        parts = line.split(" ")
        if parts[0] == "metric" and len(parts) == 5:
            _, name, unit, value, samples = parts
            metrics[name] = {"value": float(value), "unit": unit,
                             "samples": int(samples)}
        elif parts[0] == "outcome" and len(parts) == 4:
            outcome = {"attempted": int(parts[1]), "failed": int(parts[2]),
                       "correct": parts[3] == "1"}
        elif parts[0] == "note":
            notes.append(line[len("note "):])
    if outcome is None:
        raise BenchError("benchmark binary printed no outcome line")
    return metrics, outcome, notes


def check_metrics(metrics, expected, end_to_end):
    """Problems with the printed metrics against BENCHMARK.json's list."""
    problems = []
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append("printed metrics %s differ from BENCHMARK.json %s" %
                        (sorted(metrics), sorted(want)))
    for name, m in metrics.items():
        if name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']} != {want[name]}")
        if not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']} is not finite")
        elif end_to_end and m["value"] <= 0.0:
            problems.append(f"{name}: value {m['value']} is not positive")
    return problems


def result_line(metrics, outcome, correct):
    return json.dumps({
        "correct": bool(correct),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    })


def run_workload(args, spec):
    build(["owan_perfbench"])
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        trace_file = BUILD_DIR / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--traced", "--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload run exceeded {RUN_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"benchmark binary exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    metrics, outcome, notes = parse_output(proc.stdout)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(metrics, expected, end_to_end=not args.trace)
    if any("differ from BENCHMARK.json" in p for p in problems):
        raise BenchError(problems[0])

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} "
              f"n={m['samples']}")
    for n in notes + problems:
        print(f"  note: {n}")
    print(f"  attempted {outcome['attempted']} failed {outcome['failed']}")
    print(result_line(metrics, outcome, outcome["correct"] and not problems))


def self_test():
    build(["owan_perfbench", "perfbench_tests"])
    if subprocess.run([str(TEST_BINARY)], cwd=ROOT).returncode != 0:
        return 1
    cmd = [sys.executable, "-m", "unittest", "-v", "test_run"]
    return subprocess.run(cmd, cwd=BENCH_DIR).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            raise BenchError("--workload is required")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            # Each workload in its own process, one result line each.
            for name in names:
                args.workload = name
                run_workload(args, spec)
            return 0
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload} (known: {names})")
        run_workload(args, spec)
        return 0
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
