#!/usr/bin/env python3
"""Build and run one pushpart benchmark workload.

    python3 pushbench/run.py --workload serve-mix --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (pushbench/CMakeLists.txt, which compiles the library sources under
src/) into the directory named by $CARGO_TARGET_DIR, or .bench_build when it
is unset; later calls rebuild only what changed. Build output goes to stderr.
Atlas, snapshot and trace files go to .bench_out/.

The last stdout line is the benchmark's JSON result. Before printing it, the
metric names and units are checked against BENCHMARK.json: end-to-end metrics
for --trace 0, per-layer metrics for --trace 1. The exit status is the
benchmark's (0 = every op succeeded and every check held), or 1 when the
build fails, the run times out or the metrics do not match the declaration.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mix", "plan-families", "exec")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"pushbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and any(
            os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "pushbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    binary = os.path.join(build_dir, "pushbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if binary is None:
        log("build failed")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in got if k in want and got[k] != want[k])}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
