#!/usr/bin/env python3
"""End-to-end benchmark of record for geogossip.

Builds the benchmark program (e2e_bench/CMakeLists.txt, which compiles the
library from ../src) into $CARGO_TARGET_DIR/e2e_bench (default
.bench_build/e2e_bench under the checkout), runs one workload, and passes
its report through; the last stdout line is the JSON result.

    python3 e2e_bench/run.py --workload sweep-baselines --seed 1 \\
        --seconds 16 --trace 0
    python3 e2e_bench/run.py --self-test

Exit codes: 0 ok; 1 build failure, correctness-gate failure, crash or
timeout; 2 usage error.  See README.md beside this file.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
THREADS = 4

# Per-layer counts that must repeat exactly between runs at one seed and
# between 1 and 4 threads.
EXACT_COUNTS = [
    "routing.hops",
    "routing.routes",
    "gossip.exchanges",
    "sim.ticks",
    "sim.tracker_refreshes",
    "exp.replicate_ms.count",
    "exp.sink.records",
    "exp.sink.bytes",
    "exp.snapshot.saves",
    "exp.snapshot.bytes",
]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    """Configures (once) and builds e2e_bench; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: the library sources (CMakeLists.txt, src/) are not "
              "beside e2e_bench/", file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(THREADS, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "e2e_bench"])
    # Serialize builds of one checkout; runs never build concurrently.
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr)
            except OSError as error:
                print(f"run.py: {step[0]}: {error}", file=sys.stderr)
                return None
            if done.returncode != 0:
                print("run.py: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return None
    exe = os.path.join(out, "e2e_bench")
    return exe if os.access(exe, os.X_OK) else None


def run(exe, workload, seed, seconds, trace, threads=THREADS, tiny=False,
        trace_out=None):
    """Runs one workload; returns (exit code, stdout, parsed result)."""
    workdir = tempfile.mkdtemp(prefix="work-", dir=build_dir())
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--threads={threads}", f"--workdir={workdir}"]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1, "", None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, done.stdout, result


def self_test(exe):
    """Tiny versions of every workload: every metric printed with its
    unit, end-to-end values positive, counts exact across runs and
    thread counts, correctness gates passing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def checked(workload, trace, threads):
        code, _, result = run(exe, workload, 7, 1, trace, threads=threads,
                              tiny=True)
        tag = f"{workload} trace={trace} threads={threads}"
        if code != 0 or result is None or not result.get("correct"):
            verdict = result.get("correct") if result else "no result"
            problems.append(f"{tag}: exit {code}, correct {verdict}")
            return {}
        metrics = result["metrics"]
        if set(metrics) != set(units[trace]):
            problems.append(f"{tag}: metric names differ from BENCHMARK.json:"
                            f" {sorted(set(metrics) ^ set(units[trace]))}")
        for name, metric in metrics.items():
            if metric.get("unit") != units[trace].get(name):
                problems.append(f"{tag}: {name} unit {metric.get('unit')!r}")
            if trace == 0 and not metric["value"] > 0:
                problems.append(f"{tag}: {name} = {metric['value']}")
        if result["attempted"] < 1:
            problems.append(f"{tag}: attempted {result['attempted']}")
        return {name: m["value"] for name, m in metrics.items()}

    # scale-2e18 is kept runnable beside the workloads of record.
    for workload in [w["name"] for w in spec["workloads"]] + ["scale-2e18"]:
        checked(workload, 0, THREADS)
        first = checked(workload, 1, THREADS)
        again = checked(workload, 1, THREADS)
        serial = checked(workload, 1, 1)
        for name in EXACT_COUNTS:
            values = (first.get(name), again.get(name), serial.get(name))
            if len(set(values)) != 1:
                problems.append(f"{workload}: {name} not exact "
                                f"(run, rerun, 1 thread) = {values}")
        print(f"self-test: {workload} done", file=sys.stderr)
    for problem in problems:
        print("self-test FAILED: " + problem, file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        return self_test(exe)

    trace_out = None
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces,
                                 f"{args.workload}-seed{args.seed}.json")
    code, stdout, result = run(exe, args.workload, args.seed, args.seconds,
                               args.trace, trace_out=trace_out)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if trace_out and code == 0:
        print(f"run.py: trace written to {trace_out}", file=sys.stderr)
    if result is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
