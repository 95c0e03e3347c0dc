#!/usr/bin/env python3
"""The repository benchmark: builds the engine and its workload driver from
source, then runs one workload.

    python3 perfbench/run.py --workload serve|fig11-lazy|ingest \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ (CMake,
RelWithDebInfo like the repository's own default); engine directories and
traces are written under .bench_build/ too. The last line of standard output
is one JSON object with the run's metrics (see driver.cc for the phases and
BENCHMARK.json for the workloads and metrics). The exit code is nonzero when
the build fails, an answer is wrong, or an operation fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("serve", "fig11-lazy", "ingest")
# One run must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs], stdout=sys.stderr)
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("build failed")
        return 3

    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--workdir", workdir,
        "--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed)),
        "--digests", os.path.join(HERE, "expected_digests.txt"),
    ]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        code = 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
