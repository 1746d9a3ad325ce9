#!/usr/bin/env python3
"""Builds the autoview benchmark driver from this checkout and runs one
workload in its own process.

    python3 perfbench/run.py --workload wk1-full --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see perfbench/README.md). Run
from the root of the repository. Build output goes to .bench_build (or
$CARGO_TARGET_DIR when set), traces to .bench_out.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("learned-job", "wk1-full", "online-churn")
# The program's pool size is pinned so results do not depend on the host.
AUTOVIEW_THREADS = "4"
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; all tool output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("autoview sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build step failed: " + " ".join(step))
                return None
    binary = os.path.join(out, target)
    return binary if os.path.isfile(binary) else None


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's checks")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_checks_test")
        if binary is None:
            return 2
        return subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench_driver")
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, AUTOVIEW_THREADS=AUTOVIEW_THREADS)
    print("env: nproc=%d AUTOVIEW_THREADS=%s commit=%s" %
          (len(os.sched_getaffinity(0)), AUTOVIEW_THREADS, commit()),
          flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", OUT_DIR]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
