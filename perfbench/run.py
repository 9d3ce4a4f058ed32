#!/usr/bin/env python3
"""Builds the dcache benchmark (dcbench) from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <warm-lookup|mail-serve|cold-scan> \
        --seed <n> --seconds <s> --trace <0|1>

dcbench is built with CMake into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`, relative to the current directory). Build output
goes to stderr, so the last line of stdout is dcbench's JSON result.
Traced runs (--trace 1) write their span logs to `<build dir>/traces/`.
The exit code is dcbench's: nonzero when an op returned a wrong result,
the post-run audit failed, or the build or the run failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run does three set-ups, the measured rounds, then reference or traced
# passes: allow a fixed set-up time plus a multiple of --seconds.
MAX_SECONDS = 600


def run_timeout_s(seconds):
    return 60 + 5 * seconds


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; nothing to build")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "dcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["warm-lookup", "mail-serve", "cold-scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        sys.exit(f"perfbench: --seconds must be in (0, {MAX_SECONDS}]")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", traces]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout:.0f} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
