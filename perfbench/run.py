#!/usr/bin/env python3
"""Build and run the open-loop KV benchmark (see kv_open_loop.cpp).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload put_open --seed 1 --seconds 10 --trace 0

The first call configures and builds the benchmark (Release) under
.bench_build/perfbench; later calls only re-check the build. The benchmark
binary prints the configuration, the run's diagnostics and, as its last
line, the result object; this script relays its output and exit code.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WAL_ROOT = ROOT / ".bench_build" / "perfbench-wal"
WORKLOADS = ("put_open", "get_open", "put_wal_open")
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                sys.exit(3)
    return BUILD_DIR / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wal-root", str(WAL_ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
