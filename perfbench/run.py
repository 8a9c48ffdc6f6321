#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first call configures and builds
into $CARGO_TARGET_DIR (default .bench_build); later calls reuse the build.
Inputs go to a per-run directory under .bench_run that the binary removes
when it ends. The last line of stdout is the binary's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def build():
    """Configures and builds quietly; the build log goes to stderr on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources under ./src; run from the repo root")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + ["--workdir", RUN_DIR]
    proc = subprocess.run(cmd, timeout=170)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
