#!/usr/bin/env python3
"""Build the end-to-end benchmark in Release and run it.

Run from the repository root:

    python3 perfbench/run.py --workload curve-mesh16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The build goes to .bench_build/perfbench (configured once, rebuilt
incrementally on every call); result rows, execution ledgers, Chrome
traces and run records go to .bench_build/perfbench-out. The last line
of standard output is the benchmark's JSON result; build logs go to
standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "ebda_perfbench")
# A measured run lasts --seconds plus a few seconds of set-up and
# checks; anything far past that is a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    try:
        run = subprocess.run([BINARY, *sys.argv[1:], "--out-dir", OUT],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
