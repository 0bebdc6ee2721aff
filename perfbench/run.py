#!/usr/bin/env python3
"""Builds and runs the tcmf end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload surveillance_steady --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, then runs the benchmark binary with the given
arguments from the repository root. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. Exits nonzero when the
sources are missing, the build fails, or the benchmark fails or times out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tcmf_perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tcmf sources next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "tcmf_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        print("perfbench: run did not finish", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
