#!/usr/bin/env python3
"""Builds the e2ebench benchmark from source and runs it.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test     # every check flags a perturbed output
    python3 e2ebench/run.py --unit-tests    # the benchmark's own unit tests

The library and the benchmark are built (Release, CMake) into
.bench_build/e2ebench under the current directory; an up-to-date build is
a no-op. Build output goes to standard error, so the last line of standard
output stays the benchmark's JSON result. Any build failure exits non-zero
without a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "e2ebench")


def build(target, env):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr, env=env)
        if code != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return code
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
        stdout=sys.stderr, env=env)


def main(argv):
    target = "e2ebench_test" if argv[:1] == ["--unit-tests"] else "e2ebench"
    # Compiler and benchmark temporaries stay inside the build tree.
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    code = build(target, env)
    if code != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(BUILD, target)
    args = [] if target == "e2ebench_test" else argv
    # A child process, not exec: the benchmark's peak-RSS reading covers
    # the children it reaps, and an exec'd process would inherit the
    # compiler processes this script just reaped.
    return subprocess.call([binary] + args, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
