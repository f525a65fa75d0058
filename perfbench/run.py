#!/usr/bin/env python3
"""Builds and runs the SEMINAL benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus_sweep|daemon_edit|large_program \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (a Release build of the
repository's libraries with the lock-rank checker compiled out) into
.bench_build/perfbench; later runs only bring that build up to date. Build
output goes to standard error, so the benchmark's standard output ends with
its one-line JSON result. The exit code is the benchmark's: 0 on success,
non-zero, with no result printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "seminal_perfbench")
# A run measures for --seconds (a traced run for about 2.5 times that) and
# then verifies its outputs; it is stopped, with no result printed, after
# the larger of MIN_TIMEOUT_S and this allowance.
MIN_TIMEOUT_S = 170
VERIFY_ALLOWANCE_S = 110


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SEMINAL sources next to perfbench/ (expected src/)")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def run_timeout(args):
    """Seconds a run with the command-line arguments \p args may take."""
    seconds = 10.0  # The benchmark's default window.
    if "--seconds" in args[:-1]:
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            pass  # The benchmark rejects the value itself.
    return max(MIN_TIMEOUT_S, 3 * seconds + VERIFY_ALLOWANCE_S)


def main():
    build()
    sys.stdout.flush()
    timeout = run_timeout(sys.argv[1:])
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %g s" % timeout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
