#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the program libraries
under src/ it links) into .bench_build/perfbench; later calls only re-check
the build.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  The arguments are passed to the benchmark binary.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "tmp")


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
        if rc != 0:
            return rc
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(build_jobs())])


def main(argv):
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc if rc > 0 else 1
    os.makedirs(SCRATCH, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.call([binary, "--scratch", SCRATCH] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
