#!/usr/bin/env python3
"""Builds and runs the Zidian benchmark.

    python3 perfbench/run.py --workload olap|point-serve|net-rw \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the program from
src/) with optimisation on into .bench_build/; later runs reuse that
build. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it start with
'#'. The exit status is the benchmark's: 0 when every answer check
passed, non-zero otherwise or when the program cannot be built.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_zidian")
BUILD_TYPE = "RelWithDebInfo"  # the project's default: -O2 -g
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """A digest of the sources the benchmark measures, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "zidian", "zidian.h")):
        fail("the program's sources (src/) are missing; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_zidian", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["olap", "point-serve", "net-rw"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    # A cluster without an explicit BlockCache size picks one up from this
    # variable, which would turn olap into a cached workload.
    if "ZIDIAN_BLOCK_CACHE_BYTES" in os.environ:
        fail("refusing to run with ZIDIAN_BLOCK_CACHE_BYTES set")

    build()
    print("# source: commit %s, digest %s, build type %s, nproc %d"
          % (commit(), source_digest(), BUILD_TYPE, os.cpu_count() or 0))
    sys.stdout.flush()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(BUILD, "trace")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
