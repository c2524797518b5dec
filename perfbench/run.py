#!/usr/bin/env python3
"""End-to-end benchmark of the stq server stack.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the library and the stq_e2e benchmark binary from source into
.bench_build/ (Release, the repository's own toolchain flags), then runs
one workload. The binary generates its inputs from the seed, measures a
closed loop of about --seconds, checks the outputs and prints one JSON
object as the last line of standard output: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Per-run details (host
fingerprint, sizes, every metric) and, when traced, a Chrome trace are
written to .bench_build/runs/. Exits non-zero when the build fails, the
library sources are missing, or any output check fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "stq_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds stq_e2e; returns True on success."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "stq_e2e"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("stq library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("build failed", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(BUILD_DIR, "runs")]
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("benchmark timed out", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
